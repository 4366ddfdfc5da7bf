"""dmaplab benchmark: runs a workload and prints its metrics.

    python3 perfbench/run.py --workload pipeline-n4000 --seed 1 \
        --seconds 15 --trace 0

``--workload all`` runs the three workloads one after another, each with
its own report and JSON line.

Run from the root of a dmaplab checkout.  Each workload runs in a fresh
child process (measure.py) with BLAS pinned to one thread; a few more
children only set up, so that ``setup_s`` is a median.  With ``--trace 0``
the end-to-end metrics of BENCHMARK.json are printed, with ``--trace 1``
the per-layer ones.  The last line of standard output is one JSON object;
the exit code is 1 when any operation failed its correctness gate and 2
when the benchmark could not run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# workloads.WORKLOADS has the same names; this process imports neither
# numpy nor dmaplab, so that it can report a checkout without src/
WORKLOADS = ("pipeline-n4000", "tangent-study", "cli-artifacts")
SETUP_ONLY_CHILDREN = 2       # with the measuring child: median of three
BUDGET_S = 170.0              # one workload, its children included
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


def spawn(workload, args, deadline, setup_only):
    """Run measure.py in a fresh process; its last stdout line is JSON."""
    cmd = [sys.executable, os.path.join(HERE, "measure.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **PINNED)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget of %.0f s used up" % BUDGET_S)
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("%s child did not finish within %.0f s"
                         % (workload, timeout))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s child exited with code %d"
                         % (workload, proc.returncode))
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    return max([run(name, args) for name in names])


def run(workload, args):
    """Measure one workload and print its report; returns the exit code."""
    deadline = time.monotonic() + BUDGET_S
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "dmaplab",
                                           "__init__.py")):
            raise BenchError("no dmaplab sources under %s"
                             % os.path.join(ROOT, "src"))
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as fh:
            spec = json.load(fh)
        setups = [] if args.trace else [
            spawn(workload, args, deadline, True)["setup_s"]
            for _ in range(SETUP_ONLY_CHILDREN)]
        result = spawn(workload, args, deadline, False)
    except (BenchError, OSError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2

    setups.append(result["setup_s"])
    values = dict(result["metrics"], setup_s=statistics.median(setups))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print("error: metrics not measured: %s" % ", ".join(missing),
              file=sys.stderr)
        return 2
    attempted, failed = result["attempted"], result["failed"]

    for key, val in sorted(result["record"].items()):
        print("record %-20s %s" % (key, val))
    for label, count, seconds in result["ops"]:
        print("op %-12s %5d ops %10.4f s" % (label, count, seconds))
    for msg in result["messages"]:
        print("FAILED %s" % msg)
    for m in wanted:
        print("%-28s %16.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    print("%-28s %16.6g %s" % ("failed_frac", failed / attempted, "1"))
    if not args.trace:
        print("%-28s %16s %s" % ("setup_s samples",
                                 " ".join("%.4f" % s for s in setups), "s"))
    print(json.dumps(result_object(wanted, values, attempted, failed)))
    return 0 if failed == 0 else 1


def result_object(wanted, values, attempted, failed):
    """The final line: every wanted metric by name with its unit."""
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


if __name__ == "__main__":
    sys.exit(main())
