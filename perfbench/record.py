"""Writes reference.json: the quality numbers every workload operation
produces on each reference slot, which the correctness gate compares with.

Run it only on a commit whose results are the reference (the seed commit),
from the root of the checkout:

    python3 perfbench/record.py
"""

import json
import os
import shutil
import sys

from run import PINNED

os.environ.update(PINNED)       # before numpy loads BLAS

import measure  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import FULL, SLOTS, WORKLOADS, run_pass  # noqa: E402

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "reference.json")


def record(workload, sizes, slot, work):
    """Observed quantities per operation label for one slot; raises if an
    operation fails its contract checks."""
    t = tr.Tracer(capture=workload.captures)
    t.install(workload.captures)
    try:
        outcomes = run_pass(workload, sizes, slot, work, t, None, "record")
    finally:
        t.uninstall()
    for o in outcomes:
        if o.messages:
            raise RuntimeError("%s %s: %s" % (workload.name, o.label,
                                              "; ".join(o.messages[:3])))
    return {o.label: o.observed for o in outcomes}


def main():
    reference = {}
    work = os.path.join(measure.ROOT, ".perfbench_work", "record")
    os.makedirs(work, exist_ok=True)
    try:
        for name in sorted(WORKLOADS):
            reference[name] = {str(slot): record(WORKLOADS[name], FULL, slot,
                                                 work)
                               for slot in range(SLOTS)}
            print("recorded %s" % name, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
