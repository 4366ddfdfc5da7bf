"""Toy-size runs of the benchmark harness (n = 300, ntilde = 100).

    python3 -m pytest perfbench
"""

import json
import os

import pytest

import measure
import run
from record import record
from workloads import TOY, WORKLOADS

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

# one deliberately wrong reference value per workload, and how many
# operations it must fail
WRONG = {
    "pipeline-n4000": (("seed1", "embedding_error"), 1),
    "tangent-study": (("study", "angles", 3), 1),
    "cli-artifacts": (("eigen", "mu", 1), 1),
}


@pytest.fixture(scope="module")
def references(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("record"))
    return {name: record(w, TOY, 0, work) for name, w in WORKLOADS.items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(name, trace, references,
                                               tmp_path):
    result = measure.measure(WORKLOADS[name], TOY, 0, 0, trace,
                             references[name], str(tmp_path))
    assert result["failed"] == 0, result["messages"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    # set-up is timed by measure.main around measure(), not inside it
    values = dict(result["metrics"], setup_s=0.5)
    line = run.result_object(wanted, values, result["attempted"],
                             result["failed"])
    assert line["correct"] and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        assert line["metrics"]["trace.spans"]["value"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gate_fails_an_op_whose_reference_is_wrong(name, references,
                                                   tmp_path):
    reference = json.loads(json.dumps(references[name]))
    path, expected = WRONG[name]
    holder = reference
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] += 1e-3
    result = measure.measure(WORKLOADS[name], TOY, 0, 0, 0, reference,
                             str(tmp_path))
    assert result["failed"] == expected, result["messages"]
    assert result["attempted"] > result["failed"]
