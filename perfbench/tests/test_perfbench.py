"""Tests of the benchmark itself: python3 -m pytest perfbench/tests

They run real child processes on the cheapest items (about 20 seconds).
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import inputs  # noqa: E402
import run  # noqa: E402

CHEAP_CLI = ("thm1 sl2 x dual-numbers", "lemma21 sl2 x group-algebra(2)", "lemma21 refusal",
             "phi quotient-laurent(1,4) F5", "phi scenes", "counterexample-bm")
CHEAP_LADDER = ("ladder F31 k=4", "ladder Qz3 k=2")


def _items(seed, work, ids):
    items = []
    for workload in inputs.WORKLOADS:
        items += inputs.build_items(workload, seed, str(work))
    picked = [it for it in items if it["id"] in ids]
    assert len(picked) == len(ids)
    return picked


def _runner(seed, work, golden=None):
    return run.Runner(ROOT, seed, str(work), run.load_golden() if golden is None else golden)


def test_tracing_leaves_json_bytes_unchanged(tmp_path):
    runner = _runner(0, tmp_path)
    for item in _items(0, tmp_path, CHEAP_CLI):
        outs = {mode: runner.spawn(item, mode) for mode in ("plain", "spans", "counts")}
        for mode, res in outs.items():
            assert res["ok"], (item["id"], mode, res["detail"])
            assert (res["rc"], res["stdout"]) == (outs["plain"]["rc"], outs["plain"]["stdout"])


def test_corrupted_golden_counts_as_failure(tmp_path):
    golden = copy.deepcopy(run.load_golden())
    golden["phi scenes"]["digest"] = "0" * 64
    golden["ladder F31 k=4"]["dims"] = [13, 4]
    items = _items(0, tmp_path, ("phi scenes", "counterexample-bm", "ladder F31 k=4"))
    _, attempted, failed, failures = run.measure(_runner(0, tmp_path, golden), items, 0, False)
    assert (attempted, failed) == (3, 2)
    assert sorted(f.split(":")[0] for f in failures) == ["ladder F31 k=4", "phi scenes"]
    out = run.result({}, attempted, failed)
    assert out["correct"] is False and out["failed"] == 2


@pytest.mark.parametrize("seed", [0, 3])
def test_refusal_exits_3(tmp_path, seed):
    (item,) = _items(seed, tmp_path, ("lemma21 refusal",))
    res = _runner(seed, tmp_path).spawn(item, "plain")
    assert res["ok"] and res["rc"] == 3 and res["stdout"] == ""


@pytest.mark.parametrize("seed", [1, 2])
def test_seeded_items_keep_verdicts_and_dimensions(tmp_path, seed):
    runner = _runner(seed, tmp_path)
    for item in _items(seed, tmp_path, CHEAP_CLI + CHEAP_LADDER):
        res = runner.spawn(item, "plain")
        assert res["ok"], (item["id"], res["detail"])


def test_seed_zero_is_the_identity(tmp_path):
    assert inputs.basis_change(0, "any", 4) == ([0, 1, 2, 3], [1, 1, 1, 1])
    perm, scales = inputs.basis_change(7, "any", 4)
    assert sorted(perm) == [0, 1, 2, 3] and set(scales) <= set(inputs.SCALES)
    # the setup file written for seed 0 gives the catalog report byte for byte
    f = inputs.make_field("prime", m=4, p=5)
    path = tmp_path / "ql14.json"
    path.write_text(json.dumps(inputs.setup_definition("quotient-laurent(1,4)", f, 0, "x")))
    item = {"id": "phi quotient-laurent(1,4) F5", "group": "phi", "kind": "cli",
            "argv": ["phi-eval", "--setup", str(path), "--json"]}
    res = _runner(0, tmp_path).spawn(item, "plain")
    assert res["ok"], res["detail"]


def test_every_metric_reported_with_its_unit(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert [[m["name"], m["unit"], m["better"], m["bound"]] for m in spec["end_to_end"]] == \
        [list(m) for m in run.END_TO_END]
    assert [[m["name"], m["unit"], m["better"]] for m in spec["per_layer"]] == \
        [list(m) for m in run.PER_LAYER]
    items = _items(0, tmp_path, ("phi scenes", "ladder Qz3 k=2"))
    runner = _runner(0, tmp_path)
    for trace, table in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        metrics, attempted, failed, _ = run.measure(runner, items, 0, trace)
        out = run.result(metrics, attempted, failed)
        assert out["correct"] and attempted == len(items) * (3 if trace else 1)
        assert {k: v["unit"] for k, v in out["metrics"].items()} == \
            {name: unit for name, unit, *_ in table}
    assert out["metrics"]["laurent.calls"]["value"] > 0
    assert out["metrics"]["invariants.derivation_s"]["value"] > 0
    assert out["metrics"]["scalars.ops.cyclotomic"]["value"] > 0
