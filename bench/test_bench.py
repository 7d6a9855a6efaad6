"""Tests of the benchmark's own code, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from checks import CheckFailed, SetModel, check_profile_json, check_verify
from workloads import WORKLOADS, build

DECLARED = run.load_declared()

# the metric names the benchmark promises, by layer
END_TO_END = ["ops_per_s", "op_p50_s", "op_tail_s", "setup_s", "error_rate", "peak_rss_mb"]
PER_LAYER = [
    "cli.interp_s", "cli.import_s", "cli.import_rss_mb", "cli.main.self_s",
    "cli.stdout_bytes",
    "intset.nth_root_floor.calls", "intset.nth_root_floor.self_s",
    "intset.member.calls", "intset.member.self_s", "intset.materialize.calls",
    "intset.materialize.self_s", "intset.materialize.bits", "intset.parse_set.self_s",
    "intset.elements.self_s",
    "density.f_profile.calls", "density.f_profile.self_s", "density.f_profile.cells",
    "density.density_estimate.self_s", "density.check_run_bound.self_s",
    "density.profile_csv.self_s",
    "sumset.verify_containment.calls", "sumset.verify_containment.self_s",
    "sumset.run_sum.calls", "sumset.run_sum.self_s", "sumset.enumerate_subsets.yielded",
    "sumset.enumerate_subsets.self_s", "sumset.pairwise_sumset.calls",
    "sumset.pairwise_sumset.self_s",
    "construct.verify_b_sequence.self_s", "construct.subsets_checked",
    "construct.subsets_per_s", "construct.root_extractions", "construct.roots_per_subset",
    "construct.verify_family.self_s", "construct.verify_escape.self_s",
    "construct.ap_reduce.self_s", "construct.build_b_sequence.self_s",
    "construct.max_base_digits",
    "trace.overhead_ratio",
]


def test_every_metric_has_a_unit():
    assert list(run.END_TO_END) == END_TO_END
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    # error_rate is 0 on a healthy run, so it is reported but not declared
    assert sorted(declared) == sorted(set(END_TO_END) - {"error_rate"})
    assert all(declared[n] == run.END_TO_END[n] for n in declared)
    layers = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert sorted(layers) == sorted(PER_LAYER)
    assert all(layers[n] for n in PER_LAYER)
    assert {w["name"] for w in DECLARED["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_timed_run_has_no_errors(workload, tmp_path):
    res = run.timed_run(workload, seed=3, seconds=1, work=tmp_path, scale="tiny")
    failures = [(s.op, s.reason) for s in res["samples"] if not s.ok]
    assert failures == []
    assert res["metrics"]["error_rate"] == 0
    assert all(res["metrics"][n] > 0 for n in END_TO_END if n != "error_rate")
    # known defects are probed apart from the timed operations
    names = [p["name"] for p in res["probes"]]
    assert names == (["poly2-k14-roundtrip"] if workload == "sweep" else [])


def test_sample_count_does_not_depend_on_speed(tmp_path):
    # two cycles whatever the pace, so the tail is read at the same rank
    seconds = 2 * run.NOMINAL_CYCLE_S["window"]
    res = run.timed_run("window", seed=3, seconds=seconds, work=tmp_path, scale="tiny")
    assert res["cycles"] == 2
    assert len(res["samples"]) == 2 * res["ops_per_cycle"]
    assert res["metrics"]["_n"] == len(res["samples"])


def test_a_run_past_its_deadline_gives_no_result(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "DEADLINE_S", 0.0)
    with pytest.raises(SystemExit, match="no result"):
        run.timed_run("window", seed=3, seconds=1, work=tmp_path, scale="tiny")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_reports_every_layer(workload, tmp_path):
    res = run.traced_run(workload, seed=3, work=tmp_path, scale="tiny")
    assert [(s.op, s.reason) for s in res["samples"] if not s.ok] == []
    assert sorted(res["metrics"]) == sorted(PER_LAYER)
    spans = res["spans"]
    assert spans and all(s["end"] >= s["start"] and s["self"] >= -1e-6 for s in spans)
    assert all(s["parent"] < i for i, s in enumerate(spans))


def test_same_seed_same_operations(tmp_path):
    a = build("window", 5, tmp_path)
    b = build("window", 5, tmp_path)
    c = build("window", 6, tmp_path)
    assert [op.argv for op in a.ops] == [op.argv for op in b.ops]
    assert a.files == b.files
    assert [op.argv for op in a.ops] != [op.argv for op in c.ops]
    assert [op.name for op in a.ops] == [op.name for op in c.ops]


def _cli(*argv: str) -> bytes:
    env = run.child_env()
    return subprocess.run([sys.executable, "-m", "banachsum", *argv], env=env,
                          capture_output=True, check=False).stdout


def test_checks_catch_a_wrong_profile():
    model = SetModel("poly", 2)
    out = _cli("profile", "--set", "gen poly_runs 2", "--window", "10:200")
    check = check_profile_json(model, 10, 200, [5, 50, 150])
    check(out)
    payload = json.loads(out)
    payload["f"][120] -= 1
    with pytest.raises(CheckFailed):
        check(json.dumps(payload).encode())


def test_checks_catch_a_wrong_witness():
    seq = {"ells": [1, 2], "bs": ["1", "2"]}
    model = SetModel("runs", [(1, 2), (4, 10)])
    check_verify(seq, model, 2, "Fail")(b'{"status":"Fail","checked":3,'
                                        b'"witness":"3","witness_subset":[2]}')
    with pytest.raises(CheckFailed):
        # 4 lies in the interval sum [3, 4] of runs 2 and 1, but is a member
        check_verify(seq, model, 2, "Fail")(b'{"status":"Fail","checked":3,'
                                            b'"witness":"4","witness_subset":[2,1]}')


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
