"""The benchmark's own tests, at tiny scale.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from harness import checks
from harness.layers import PER_LAYER
from harness.tracing import Tracer, covered_time, self_times
from harness.workloads import WORKLOADS, Context, Scale

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = Scale(
    setup_repeats=1, campaign_count=1, min_invocations=1, remeasure=20,
    min_rounds=1, tune_ocs=2, train_count=4, min_trains=1, train_settings=2,
    max_rows=300, pool_size=4, min_requests=8, loop_share=0.0, degraded=1,
)


def tiny_context(tmp_path: Path, trace: bool = False, **scale) -> Context:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return Context(
        root=ROOT, work=tmp_path, env=env, seed=3, seconds=0.0, trace=trace,
        scale=dataclasses.replace(TINY, **scale),
    )


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_follows_the_benchmark_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_spec_names_what_the_harness_measures():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(PER_LAYER)


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def test_self_time_subtracts_children_and_coverage_unions_threads():
    tracer = Tracer()
    with tracer.span("tuning.tune", rid="cell:1") as outer:
        with tracer.span("engine.evaluate_batch") as inner:
            pass
    own = self_times(tracer.spans)
    assert inner.parent == outer.sid and inner.rid == "cell:1"
    assert own[outer.sid] == pytest.approx(outer.duration - inner.duration)
    assert covered_time(tracer.spans) == pytest.approx(outer.duration)


def test_spans_are_written_as_json_lines(tmp_path):
    tracer = Tracer()
    with tracer.span("serve.select", rid="req:0/0"):
        pass
    tracer.write_jsonl(tmp_path / "spans.jsonl")
    (row,) = [json.loads(line) for line in (tmp_path / "spans.jsonl").open()]
    assert {"name", "start", "end", "parent", "rid"} <= set(row)
    assert row["rid"] == "req:0/0" and row["end"] >= row["start"]


# ----------------------------------------------------------------------
# host scaling
# ----------------------------------------------------------------------
def test_timed_pairs_each_unit_with_reference_timings(tmp_path, monkeypatch):
    from harness import workloads

    timings = iter([0.010, 0.014, 0.012, 0.016])
    monkeypatch.setattr(workloads, "reference_s", lambda: next(timings))
    monkeypatch.setattr(workloads, "REFERENCE_NOMINAL_S", 0.013)
    ctx = tiny_context(tmp_path)
    result, wall, host = ctx.timed(lambda x: x + 1, 1, refs=2)
    assert result == 2 and wall >= 0.0
    assert host == pytest.approx(1.0) and ctx.hosts == [host]
    traced = tiny_context(tmp_path, trace=True)
    assert traced.timed(lambda: 3)[::2] == (3, 1.0) and traced.hosts == []


# ----------------------------------------------------------------------
# every workload emits every metric, and its outputs pass the checks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_reports_every_metric(workload, trace, tmp_path):
    outcome = WORKLOADS[workload](tiny_context(tmp_path, trace=trace))
    assert outcome.problems == []
    assert outcome.attempted >= 1
    assert outcome.backend
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(outcome.metrics) == {m["name"] for m in spec}
    assert all(math.isfinite(v) for v in outcome.metrics.values())
    if trace:
        assert outcome.metrics["trace.coverage"] > 0.5
    else:
        assert all(v > 0 for v in outcome.metrics.values())


# ----------------------------------------------------------------------
# perturbed outputs are reported as failed
# ----------------------------------------------------------------------
def test_perturbed_campaign_measurement_fails(tmp_path, monkeypatch):
    import repro.profiling

    save = repro.profiling.save_campaign

    def save_perturbed(campaign, path):
        profile = campaign.profiles[campaign.gpus[0]][0]
        m = profile.measurements[0]
        profile.measurements[0] = dataclasses.replace(m, time_ms=m.time_ms * 1.001)
        save(campaign, path)

    monkeypatch.setattr(repro.profiling, "save_campaign", save_perturbed)
    ctx = tiny_context(tmp_path, remeasure=10**6)
    outcome = WORKLOADS["campaign-2d"](ctx)
    assert len(outcome.problems) == 1
    assert "recorded" in outcome.problems[0]
    assert outcome.metrics["ok_share"] < 1.0


def test_perturbed_served_answer_fails(tmp_path, monkeypatch):
    from repro.serve import ServeClient

    predict = ServeClient.predict

    def predict_perturbed(self, *args, **kwargs):
        return predict(self, *args, **kwargs) * (1 + 1e-9)

    monkeypatch.setattr(ServeClient, "predict", predict_perturbed)
    outcome = WORKLOADS["train-serve-2d"](tiny_context(tmp_path))
    assert outcome.problems
    assert all(p.startswith("predict ") for p in outcome.problems)


def test_campaign_output_check_catches_count_and_quarantine(tmp_path):
    from repro.profiling import CampaignRunner
    from repro.stencil import generate_population
    from repro.optimizations.combos import ALL_OCS

    campaign = CampaignRunner(
        generate_population(2, 1, seed=1), gpus=("V100",), ocs=ALL_OCS[:2],
        n_settings=2,
    ).run()
    n = sum(len(campaign.measurements(g)) for g in campaign.gpus)
    good = f"... ({n} measurements) ...\n  quarantined points: 0\n"
    assert checks.campaign_output_problems(good, 0, campaign) == []
    assert len(checks.campaign_output_problems(good, 3, campaign)) == 1
    wrong = good.replace(f"({n} ", f"({n + 1} ")
    assert len(checks.campaign_output_problems(wrong, 0, campaign)) == 1
    held = good.replace("points: 0", "points: 2")
    assert len(checks.campaign_output_problems(held, 0, campaign)) == 1
    ms = campaign.measurements("V100")
    assert checks.remeasure_problems(campaign, ms, sigma=0.03) == []
    bent = [dataclasses.replace(ms[0], time_ms=ms[0].time_ms * (1 + 1e-6))]
    assert len(checks.remeasure_problems(campaign, bent, sigma=0.03)) == 1


def test_tune_pair_check_catches_drift_and_misses():
    from repro.tuning import TuneResult

    cold = TuneResult(strategy="random", best_setting=None, best_time_ms=1.0,
                      trials=4, cost=4.0, crashed=0, seed=0, budget=4.0,
                      oc="ST", stencil="s", gpu="A100")
    assert checks.tune_pair_problems([cold], [cold]) == []
    drift = dataclasses.replace(cold, best_time_ms=1.0 + 1e-12)
    assert len(checks.tune_pair_problems([cold], [drift])) == 1
    missed = dataclasses.replace(cold, cache_misses=1)
    assert len(checks.tune_pair_problems([cold], [missed])) == 1


def test_served_answer_checks_catch_wrong_answers():
    good = {"oc": "ST_RT", "source": "model"}
    assert checks.select_problems([good], ["ST_RT"]) == []
    assert len(checks.select_problems([good], ["ST"])) == 1
    fallback = dict(good, source="fallback")
    assert len(checks.select_problems([fallback], ["ST_RT"])) == 1
    assert checks.predict_problems([2.5], [2.5]) == []
    assert len(checks.predict_problems([2.5 * (1 + 1e-9)], [2.5])) == 1
    assert len(checks.predict_problems([RuntimeError("503")], [2.5])) == 1
    rung = {"oc": "ST_RT", "source": "fallback", "rung": "analytical"}
    assert checks.degraded_problems([rung]) == []
    assert len(checks.degraded_problems([dict(rung, rung="heuristic-ladder")])) == 1
    assert len(checks.degraded_problems([dict(rung, oc="NOPE")])) == 1


# ----------------------------------------------------------------------
# the command refuses to run without the program
# ----------------------------------------------------------------------
def test_command_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tune-3d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
