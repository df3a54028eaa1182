"""Correctness checks of the program's outputs.

Each check returns a list of problems, one line each; an empty list
means the outputs passed.  The workloads count every problem as a
failed operation, and the benchmark exits non-zero when any is found.
"""

from __future__ import annotations

import math
import re

import numpy as np

#: The engine's contract between backends: times within 1e-9 relative.
ENGINE_RTOL = 1e-9

#: Served predictions against the direct model call (JSON round-trips
#: floats exactly; this only absorbs batch-order summation effects).
PREDICT_RTOL = 1e-12


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def campaign_output_problems(stdout: str, rc: int, campaign) -> "list[str]":
    """``repro profile`` exited 0, its ``-o`` file reloads with the count
    it printed, and its health report shows no quarantined points."""
    problems = []
    if rc != 0:
        problems.append(f"repro profile exited {rc}")
    printed = re.search(r"\((\d+) measurements\)", stdout)
    quarantined = re.search(r"quarantined points: (\d+)", stdout)
    reloaded = sum(len(campaign.measurements(g)) for g in campaign.gpus)
    if printed is None or int(printed.group(1)) != reloaded:
        problems.append(
            f"-o file reloads with {reloaded} measurements, CLI printed "
            f"{printed.group(1) if printed else 'none'}"
        )
    if quarantined is None or int(quarantined.group(1)) != 0:
        problems.append(
            "quarantined points: "
            f"{quarantined.group(1) if quarantined else 'no health report'}"
        )
    return problems


def remeasure_problems(campaign, measurements, sigma: float) -> "list[str]":
    """Re-measure *measurements* with ``ScalarBackend``; report disagreements."""
    from repro.engine import EvalRequest, ScalarBackend
    from repro.optimizations.combos import OC_BY_NAME

    problems = []
    by_gpu: dict[str, list] = {}
    for m in measurements:
        by_gpu.setdefault(m.gpu, []).append(m)
    for gpu, ms in by_gpu.items():
        backend = ScalarBackend(gpu, sigma=sigma)
        results = backend.evaluate_batch(
            [
                EvalRequest(campaign.stencils[m.stencil_id], OC_BY_NAME[m.oc], m.setting)
                for m in ms
            ]
        )
        for m, r in zip(ms, results):
            if not r.ok or _rel(m.time_ms, r.time_ms) > ENGINE_RTOL:
                problems.append(
                    f"{gpu} stencil {m.stencil_id} {m.oc} {m.setting.as_tuple()}: "
                    f"recorded {m.time_ms!r}, scalar "
                    f"{r.time_ms if r.ok else r.error!r}"
                )
    return problems


def tune_pair_problems(cold, warm) -> "list[str]":
    """The warm pass replays the cold pass exactly, from the cache alone."""
    problems = []
    for c, w in zip(cold, warm):
        cell = f"{c.stencil}/{c.oc}/{c.strategy}"
        if (c.best_setting, c.best_time_ms) != (w.best_setting, w.best_time_ms):
            problems.append(
                f"{cell}: warm {w.best_setting}/{w.best_time_ms!r} != cold "
                f"{c.best_setting}/{c.best_time_ms!r}"
            )
        if w.cache_misses != 0:
            problems.append(f"{cell}: warm pass missed the cache {w.cache_misses}x")
    if len(cold) != len(warm):
        problems.append(f"{len(cold)} cold cells but {len(warm)} warm cells")
    return problems


def expected_selections(artifact, stencils) -> "list[str]":
    """The selector artifact's own answer: ``model.predict`` on features."""
    from repro.stencil.features import extract_features

    X = np.stack([extract_features(s, artifact.max_order) for s in stencils])
    return [artifact.representatives[int(c)] for c in artifact.model.predict(X)]


def expected_predictions(artifact, requests) -> np.ndarray:
    """The predictor artifact's own answer for ``(stencil, oc, setting, gpu)``."""
    from repro.gpu.specs import hardware_features
    from repro.ml.preprocess import LogTimeTransform
    from repro.profiling.dataset import oc_flags
    from repro.stencil.features import extract_features

    X = np.stack(
        [
            np.concatenate(
                [
                    extract_features(stencil, artifact.max_order),
                    oc_flags(oc),
                    setting.encode(),
                    np.asarray(hardware_features(gpu)),
                ]
            )
            for stencil, oc, setting, gpu in requests
        ]
    )
    return LogTimeTransform.inverse(artifact.model.predict(X))


def select_problems(answers, expected: "list[str]") -> "list[str]":
    """Served selections equal the artifact's, and came from the model."""
    problems = []
    for i, (ans, want) in enumerate(zip(answers, expected)):
        if not isinstance(ans, dict):
            problems.append(f"select {i}: {ans!r}")
        elif ans.get("oc") != want or ans.get("source") != "model":
            problems.append(
                f"select {i}: served {ans.get('oc')}/{ans.get('source')}, "
                f"artifact says {want}/model"
            )
    return problems


def predict_problems(answers, expected) -> "list[str]":
    """Served predictions equal the artifact's direct model call."""
    problems = []
    for i, (ans, want) in enumerate(zip(answers, expected)):
        if not isinstance(ans, float) or not math.isfinite(ans):
            problems.append(f"predict {i}: {ans!r}")
        elif _rel(ans, float(want)) > PREDICT_RTOL:
            problems.append(f"predict {i}: served {ans!r}, model {float(want)!r}")
    return problems


def degraded_problems(answers) -> "list[str]":
    """Each degraded answer is a valid OC from the ``analytical`` rung."""
    from repro.optimizations.combos import OC_BY_NAME

    problems = []
    for i, ans in enumerate(answers):
        if not isinstance(ans, dict):
            problems.append(f"degraded {i}: {ans!r}")
        elif (
            ans.get("oc") not in OC_BY_NAME
            or ans.get("source") != "fallback"
            or ans.get("rung") != "analytical"
        ):
            problems.append(
                f"degraded {i}: {ans.get('oc')}/{ans.get('source')}/"
                f"{ans.get('rung')}, want a valid OC from fallback/analytical"
            )
    return problems
