"""Engine throughput measurement: points/second and campaign measurements/second.

Two figures per backend kind:

- :func:`run_throughput_bench` -- one large batch: a representative
  campaign slice (random stencils x every OC x sampled settings,
  crashes included) evaluated in a single ``evaluate_batch`` with cold
  per-process model caches.  This isolates per-point engine cost.
- :func:`run_campaign_bench` -- the end-to-end figure: a real
  :class:`~repro.profiling.CampaignRunner` campaign, so the batch shapes
  are whatever lockstep tuning actually sends (recorded as a histogram).
  This is the number that picks the ``repro profile`` default backend;
  the single-batch figure alone overstates the vector backend, whose
  fixed per-call cost only amortizes over large batches.

Used by ``benchmarks/test_engine_throughput.py`` (asserts the vectorized
speedup and the default backend) and ``tools/bench_engine.py`` (writes
``BENCH_engine.json``).
"""

from __future__ import annotations

import math
import os
import platform
import time

import numpy as np

from ..optimizations.combos import ALL_OCS
from ..optimizations.kernelmodel import (
    _bm_overlap_factor,
    _row_accesses,
    build_profile,
)
from ..optimizations.params import default_setting, sample_setting
from ..stencil.generator import generate_population
from . import make_backend
from .core import BackendBase, EvalRequest

#: The batch-size histogram's bins: (largest size in the bin, label).
BATCH_BINS = ((1, "1"), (4, "2-4"), (16, "5-16"), (64, "17-64"), (256, "65-256"))

#: GPUs of the campaign figure: one NVIDIA part and one wavefront-64 AMD
#: part, since tuning behaves differently there.
CAMPAIGN_GPUS = ("V100", "MI210")


def make_workload(
    ndim: int = 2,
    n_stencils: int = 3,
    settings_per_oc: int = 8,
    seed: int = 123,
) -> "list[EvalRequest]":
    """A campaign-shaped request list (stencils x OCs x settings)."""
    rng = np.random.default_rng(seed)
    requests: list[EvalRequest] = []
    for stencil in generate_population(ndim, n_stencils, seed=seed):
        for oc in ALL_OCS:
            settings = [default_setting()] + [
                sample_setting(oc, stencil.ndim, rng)
                for _ in range(settings_per_oc - 1)
            ]
            requests.extend(EvalRequest(stencil, oc, s) for s in settings)
    return requests


def _clear_model_caches() -> None:
    """Reset per-process memoization so every backend starts cold.

    Tolerates functions whose ``lru_cache`` has been refactored away --
    the bench only cares that whatever caches *do* exist start cold.
    """
    for fn in (build_profile, _bm_overlap_factor, _row_accesses):
        clear = getattr(fn, "cache_clear", None)
        if clear is not None:
            clear()


def host_record() -> dict:
    """What a reader needs to judge a timing: the host and the method."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


class _BatchRecorder(BackendBase):
    """Pass-through backend that records every batch's size."""

    def __init__(self, inner):
        self.inner = inner
        self.sizes: list[int] = []

    spec = property(lambda self: self.inner.spec)
    sigma = property(lambda self: self.inner.sigma)
    info = property(lambda self: self.inner.info)

    def evaluate_batch(self, requests):
        self.sizes.append(len(requests))
        return self.inner.evaluate_batch(requests)


def batch_histogram(sizes: "list[int]") -> dict:
    """Batch counts per size bin (``"1"``, ``"2-4"``, ..., ``">256"``)."""
    hist = dict.fromkeys([label for _, label in BATCH_BINS] + [">256"], 0)
    for n in sizes:
        hist[next((label for hi, label in BATCH_BINS if n <= hi), ">256")] += 1
    return hist


def run_campaign_bench(quick: bool = False) -> dict:
    """End-to-end campaign measurements/second for every backend kind.

    Each of ``scalar``, ``vector`` and ``cached`` runs the same
    sequential :class:`CampaignRunner` campaign (random 2-D stencils x
    all OCs x ``n_settings=5`` on :data:`CAMPAIGN_GPUS`) from cold model
    caches; the figure is measurements recorded per second, best of
    ``k`` runs interleaved across kinds.  One extra untimed pass through
    :func:`~repro.profiling.runner.run_unit` records the engine batch
    sizes the lockstep driver sends.  ``default`` names the backend
    ``repro profile`` uses when none is given.  Returns a JSON-ready
    document::

        {"host", "timing", "gpus", "n_stencils", "n_settings",
         "n_measurements", "default", "fastest",
         "backends": {kind: {"seconds", "measurements_per_sec",
                             "speedup_vs_scalar", "engine_batches",
                             "batch_p50", "batch_histogram"}}}
    """
    from ..cli import build_parser
    from ..gpu.faults import FaultConfig
    from ..profiling.runner import (
        CampaignHealth,
        CampaignRunner,
        RetryPolicy,
        SimClock,
        build_search,
        run_unit,
    )

    gpus, kinds = CAMPAIGN_GPUS, ("scalar", "vector", "cached")
    stencils = generate_population(2, 2 if quick else 4, seed=5)
    n_settings, seed, reps = 5, 3, (1 if quick else 3)
    doc: dict = {
        "host": host_record(),
        "timing": f"min of {reps} cold runs (time.perf_counter)",
        "gpus": list(gpus),
        "n_stencils": len(stencils),
        "n_settings": n_settings,
        "default": build_parser().parse_args(
            ["profile", "--ndim", "2", "-o", "unused.json"]
        ).backend,
        "backends": {},
    }
    # Reps interleave the kinds, so drift in host speed hits all alike.
    best = dict.fromkeys(kinds, math.inf)
    for _ in range(reps):
        for kind in kinds:
            _clear_model_caches()
            runner = CampaignRunner(
                stencils, gpus=gpus, n_settings=n_settings, seed=seed,
                backend=kind,
            )
            start = time.perf_counter()
            campaign = runner.run()
            best[kind] = min(best[kind], time.perf_counter() - start)
    n_meas = sum(len(campaign.measurements(g)) for g in gpus)
    doc["n_measurements"] = n_meas
    for kind in kinds:
        sizes: list[int] = []
        for gpu in gpus:
            policy, clock, health = RetryPolicy(), SimClock(), CampaignHealth()
            search = build_search(
                kind, gpu, 0.03, FaultConfig(), seed, n_settings, policy,
                clock, health,
            )
            search.backend = recorder = _BatchRecorder(search.backend)
            for sid, stencil in enumerate(stencils):
                run_unit(
                    search, gpu, stencil, sid, runner.ocs, policy, clock, health
                )
            sizes += recorder.sizes
        doc["backends"][kind] = {
            "seconds": best[kind],
            "measurements_per_sec": n_meas / best[kind],
            "engine_batches": len(sizes),
            "batch_p50": float(np.median(sizes)),
            "batch_histogram": batch_histogram(sizes),
        }
    rows = doc["backends"]
    for row in rows.values():
        row["speedup_vs_scalar"] = rows["scalar"]["seconds"] / row["seconds"]
    doc["fastest"] = max(rows, key=lambda k: rows[k]["measurements_per_sec"])
    return doc


def run_throughput_bench(quick: bool = False, gpu: str = "V100") -> dict:
    """Measure evaluation throughput of every backend kind.

    Returns a JSON-ready document::

        {"gpu", "n_points", "quick",
         "backends": {kind: {"seconds", "points_per_sec",
                             "speedup_vs_scalar"}},
         "cached_replay": {...}}   # second pass over a warm cache

    ``quick`` shrinks the workload for CI smoke runs.
    """
    workload = make_workload(
        n_stencils=1 if quick else 3,
        settings_per_oc=4 if quick else 32,
    )
    reps = 1 if quick else 3
    doc: dict = {
        "host": host_record(),
        "timing": f"min of {reps} runs (time.perf_counter)",
        "gpu": gpu,
        "n_points": len(workload),
        "quick": bool(quick),
        "backends": {},
    }

    def measure(backend, prepare) -> float:
        """Best-of-``reps`` wall time; ``prepare`` runs before every rep
        (cold runs reset the caches so each rep measures a fresh
        campaign start; the replay run keeps them warm)."""
        best = math.inf
        for _ in range(reps):
            prepare()
            start = time.perf_counter()
            results = backend.evaluate_batch(workload)
            elapsed = time.perf_counter() - start
            assert len(results) == len(workload)
            best = min(best, elapsed)
        return best

    for kind in ("scalar", "vector", "cached"):
        backend = make_backend(kind, gpu)

        def cold():
            _clear_model_caches()
            if kind == "cached":
                backend.clear()

        seconds = measure(backend, cold)
        doc["backends"][kind] = {
            "seconds": seconds,
            "points_per_sec": len(workload) / seconds,
        }
        if kind == "cached":
            backend.clear()
            backend.evaluate_batch(workload)  # warm the memo cache
            replay = measure(backend, lambda: None)
            doc["cached_replay"] = {
                "seconds": replay,
                "points_per_sec": len(workload) / replay,
            }

    scalar_s = doc["backends"]["scalar"]["seconds"]
    for kind, row in doc["backends"].items():
        row["speedup_vs_scalar"] = scalar_s / row["seconds"]
    doc["cached_replay"]["speedup_vs_scalar"] = (
        scalar_s / doc["cached_replay"]["seconds"]
    )
    return doc


def run_parallel_bench(
    quick: bool = False,
    gpu: str = "V100",
    workers_sweep: "tuple[int, ...]" = (1, 2, 4),
    context: str = "spawn",
    transports: "tuple[str, ...]" = ("shm", "pickle"),
) -> dict:
    """Worker-count sweep per transport + sharded campaigns.

    Returns a JSON-ready document::

        {"gpu", "quick", "cpu_count", "n_points",
         "backend_sweep": {transport: {workers: {"seconds",
                                                 "points_per_sec",
                                                 "speedup_vs_1"}}},
         "shm_vs_pickle": {workers: shm_points_per_sec /
                                    pickle_points_per_sec},
         "campaign": {"n_units", "n_measurements",
                      "sweep": {workers: {"seconds",
                                          "measurements_per_sec",
                                          "speedup_vs_1"}}}}

    Speedups are relative to ``workers=1`` of the same code path (the
    pool-free bypass for the backend, the sequential runner for the
    campaign), so they isolate the win from process-level parallelism;
    ``shm_vs_pickle`` compares the two transports at equal worker
    counts.  The campaign sweep shards whole (gpu, stencil) units, a
    code path where only profile rows cross the pipe, so it carries no
    transport axis.  Workers beyond ``cpu_count`` cannot help -- the
    host's CPU count is recorded so readers can judge the numbers.
    """
    from ..profiling.runner import CampaignRunner
    from .parallel import BackendSpec, ParallelBackend

    workload = make_workload(
        n_stencils=1 if quick else 3,
        settings_per_oc=4 if quick else 16,
    )
    reps = 1 if quick else 3
    doc: dict = {
        "gpu": gpu,
        "quick": bool(quick),
        "cpu_count": os.cpu_count() or 1,
        "n_points": len(workload),
        "backend_sweep": {},
    }

    # Untimed warm-up: the first measured configuration must not pay
    # process-wide one-time costs (imports, stencil interning) the later
    # ones inherit.  The lru caches in ``_clear_model_caches`` are still
    # reset before every rep, so reps stay cache-cold and comparable.
    make_backend("vector", gpu).evaluate_batch(workload)

    for transport in transports:
        sweep: dict = {}
        for workers in workers_sweep:
            backend = ParallelBackend(
                BackendSpec(kind="vector", gpu=gpu),
                workers=workers,
                context=context,
                transport=transport,
            )
            try:
                best = math.inf
                for _ in range(reps):
                    _clear_model_caches()
                    start = time.perf_counter()
                    results = backend.evaluate_batch(workload)
                    elapsed = time.perf_counter() - start
                    assert len(results) == len(workload)
                    best = min(best, elapsed)
            finally:
                backend.close()
            sweep[str(workers)] = {
                "seconds": best,
                "points_per_sec": len(workload) / best,
            }
        base = sweep[str(workers_sweep[0])]["seconds"]
        for row in sweep.values():
            row["speedup_vs_1"] = base / row["seconds"]
        doc["backend_sweep"][transport] = sweep
    if "shm" in doc["backend_sweep"] and "pickle" in doc["backend_sweep"]:
        doc["shm_vs_pickle"] = {
            w: (
                doc["backend_sweep"]["shm"][w]["points_per_sec"]
                / doc["backend_sweep"]["pickle"][w]["points_per_sec"]
            )
            for w in doc["backend_sweep"]["shm"]
        }

    stencils = generate_population(2, 2 if quick else 6, seed=7)
    sweep: dict = {}
    n_meas = 0
    for workers in workers_sweep:
        best = math.inf
        for _ in range(1 if quick else 2):
            runner = CampaignRunner(
                stencils,
                gpus=(gpu,),
                n_settings=2 if quick else 4,
                seed=7,
                backend="vector",
                workers=workers,
                mp_context=context,
            )
            _clear_model_caches()
            start = time.perf_counter()
            campaign = runner.run()
            elapsed = time.perf_counter() - start
            n_meas = len(campaign.measurements(gpu))
            best = min(best, elapsed)
        sweep[str(workers)] = {
            "seconds": best,
            "measurements_per_sec": n_meas / best,
        }
    base = sweep[str(workers_sweep[0])]["seconds"]
    for row in sweep.values():
        row["speedup_vs_1"] = base / row["seconds"]
    doc["campaign"] = {
        "n_units": len(stencils),
        "n_measurements": n_meas,
        "sweep": sweep,
    }
    return doc
