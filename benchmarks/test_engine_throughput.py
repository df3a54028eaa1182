"""Engine throughput: batched evaluation vs the scalar reference.

The batched evaluation engine exists to make profiling campaigns cheap:
``repro profile`` spends essentially all of its time evaluating (stencil,
OC, setting) points, so points/second through a backend *is* campaign
throughput.  This bench times every backend kind over a representative
campaign slice -- random stencils x all 30 OCs x sampled frontiers,
crashes included, cold model caches -- and asserts the engine's headline
guarantees: the vectorized backend clears >=5x the scalar path, a cold
(all-miss) cached pass stays within 0.9x of the bare vector throughput,
and a warm cache replays the slice one to two orders of magnitude faster
still.  The worker sweep asserts the multi-core campaign win where the
host actually has the cores for it.
"""

import os
import sys
import time

import numpy as np

from repro.engine import make_backend
from repro.engine.bench import (
    make_workload,
    run_campaign_bench,
    run_parallel_bench,
    run_throughput_bench,
)
from repro.ml.nn import ConvND

from conftest import print_table

_CTX = "fork" if sys.platform.startswith("linux") else "spawn"


def test_engine_throughput(benchmark):
    doc = run_throughput_bench()

    rows = [
        [kind, row["seconds"], row["points_per_sec"], row["speedup_vs_scalar"]]
        for kind, row in doc["backends"].items()
    ]
    replay = doc["cached_replay"]
    rows.append(
        [
            "cached (replay)",
            replay["seconds"],
            replay["points_per_sec"],
            replay["speedup_vs_scalar"],
        ]
    )
    print_table(
        f"Engine throughput ({doc['gpu']}, {doc['n_points']} points)",
        ["backend", "seconds", "points/sec", "speedup"],
        rows,
    )

    # The engine's acceptance bar: >=5x points/sec over the scalar path
    # on a representative campaign slice (ISSUE 2), and cache replay far
    # beyond that.
    assert doc["backends"]["vector"]["speedup_vs_scalar"] >= 5.0
    assert (
        replay["speedup_vs_scalar"]
        > doc["backends"]["vector"]["speedup_vs_scalar"]
    )
    # A cold cached pass is all misses plus memo bookkeeping; the
    # interned-key miss path keeps that overhead under ~10%.  Shared
    # runners add +-10% timer noise, so gate on the best paired trial
    # (vector and cached timed back to back under the same load).
    from repro.engine.bench import _clear_model_caches

    workload32 = make_workload(settings_per_oc=32)
    vec = make_backend("vector", "V100")
    cac = make_backend("cached", "V100")
    best_ratio = 0.0
    for _ in range(5):
        _clear_model_caches()
        start = time.perf_counter()
        vec.evaluate_batch(workload32)
        v = time.perf_counter() - start
        _clear_model_caches()
        cac.clear()
        start = time.perf_counter()
        cac.evaluate_batch(workload32)
        c = time.perf_counter() - start
        best_ratio = max(best_ratio, v / c)
        if best_ratio >= 0.9:
            break
    assert best_ratio >= 0.9
    # Sanity: all backends saw the same number of points.
    assert doc["n_points"] == len(make_workload(settings_per_oc=32))

    # Representative timing unit: one vectorized batch over a quick slice.
    workload = make_workload(n_stencils=1, settings_per_oc=4)
    be = make_backend("vector", "V100")
    benchmark(be.evaluate_batch, workload)


def test_campaign_throughput_per_backend(benchmark):
    """The end-to-end figure that picks the ``repro profile`` default."""
    doc = run_campaign_bench()
    rows = doc["backends"]
    print_table(
        f"Campaign throughput ({'+'.join(doc['gpus'])}, "
        f"{doc['n_measurements']} measurements)",
        ["backend", "seconds", "measurements/sec", "speedup", "batch p50"],
        [
            [kind, row["seconds"], row["measurements_per_sec"],
             row["speedup_vs_scalar"], row["batch_p50"]]
            for kind, row in rows.items()
        ],
    )
    default = rows[doc["default"]]
    # Lockstep tuning merges every OC's frontier: batches are
    # campaign-sized, not the 1-4-point frontiers of one cell.
    assert default["batch_p50"] > 4
    # The default must beat the per-point reference end to end -- the
    # single-batch figure above cannot show this.
    assert default["speedup_vs_scalar"] > 1.0

    from repro.optimizations.combos import ALL_OCS
    from repro.profiling import RandomSearch
    from repro.stencil import get

    search = RandomSearch(make_backend("vector", "V100"), 5, seed=3)
    benchmark(search.tune_ocs, get("star2d2r"), 0, ALL_OCS)


def test_parallel_worker_sweep(benchmark):
    doc = run_parallel_bench(context=_CTX)

    rows = [
        [f"backend/{t}", w, row["seconds"], row["points_per_sec"],
         row["speedup_vs_1"]]
        for t, sweep in doc["backend_sweep"].items()
        for w, row in sweep.items()
    ] + [
        ["campaign", w, row["seconds"], row["measurements_per_sec"],
         row["speedup_vs_1"]]
        for w, row in doc["campaign"]["sweep"].items()
    ]
    print_table(
        f"Worker sweep ({doc['gpu']}, {doc['cpu_count']} CPUs, "
        f"{doc['n_points']} points)",
        ["path", "workers", "seconds", "throughput", "speedup"],
        rows,
    )

    # Multi-core acceptance bars: a 4-worker sharded campaign clears
    # >=2.5x the single-process vector runner, the shared-memory
    # transport clears >=2.5x its own 1-worker bypass at 4 workers and
    # >=1.5x the pickle codec at equal workers.  Only meaningful where
    # the host actually has >=4 CPUs -- a 1-CPU container cannot speed
    # anything up by adding processes, so there the sweep just records
    # honest ~1x numbers (cpu_count travels in the JSON for readers).
    if (os.cpu_count() or 1) >= 4:
        assert doc["campaign"]["sweep"]["4"]["speedup_vs_1"] >= 2.5
        assert doc["backend_sweep"]["shm"]["4"]["speedup_vs_1"] >= 2.5
        assert doc["shm_vs_pickle"]["4"] >= 1.5
    # Everywhere: sharding must not corrupt anything -- every sweep
    # point saw the full workload (asserted inside the bench) and
    # produced positive throughput.
    for sweep in doc["backend_sweep"].values():
        for row in sweep.values():
            assert row["points_per_sec"] > 0
    for row in doc["campaign"]["sweep"].values():
        assert row["measurements_per_sec"] > 0

    # Timing unit: a sharded batch through a persistent 2-worker pool.
    from repro.engine import BackendSpec, ParallelBackend

    workload = make_workload(n_stencils=1, settings_per_oc=4)
    with ParallelBackend(
        BackendSpec(kind="vector", gpu="V100"), workers=2, context=_CTX
    ) as be:
        be.evaluate_batch(workload)  # warm the pool before timing
        benchmark(be.evaluate_batch, workload)


def test_convnd_index_build(benchmark):
    """The vectorized gather-table build vs the per-element reference.

    ConvND builds its im2col index table once per layer; for a 3-channel
    9^3 input that table has ~one million entries and the Python loop
    dominated ConvNet construction.  The outer-sum build must be at
    least 3x faster (observed ~100x) while producing the identical
    table (parity is asserted in tier-1 tests).
    """
    rng = np.random.default_rng(0)
    conv = ConvND(3, 2, (9, 9, 9), 3, rng)

    start = time.perf_counter()
    vec = conv._build_index()
    vec_s = time.perf_counter() - start
    start = time.perf_counter()
    loop = conv._build_index_loop()
    loop_s = time.perf_counter() - start

    print_table(
        "ConvND index build (3 channels, 9x9x9, k=3)",
        ["variant", "seconds", "entries/sec"],
        [
            ["vectorized", vec_s, vec.size / vec_s],
            ["loop", loop_s, loop.size / loop_s],
        ],
    )
    assert np.array_equal(vec, loop)
    assert loop_s >= 3.0 * vec_s

    benchmark(conv._build_index)
