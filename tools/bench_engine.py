"""Engine throughput recorder (developer / CI tool).

Measures points/second through every backend kind on the representative
campaign slice, and end-to-end campaign measurements/second per backend
kind with the engine batch-size histogram (see ``repro.engine.bench``);
sweeps worker counts for the parallel backend and the sharded campaign
runner; and writes the results as JSON -- ``BENCH_engine.json`` and
``BENCH_parallel.json`` at the repo root by convention, so the perf
trajectory of the hot path is machine-readable across PRs.

Run: python tools/bench_engine.py [--quick] [--gpu NAME] [-o PATH]
         [--parallel-output PATH] [--skip-parallel] [--context CTX]
"""

import argparse
import json
import sys

from repro.engine.bench import (
    run_campaign_bench,
    run_parallel_bench,
    run_throughput_bench,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--quick",
        action="store_true",
        help="small workload for CI smoke runs (no speedup guarantee)",
    )
    ap.add_argument("--gpu", default="V100", help="GPU spec to simulate")
    ap.add_argument(
        "-o",
        "--output",
        default="BENCH_engine.json",
        help="where to write the single-process JSON document",
    )
    ap.add_argument(
        "--parallel-output",
        default="BENCH_parallel.json",
        help="where to write the worker-sweep JSON document",
    )
    ap.add_argument(
        "--skip-parallel",
        action="store_true",
        help="only run the single-process backend bench",
    )
    ap.add_argument(
        "--context",
        default="fork" if sys.platform.startswith("linux") else "spawn",
        choices=("fork", "spawn"),
        help="multiprocessing start method for the worker sweep",
    )
    args = ap.parse_args(argv)

    doc = run_throughput_bench(quick=args.quick, gpu=args.gpu)
    doc["campaign"] = run_campaign_bench(quick=args.quick)
    with open(args.output, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")

    print(f"engine throughput ({doc['gpu']}, {doc['n_points']} points)")
    for kind, row in doc["backends"].items():
        print(
            f"  {kind:8s} {row['points_per_sec']:12,.0f} points/sec "
            f"({row['speedup_vs_scalar']:.2f}x scalar)"
        )
    replay = doc["cached_replay"]
    print(
        f"  {'replay':8s} {replay['points_per_sec']:12,.0f} points/sec "
        f"({replay['speedup_vs_scalar']:.2f}x scalar)"
    )
    camp = doc["campaign"]
    print(
        f"campaign ({'+'.join(camp['gpus'])}, {camp['n_stencils']} stencils x "
        f"all OCs, {camp['n_measurements']} measurements, {camp['timing']})"
    )
    for kind, row in camp["backends"].items():
        print(
            f"  {kind:8s} {row['measurements_per_sec']:12,.0f} measurements/sec "
            f"({row['speedup_vs_scalar']:.2f}x scalar, batch p50 "
            f"{row['batch_p50']:g}, {row['engine_batches']} batches)"
        )
    print(f"  default {camp['default']}, fastest {camp['fastest']}")
    print(f"wrote {args.output}")
    if args.skip_parallel:
        return 0

    par = run_parallel_bench(
        quick=args.quick, gpu=args.gpu, context=args.context
    )
    with open(args.parallel_output, "w") as f:
        json.dump(par, f, indent=2)
        f.write("\n")

    print(
        f"worker sweep ({par['gpu']}, {par['cpu_count']} CPUs, "
        f"{par['n_points']} points, {args.context})"
    )
    for transport, sweep in par["backend_sweep"].items():
        for workers, row in sweep.items():
            print(
                f"  backend/{transport:6s} workers={workers}  "
                f"{row['points_per_sec']:12,.0f} points/sec "
                f"({row['speedup_vs_1']:.2f}x workers=1)"
            )
    for workers, ratio in par.get("shm_vs_pickle", {}).items():
        print(f"  shm vs pickle workers={workers}  {ratio:.2f}x")
    for workers, row in par["campaign"]["sweep"].items():
        print(
            f"  campaign workers={workers}  "
            f"{row['measurements_per_sec']:12,.1f} measurements/sec "
            f"({row['speedup_vs_1']:.2f}x workers=1)"
        )
    print(f"wrote {args.parallel_output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
