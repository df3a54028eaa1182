"""Analytical-model benchmark recorder (developer / CI tool).

Runs the selection and regression benches of
``repro.analysis.bench`` on held-out stencils and reports:

- selection accuracy (top-1 / near-optimal / geomean slowdown) of the
  statically-autotuned :class:`~repro.ml.AnalyticalSelector` against
  the heuristic ladder and the trained GBDT selector;
- held-out runtime fidelity (PCC / log-PCC / MAPE) of the plain GBDT
  regressor, the hybrid regressor (GBDT + analytical metric columns)
  and the raw static estimate;
- the host record and the analytical selector's cost: total ``wall_s``
  per selector and the median cold select per (stencil, GPU).

Both sections are written as one JSON document --
``BENCH_analytical.json`` at the repo root by convention, so the
analytical model's quality trajectory is machine-readable across PRs.

Run: python tools/bench_analytical.py [--quick] [--seed N] [-o PATH]
"""

import argparse
import json
import sys

from repro.analysis.bench import run_analytical_bench


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--quick",
        action="store_true",
        help="small workload for CI smoke runs (fewer stencils, one GPU)",
    )
    ap.add_argument("--seed", type=int, default=29, help="campaign seed")
    ap.add_argument(
        "-o",
        "--output",
        default="BENCH_analytical.json",
        help="where to write the JSON document",
    )
    args = ap.parse_args(argv)

    doc = run_analytical_bench(quick=args.quick, seed=args.seed)

    sel = doc["selection"]
    print(
        f"selection ({sel['n_test_stencils']} held-out stencils x "
        f"{len(sel['gpus'])} GPUs x {len(sel['ocs'])} OCs, "
        f"regret <= {sel['regret_threshold']:.2f})"
    )
    for name, row in sorted(
        sel["selectors"].items(), key=lambda kv: kv[1]["geomean_slowdown"]
    ):
        print(
            f"  {name:17s} top1 {row['top1']:.3f}  "
            f"near-opt {row['near_optimal']:.3f}  "
            f"geomean {row['geomean_slowdown']:.4f}x  "
            f"({row['wall_s']:.2f}s)"
        )
    print(
        "  analytical select p50 "
        f"{sel['selectors']['analytical']['select_p50_s']:.3f}s per (stencil, GPU)"
    )

    reg = doc["regression"]
    print("regression (held-out runtime fidelity)")
    for name, row in sorted(
        reg["predictors"].items(), key=lambda kv: -kv[1]["pcc"]
    ):
        print(f"  {name:11s} PCC {row['pcc']:.4f}  log-PCC {row['log_pcc']:.4f}")

    with open(args.output, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
