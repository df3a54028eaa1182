"""Benchmark command: one workload, end-to-end or traced layer by layer.

    python3 perfbench/run.py --workload campaign-2d --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
its ``src/``; nothing needs installing).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The line
before it is the host record.  Both, and with ``--trace 1`` the spans
as JSON lines, are also kept under ``.perfbench_out/``.  The exit code
is non-zero when any output fails its correctness check.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def git_commit(root: Path) -> "str | None":
    """HEAD of the checkout read from ``.git`` (``None`` outside a git tree)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_record(workload: str, seed: int, backend: str) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "workload": workload,
        "engine_backend": backend,
    }


def main(argv: "list[str] | None" = None) -> int:
    for var in THREAD_VARS:  # before anything loads numpy
        os.environ[var] = "1"
    from harness.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from harness.workloads import Context

    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = Context(
        root=ROOT, work=work, env=dict(os.environ), seed=args.seed,
        seconds=args.seconds, trace=bool(args.trace),
    )
    # SIGTERM unwinds like an exception, so the server subprocess is
    # stopped and the scratch directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        outcome = WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if ctx.trace else "end_to_end"]}
    if set(outcome.metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(outcome.metrics)} do not match BENCHMARK.json {sorted(units)}"
        )
    metrics = {
        name: {"value": float(outcome.metrics[name]), "unit": unit}
        for name, unit in units.items()
    }
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    host = host_record(args.workload, args.seed, outcome.backend)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if ctx.trace:
        ctx.tracer.write_jsonl(outdir / f"{stem}.spans.jsonl")
    (outdir / f"{stem}.json").write_text(
        json.dumps({"host": host, "detail": outcome.detail, "result": result,
                    "problems": outcome.problems},
                   indent=1)
    )
    for problem in outcome.problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"host": host, "detail": outcome.detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
