"""The three workloads, each driven through the program's public entry points.

- ``campaign-2d``: ``repro profile`` through :func:`repro.cli.main`.
- ``tune-3d``: :func:`repro.tuning.tune`, cold cache then warm.
- ``train-serve-2d``: ``repro train`` through :func:`repro.cli.main`,
  then a ``python -m repro serve`` subprocess queried by
  :class:`repro.serve.ServeClient`.

Every workload times its work with tracing off, one unit of work at a
time, each between two timings of a fixed reference loop (see
:meth:`Context.timed`).  With ``trace`` set it instead runs each unit of
work twice on the same inputs, once plain and once inside
:func:`~harness.layers.instrumented` (alternating which goes first), and
reports the per-layer metrics of the traced copies plus the
traced/untraced wall-time ratio.
"""

from __future__ import annotations

import contextlib
import io
import queue
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checks
from .layers import CHECKPOINT_NAME, instrumented, layer_metrics
from .tracing import Tracer

#: Noise level of ``repro profile`` and ``tune()`` (their default).
SIGMA = 0.03

CAMPAIGN_GPUS = ("V100", "MI210")
CAMPAIGN_SETTINGS = 5

TUNE_GPU = "A100"
TUNE_STRATEGIES = ("random", "halving", "genetic")
TUNE_BUDGET = 64

TRAIN_GPUS = ("V100", "A100")
SELECT_GPU = "V100"
#: A GPU with no selector in the registry: its selects take the fallback.
DEGRADED_GPU = "P100"
DEGRADED_POINTS = 12
SERVE_CLIENTS = 2

#: Time :func:`reference_s` took on the host the benchmark was
#: calibrated on; timing metrics are scaled to a host of that speed.
REFERENCE_NOMINAL_S = 0.006

#: What every setup repetition imports in a fresh interpreter.
IMPORT_PROBE = (
    "import repro.cli, repro.engine, repro.profiling, repro.tuning, "
    "repro.serve, repro.ml"
)


@dataclass(frozen=True)
class Scale:
    """Sizes of one run.  :data:`FULL` is the benchmark; tests use tiny ones."""

    #: Set-ups per run: at least this many, and until this share of
    #: ``--seconds`` is spent setting up.
    setup_repeats: int = 3
    setup_share: float = 0.07
    #: Stencils per ``repro profile`` invocation.
    campaign_count: int = 1
    min_invocations: int = 3
    #: Recorded measurements re-measured with the scalar backend, per invocation.
    remeasure: int = 200
    min_rounds: int = 3
    #: OCs per tuned stencil (``None``: all 30).
    tune_ocs: "int | None" = None
    train_count: int = 10
    #: ``repro train`` rounds: at least this many, and until this share
    #: of ``--seconds`` is spent training.
    min_trains: int = 2
    train_share: float = 0.4
    train_settings: int = 2
    max_rows: int = 2000
    pool_size: int = 32
    min_requests: int = 1000
    #: Share of ``--seconds`` the closed serve loop runs for.
    loop_share: float = 0.1
    degraded: int = 13


FULL = Scale()


@dataclass
class Context:
    root: Path  # checkout root (holds src/)
    work: Path  # scratch directory inside the checkout
    env: dict  # environment for subprocesses
    seed: int
    seconds: float
    trace: bool = False
    scale: Scale = FULL
    tracer: Tracer = field(default_factory=Tracer)
    #: Host slowness of every timed unit (see :meth:`timed`).
    hosts: list = field(default_factory=list)

    def timed(self, fn, *args, refs: int = 1):
        """``fn(*args)`` -> ``(result, wall_s, host)``.

        *host* is how much slower than nominal the host ran during the
        call: the mean of *refs* timings of :func:`reference_s` just
        before and as many just after it, over
        :data:`REFERENCE_NOMINAL_S`.  ``wall_s / host`` is the call's
        time on a host of nominal speed.  The shared host this benchmark
        was built on flips between a fast and a ~1.7x slower state
        several times a second, in a mix that drifts over minutes;
        pairing every unit with its own reference timings and taking
        medians over units cancels most of that, where one scale factor
        for a whole run does not.  Long units take more *refs* to
        estimate the mix.  Traced runs skip the reference (host = 1) so
        that it shows neither in coverage nor in overhead.
        """
        if self.trace:
            t0 = time.perf_counter()
            result = fn(*args)
            return result, time.perf_counter() - t0, 1.0
        ref_s = sum(reference_s() for _ in range(refs))
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        ref_s += sum(reference_s() for _ in range(refs))
        host = ref_s / (2 * refs) / REFERENCE_NOMINAL_S
        self.hosts.append(host)
        return result, wall, host


_REF_ARRAY = np.arange(8.0)


def reference_s() -> float:
    """One timing of a fixed loop that uses no program code.

    The geometric mean of two halves: interpreter arithmetic with small
    NumPy calls, and dict building with a keyed sort -- what the
    program spends its time on -- so that it slows down with the
    program when the host does.
    """
    a = _REF_ARRAY
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(1500):
        acc += k * k % 7
        acc += float(np.maximum(a * 1.5 + k, 3.0).sum())
    t1 = time.perf_counter()
    for k in range(300):
        d = {(i, k): (i * 1.5, str(i)) for i in range(40)}
        acc += sum(v[0] for _, v in sorted(d.items(), key=lambda kv: -kv[1][0]))
    t2 = time.perf_counter()
    return ((t1 - t0) * (t2 - t1)) ** 0.5


@dataclass
class Outcome:
    """What a workload reports: metrics (name -> value) and check results."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    problems: list = field(default_factory=list)
    backend: str = ""
    #: The workload's own figures behind the generic metrics (not gated).
    detail: dict = field(default_factory=dict)

    def check(self, attempted: int, problems: "list[str]") -> None:
        self.attempted += attempted
        self.problems.extend(problems)

    @property
    def failed(self) -> int:
        return len(self.problems)

    def finish(
        self, ctx: Context, work_per_s: float, op_p50_ms: float,
        setup_s: float, extra_rss_mb: float = 0.0,
    ) -> "Outcome":
        """The end-to-end metrics, the same five on every workload.

        The three timings are already scaled to a host of nominal speed
        (medians over units of ``wall / host``, see :meth:`Context.timed`);
        the workloads put their raw figures in ``detail``.
        """
        self.detail["host_p50"] = statistics.median(ctx.hosts)
        ok = max(self.attempted - self.failed, 0) / max(self.attempted, 1)
        self.metrics = {
            "work_per_s": work_per_s,
            "op_p50_ms": op_p50_ms,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb() + extra_rss_mb,
            "ok_share": ok,
        }
        return self


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def derive(seed: int, *parts) -> int:
    """A sub-seed of *seed* for the named input, stable across runs."""
    return int(np.random.SeedSequence([seed, *map(_as_int, parts)]).generate_state(1)[0])


def _as_int(part) -> int:
    if isinstance(part, int):
        return part
    return int.from_bytes(str(part).encode()[:8].ljust(8, b"\0"), "little")


def _setup(ctx: Context, build=None):
    """Median set-up time on a nominal host; returns ``(setup_s, last build)``.

    One set-up imports the program in a fresh interpreter (what every
    CLI invocation pays) and, for workloads that need one, builds their
    input with *build(i)*.
    """

    def one(i: int):
        subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ctx.root, env=ctx.env, check=True,
        )
        return build(i) if build is not None else None

    if ctx.trace:  # the traced run reports no set-up time
        return 0.0, one(0)
    sc = ctx.scale
    times, built, spent = [], None, 0.0
    while len(times) < sc.setup_repeats or spent < ctx.seconds * sc.setup_share:
        built, wall, host = ctx.timed(one, len(times), refs=2)
        times.append(wall / host)
        spent += wall
    return statistics.median(times), built


def _cli(argv: "list[str]") -> "tuple[int, str]":
    """``repro.cli.main(argv)`` with its standard output captured."""
    import repro.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = repro.cli.main([str(a) for a in argv])
    return rc, out.getvalue()


def _passes(ctx: Context, index: int):
    """Which copies of unit *index* to run: (traced?, ...) in order."""
    if not ctx.trace:
        return (False,)
    return (False, True) if index % 2 == 0 else (True, False)


@contextlib.contextmanager
def _maybe_traced(ctx: Context, traced: bool, name: str, rid: str):
    if not traced:
        yield
        return
    with instrumented(ctx.tracer), ctx.tracer.span(f"bench.{name}", rid=rid):
        yield


def _overhead(walls: dict) -> float:
    """Traced wall over untraced wall for the same work, minus one."""
    return statistics.mean(walls[True]) / statistics.mean(walls[False]) - 1.0


def _bench_wall(tracer: Tracer) -> float:
    return sum(s.duration for s in tracer.spans if s.layer == "bench")


# ----------------------------------------------------------------------
# campaign-2d
# ----------------------------------------------------------------------
def campaign_2d(ctx: Context) -> Outcome:
    """``repro profile`` on random 2-D stencils x all OCs on V100 and MI210."""
    from repro.cli import build_parser
    from repro.profiling import load_campaign

    setup_s, _ = _setup(ctx)
    out = Outcome()
    rng = np.random.default_rng(derive(ctx.seed, "remeasure"))
    walls = {False: [], True: []}
    recorded = {False: 0, True: 0}  # measurements, per pass kind
    rates, ms_per_measurement = [], []  # nominal host, per untraced invocation
    elapsed, i = 0.0, 0
    while i < ctx.scale.min_invocations or elapsed < ctx.seconds:
        seed_i = derive(ctx.seed, "campaign", i)
        for traced in _passes(ctx, i):
            d = ctx.work / f"campaign-{i}-{int(traced)}"
            d.mkdir()
            argv = [
                "profile", "--ndim", "2", "--count", ctx.scale.campaign_count,
                "--gpus", *CAMPAIGN_GPUS, "--n-settings", CAMPAIGN_SETTINGS,
                "--seed", seed_i, "--checkpoint", d / CHECKPOINT_NAME,
                "-o", d / "campaign.json",
            ]
            with _maybe_traced(ctx, traced, "campaign", f"invocation:{i}"):
                (rc, stdout), wall, host = ctx.timed(_cli, argv)
            elapsed += wall
            walls[traced].append(wall)
            campaign = load_campaign(d / "campaign.json")
            ms = [m for g in campaign.gpus for m in campaign.measurements(g)]
            recorded[traced] += len(ms)
            if not traced:
                rates.append(len(ms) * host / wall)
                ms_per_measurement.append(wall * 1e3 / host / len(ms))
            pick = rng.choice(len(ms), size=min(ctx.scale.remeasure, len(ms)),
                              replace=False)
            out.check(len(ms) + 1, checks.campaign_output_problems(stdout, rc, campaign))
            out.check(0, checks.remeasure_problems(campaign, [ms[k] for k in pick], SIGMA))
            shutil.rmtree(d)
        i += 1
    parsed = build_parser().parse_args(
        ["profile", "--ndim", "2", "-o", "unused.json"]
    )
    out.backend = parsed.backend
    if ctx.trace:
        out.metrics = layer_metrics(
            ctx.tracer, _bench_wall(ctx.tracer), _overhead(walls), recorded[True]
        )
        return out
    out.detail = {
        "measurements_per_s": recorded[False] / sum(walls[False]),
        "invocations": len(walls[False]),
        "invocation_p50_ms": statistics.median(walls[False]) * 1e3,
    }
    return out.finish(
        ctx, statistics.median(rates), statistics.median(ms_per_measurement), setup_s
    )


# ----------------------------------------------------------------------
# tune-3d
# ----------------------------------------------------------------------
def tune_3d(ctx: Context) -> Outcome:
    """``tune()`` on A100 over random 3-D stencils x all OCs, cold then warm."""
    import repro.tuning
    from repro.optimizations.combos import ALL_OCS
    from repro.stencil import generate_population

    setup_s, _ = _setup(ctx)
    out = Outcome()
    ocs = ALL_OCS[: ctx.scale.tune_ocs] if ctx.scale.tune_ocs else ALL_OCS
    n_cells = len(TUNE_STRATEGIES) * len(ocs)
    cold_s, warm_s = [], []  # raw, per untraced round
    cold_rates, warm_rates, cell_ms = [], [], []  # nominal host
    walls = {False: [], True: []}
    elapsed, traced_trials, r = 0.0, 0, 0

    def strategy_block(stencil, strategy, cache_dir):
        """One strategy over every OC: (results, per-cell ms)."""
        results, times_ms = [], []
        for oc in ocs:
            t0 = time.perf_counter()
            results.append(repro.tuning.tune(
                stencil, oc=oc, gpu=TUNE_GPU, strategy=strategy,
                budget=TUNE_BUDGET, seed=ctx.seed, stencil_id=r,
                cache_dir=cache_dir,
            ))
            times_ms.append((time.perf_counter() - t0) * 1e3)
        return results, times_ms

    def one_pass(stencil, cache_dir):
        """Every cell, one timed unit per strategy.

        Returns (results, wall s, s on a nominal host, per-cell nominal ms).
        """
        results, wall, nominal, cell_nominal_ms = [], 0.0, 0.0, []
        for strategy in TUNE_STRATEGIES:
            (block, times_ms), w, host = ctx.timed(
                strategy_block, stencil, strategy, cache_dir
            )
            results += block
            wall += w
            nominal += w / host
            cell_nominal_ms += [t / host for t in times_ms]
        return results, wall, nominal, cell_nominal_ms

    while r < ctx.scale.min_rounds or elapsed < ctx.seconds:
        stencil = generate_population(3, 1, seed=derive(ctx.seed, "tune", r))[0]
        for traced in _passes(ctx, r):
            cache_dir = ctx.work / f"tune-cache-{r}-{int(traced)}"
            with _maybe_traced(ctx, traced, "tune", f"round:{r}"):
                cold, cold_wall, cold_nominal, cell_ms_r = one_pass(stencil, cache_dir)
                warm, warm_wall, warm_nominal, _ = one_pass(stencil, cache_dir)
            elapsed += cold_wall + warm_wall
            walls[traced].append(cold_wall + warm_wall)
            if traced:
                traced_trials += sum(c.trials for c in cold)
            else:
                cold_s.append(cold_wall)
                warm_s.append(warm_wall)
                cold_rates.append(n_cells / cold_nominal)
                warm_rates.append(n_cells / warm_nominal)
                cell_ms += cell_ms_r
            out.check(2 * n_cells, checks.tune_pair_problems(cold, warm))
            shutil.rmtree(cache_dir)
        r += 1
    out.backend = _tune_backend(stencil, ocs[0])
    if ctx.trace:
        out.metrics = layer_metrics(
            ctx.tracer, _bench_wall(ctx.tracer), _overhead(walls), traced_trials
        )
        return out
    cold_rate = statistics.median(cold_rates)
    out.detail = {
        "cells_per_s_cold": n_cells * len(cold_s) / sum(cold_s),
        "cells_per_s_warm": n_cells * len(warm_s) / sum(warm_s),
        "cells_per_s_warm_nominal": statistics.median(warm_rates),
        "rounds": len(cold_s),
    }
    return out.finish(ctx, cold_rate, statistics.median(cell_ms), setup_s)


def _tune_backend(stencil, oc) -> str:
    """The backend ``tune()`` builds when given only a GPU (one-trial probe)."""
    import repro.tuning

    tracer = Tracer()
    with instrumented(tracer):
        repro.tuning.tune(stencil, oc=oc, gpu=TUNE_GPU, budget=1)
    return next(
        s.attrs["backend"] for s in tracer.spans if s.name == "engine.evaluate_batch"
    )


# ----------------------------------------------------------------------
# train-serve-2d
# ----------------------------------------------------------------------
@dataclass
class _Request:
    kind: str  # "select" | "predict"
    stencil: int  # index into the pool
    oc: str = ""
    setting: object = None
    gpu: str = SELECT_GPU


def _request_plan(seed: int, pool_size: int, settings, n: int) -> "list[_Request]":
    """A client's request sequence: selects and predicts over a pool with repeats."""
    from repro.gpu.specs import ALL_GPU_ORDER

    rnd = random.Random(seed)
    plan = []
    for _ in range(n):
        stencil = rnd.randrange(pool_size)
        if rnd.random() < 0.5:
            plan.append(_Request("select", stencil))
        else:
            oc, setting = rnd.choice(settings)
            plan.append(
                _Request("predict", stencil, oc, setting, rnd.choice(ALL_GPU_ORDER))
            )
    return plan


def _distinct_stencils(n: int, seed: int, exclude) -> list:
    """*n* distinct random 2-D stencils of order 2 with :data:`DEGRADED_POINTS` points.

    The analytical rung's cost grows with the point count, so fixing it
    keeps the degraded phase's latency a property of the code rather
    than of which stencils a seed happened to draw.
    """
    from repro.stencil.generator import generate_stencil

    rng = np.random.default_rng(seed)
    seen = {s.cache_key() for s in exclude}
    out = []
    while len(out) < n:
        s = generate_stencil(2, 2, rng)
        if s.nnz == DEGRADED_POINTS and s.cache_key() not in seen:
            seen.add(s.cache_key())
            out.append(s)
    return out


class _Server:
    """A ``python -m repro serve`` subprocess on an ephemeral port."""

    def __init__(self, ctx: Context, registry: Path):
        with open(registry.parent / f"{registry.name}.serve.log", "w") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", "--registry",
                    str(registry), "--port", "0", "--seed", str(ctx.seed),
                ],
                cwd=ctx.root, env=ctx.env, text=True,
                stdout=subprocess.PIPE, stderr=log,
            )
        self._lines: "queue.Queue[str]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self.url = self._wait_ready(timeout_s=60.0)
        except BaseException:
            self.kill()
            raise

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put("")

    def _wait_ready(self, timeout_s: float) -> str:
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                line = self._lines.get(timeout=max(deadline - time.monotonic(), 0.01))
            except queue.Empty:
                raise RuntimeError("repro serve did not come up") from None
            if line == "":
                raise RuntimeError("repro serve exited before serving")
            if line.startswith("serving on "):
                return line.split()[2]

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self, timeout_s: float = 30.0) -> int:
        """SIGTERM (graceful drain), then wait for the exit code."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.kill()
            return -1
        self._reader.join(timeout=5.0)
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def _serve_phase(ctx, tracer, traced, registry, pool, plans, degraded) -> dict:
    """Start the server, run the closed loop and the degraded phase, stop."""
    from repro.profiling.storage import stencil_to_dict
    from repro.serve import ServeClient

    docs = [stencil_to_dict(s) for s in pool]
    span = tracer.span if traced else (lambda *a, **k: contextlib.nullcontext())
    with span("serve.start"):
        server = _Server(ctx, registry)
    try:
        results: "list[list]" = [[] for _ in plans]
        per_thread = max(ctx.scale.min_requests // len(plans), 1)
        loop_s = ctx.seconds * ctx.scale.loop_share

        def client_loop(tid: int) -> None:
            client = ServeClient(server.url, timeout_s=60.0)
            plan, sink = plans[tid], results[tid]
            deadline = time.perf_counter() + loop_s
            n = 0
            while n < per_thread or time.perf_counter() < deadline:
                req = plan[n % len(plan)]
                with span(f"serve.{req.kind}", rid=f"req:{tid}/{n}"):
                    t0 = time.perf_counter()
                    try:
                        if req.kind == "select":
                            ans = client.select(docs[req.stencil], req.gpu)
                        else:
                            ans = client.predict(
                                docs[req.stencil], req.oc, req.gpu,
                                setting=dict(req.setting),
                            )
                    except Exception as e:  # noqa: BLE001 - counted as failed
                        ans = e
                    sink.append((req, ans, time.perf_counter() - t0))
                n += 1

        threads = [
            threading.Thread(target=client_loop, args=(t,)) for t in range(len(plans))
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        loop_wall = time.perf_counter() - t0
        client = ServeClient(server.url, timeout_s=120.0)
        with span("serve.stats"):
            after_loop = client.stats()

        def degraded_select(doc: dict):
            try:
                return client.select(doc, DEGRADED_GPU)
            except Exception as e:  # noqa: BLE001 - counted as failed
                return e

        fallback = []  # (answer, wall_s, host)
        for k, s in enumerate(degraded):
            with span("analysis.fallback", rid=f"degraded:{k}"):
                fallback.append(ctx.timed(degraded_select, stencil_to_dict(s), refs=4))
        with span("serve.stats"):
            after_all = client.stats()
        rss = server.peak_rss_mb()
    finally:
        with span("serve.stop"):
            rc = server.stop()
    return {
        "loop": [item for sink in results for item in sink],
        "loop_wall": loop_wall,
        "fallback": fallback,
        "stats": (after_loop, after_all),
        "rc": rc,
        "rss_mb": rss,
    }


def _latency_mean_delta(before: dict, after: dict, endpoint: str) -> float:
    """Mean server-side latency (ms) of the requests between two snapshots."""
    a = after["latency"].get(endpoint, {"count": 0, "mean_ms": 0.0})
    b = before["latency"].get(endpoint, {"count": 0, "mean_ms": 0.0})
    n = a["count"] - b["count"]
    return (a["mean_ms"] * a["count"] - b["mean_ms"] * b["count"]) / n if n else 0.0


def _serve_layers(serve: dict, client_p50_ms: float) -> dict:
    after_loop, after_all = serve["stats"]
    lat = after_loop["latency"]
    n = sum(lat[e]["count"] for e in lat)
    server_p50 = sum(lat[e]["p50_ms"] * lat[e]["count"] for e in lat) / n if n else 0.0
    rungs = after_all.get("fallback_rungs", {})
    return {
        "serve.batches": after_loop["batches"]["count"],
        "serve.mean_batch": after_loop["batches"]["mean_size"],
        "serve.feature_cache_hit_rate": after_loop["feature_cache"]["hit_rate"],
        "serve.server_p50_ms": server_p50,
        "serve.http_overhead_ms": client_p50_ms - server_p50,
        "serve.model_hits": after_all["model_hits"],
        "serve.shed": after_all["shed"] + after_all["deadline_misses"],
        "serve.errors": after_all["errors_total"],
        "serve.fallbacks_analytical": rungs.get("analytical", 0),
        "serve.fallbacks_heuristic": sum(
            v for k, v in rungs.items() if k != "analytical"
        ),
        "analysis.fallback_server_ms": _latency_mean_delta(after_loop, after_all, "select"),
    }


def _artifacts(registry: Path) -> tuple:
    """The (selector, predictor) artifacts ``repro train`` published."""
    from repro.serve import ModelRegistry

    reg = ModelRegistry(registry)
    arts = [reg.load(name) for name in reg.names()]
    return (
        next(a for a in arts if a.kind == "selector"),
        next(a for a in arts if a.kind == "predictor"),
    )


def _check_serve(out: Outcome, serve: dict, selector, predictor, pool) -> None:
    loop = serve["loop"]
    sel = [(req, ans) for req, ans, _ in loop if req.kind == "select"]
    pred = [(req, ans) for req, ans, _ in loop if req.kind == "predict"]
    picks = checks.expected_selections(selector, pool)
    out.check(len(sel), checks.select_problems(
        [ans for _, ans in sel], [picks[req.stencil] for req, _ in sel]
    ))

    def key(r: _Request) -> tuple:
        return (r.stencil, r.oc, r.setting.as_tuple(), r.gpu)

    unique = {key(r): (pool[r.stencil], r.oc, r.setting, r.gpu) for r, _ in pred}
    want = dict(zip(unique, checks.expected_predictions(predictor, list(unique.values()))))
    out.check(len(pred), checks.predict_problems(
        [ans for _, ans in pred], [want[key(r)] for r, _ in pred]
    ))
    out.check(len(serve["fallback"]), checks.degraded_problems(
        [ans for ans, _, _ in serve["fallback"]]
    ))
    out.check(1, [] if serve["rc"] == 0 else [f"repro serve exited {serve['rc']}"])


def train_serve_2d(ctx: Context) -> Outcome:
    """``repro train`` (gbdt selector, gbr predictor), then ``repro serve``."""
    from repro.profiling import load_campaign
    from repro.stencil import generate_population

    sc = ctx.scale

    def build(i: int) -> Path:
        path = ctx.work / f"setup-{i}" / "campaign.json"
        path.parent.mkdir()
        rc, _ = _cli([
            "profile", "--ndim", "2", "--count", sc.train_count,
            "--gpus", *TRAIN_GPUS, "--n-settings", sc.train_settings,
            "--backend", "scalar", "--seed", derive(ctx.seed, "train"),
            "-o", path,
        ])
        if rc != 0:
            raise RuntimeError(f"set-up campaign failed with exit code {rc}")
        return path

    setup_s, campaign_path = _setup(ctx, build)
    campaign = load_campaign(campaign_path)
    measured = {
        (m.oc, m.setting.as_tuple()): (m.oc, m.setting)
        for g in campaign.gpus for m in campaign.measurements(g)
    }
    settings = [measured[k] for k in sorted(measured)]  # predict requests use these
    pool = generate_population(2, sc.pool_size, seed=derive(ctx.seed, "pool"))
    plans = [
        _request_plan(derive(ctx.seed, "client", t), len(pool), settings, 4096)
        for t in range(SERVE_CLIENTS)
    ]
    degraded = _distinct_stencils(sc.degraded, derive(ctx.seed, "degraded"), pool)

    def train(registry: Path) -> "tuple[float, float]":
        """Both ``repro train`` calls: (wall s, s on a nominal host)."""
        wall = nominal = 0.0
        for argv in (
            ["--task", "select", "--gpu", SELECT_GPU, "--method", "gbdt"],
            ["--task", "predict", "--method", "gbr", "--max-rows", sc.max_rows],
        ):
            (rc, _), w, host = ctx.timed(_cli, [
                "train", "--campaign", campaign_path, "--registry", registry,
                "--seed", ctx.seed, *argv,
            ], refs=4)
            if rc != 0:
                raise RuntimeError(f"repro train exited {rc}")
            wall += w
            nominal += w / host
        return wall, nominal

    out = Outcome(backend="none (analytical rung in the server)")
    walls = {False: [], True: []}
    train_nominal = []  # per untraced round
    if ctx.trace:  # untraced references on both sides of the traced train
        registry = ctx.work / "registry"
        walls[False].append(train(ctx.work / "registry-untraced-0")[0])
        with _maybe_traced(ctx, True, "train", "train"):
            walls[True].append(train(registry)[0])
        walls[False].append(train(ctx.work / "registry-untraced-1")[0])
    else:  # the last round's registry is served
        while (len(train_nominal) < sc.min_trains
               or sum(walls[False]) < ctx.seconds * sc.train_share):
            registry = ctx.work / f"registry-{len(train_nominal)}"
            wall, nominal = train(registry)
            walls[False].append(wall)
            train_nominal.append(nominal)
    with _maybe_traced(ctx, ctx.trace, "serve", "serve"):
        serve = _serve_phase(ctx, ctx.tracer, ctx.trace, registry, pool, plans, degraded)
    selector, predictor = _artifacts(registry)
    _check_serve(out, serve, selector, predictor, pool)

    lat_ms = sorted(dt * 1e3 for _, _, dt in serve["loop"])
    p50 = float(np.percentile(lat_ms, 50))
    if ctx.trace:
        out.metrics = layer_metrics(
            ctx.tracer, _bench_wall(ctx.tracer), _overhead(walls),
            serve=_serve_layers(serve, p50),
        )
        return out
    rows = sum(a.meta["train_rows"] for a in (selector, predictor))
    fallback = serve["fallback"]
    out.detail = {
        "train_s": statistics.median(walls[False]),
        "train_rounds": len(walls[False]),
        "train_rows": rows,
        "serve_rps": len(lat_ms) / serve["loop_wall"],
        "serve_p50_ms": p50,
        "serve_p99_ms": float(np.percentile(lat_ms, 99)),
        "serve_requests": len(lat_ms),
        "fallback_p50_ms": statistics.median(dt * 1e3 for _, dt, _ in fallback),
    }
    # The gated figures are the CPU-bound stages: training throughput and
    # the analytical-rung answer.  The closed loop's rate and latency are
    # bound by thread wake-ups across two processes on two CPUs and swing
    # by up to 2x between runs on a shared host, so they are reported in
    # ``detail`` and by the traced run instead.
    return out.finish(
        ctx, statistics.median(rows / s for s in train_nominal),
        statistics.median(dt * 1e3 / host for _, dt, host in fallback),
        setup_s, extra_rss_mb=serve["rss_mb"],
    )


WORKLOADS = {
    "campaign-2d": campaign_2d,
    "tune-3d": tune_3d,
    "train-serve-2d": train_serve_2d,
}
