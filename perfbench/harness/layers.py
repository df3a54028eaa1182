"""Wrappers around each layer's public entry points, and the per-layer metrics.

:func:`instrumented` installs the wrappers for the duration of a traced
pass and removes them afterwards, so untraced passes run the program
untouched.  Span names are ``<layer>.<what>``; the layer is the
``repro`` subpackage whose function the span wraps.
"""

from __future__ import annotations

import contextlib
import statistics

from .tracing import Span, Tracer, covered_time, self_times

#: Per-layer metrics of the traced run (units and direction: BENCHMARK.json).
PER_LAYER = (
    "engine.batches",
    "engine.points",
    "engine.busy_s",
    "engine.us_per_point",
    "engine.batch_p50",
    "engine.small_batch_share",
    "engine.points_per_measurement",
    "engine.crash_share",
    "tuning.cells",
    "tuning.self_s",
    "tuning.asks_per_cell",
    "tuning.cache_hits",
    "tuning.cache_misses",
    "tuning.cache_flush_s",
    "profiling.units",
    "profiling.checkpoint_writes",
    "profiling.checkpoint_s",
    "profiling.output_save_s",
    "profiling.campaign_load_s",
    "profiling.dataset_build_s",
    "ml.selector_fit_s",
    "ml.predictor_fit_s",
    "ml.train_rows",
    "serve.batches",
    "serve.mean_batch",
    "serve.feature_cache_hit_rate",
    "serve.server_p50_ms",
    "serve.http_overhead_ms",
    "serve.model_hits",
    "serve.shed",
    "serve.errors",
    "serve.fallbacks_analytical",
    "serve.fallbacks_heuristic",
    "analysis.fallback_server_ms",
    "trace.coverage",
    "trace.overhead_share",
)

#: Small-batch threshold of ``engine.small_batch_share`` (points).
SMALL_BATCH = 4

#: Checkpoint file name every campaign in the benchmark uses.
CHECKPOINT_NAME = "checkpoint.json"


class TimedBackend:
    """``Backend`` protocol proxy: one ``engine`` span per ``evaluate_batch``."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    @property
    def spec(self):
        return self._inner.spec

    @property
    def sigma(self) -> float:
        return self._inner.sigma

    @property
    def info(self):
        return self._inner.info

    def evaluate_batch(self, requests):
        span = self._tracer.begin(
            "engine.evaluate_batch",
            points=len(requests),
            backend=self._inner.info.name,
        )
        try:
            results = self._inner.evaluate_batch(requests)
            span.attrs["crashes"] = sum(1 for r in results if r.crashed)
            return results
        finally:
            self._tracer.end(span)

    def __getattr__(self, name):  # begin_unit and other decorator hooks
        return getattr(self._inner, name)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap every layer's entry points in spans for the ``with`` body."""
    import repro.cli  # noqa: F401 - load the modules whose names get rebound
    import repro.profiling.runner as runner
    import repro.serve
    from repro.engine import make_backend
    from repro.profiling import (
        build_classification_dataset,
        build_regression_dataset,
        load_campaign,
        save_campaign,
        train_predictor_artifact,
        train_selector_artifact,
    )
    from repro.profiling.storage import atomic_write_text
    from repro.tuning import TuningCache, tune

    def timed_make_backend(*args, **kwargs):
        return TimedBackend(make_backend(*args, **kwargs), tracer)

    def traced_tune(space_or_stencil, **kwargs):
        oc = kwargs.get("oc")
        strategy = kwargs.get("strategy", "random")
        rid = "cell:{}/{}/{}".format(
            kwargs.get("stencil_id", -1),
            getattr(oc, "name", oc),
            getattr(strategy, "name", strategy),
        )
        span = tracer.begin("tuning.tune", rid=rid)
        try:
            result = tune(space_or_stencil, **kwargs)
            span.attrs.update(
                cache_hits=result.cache_hits,
                cache_misses=result.cache_misses,
                trials=result.trials,
            )
            return result
        finally:
            tracer.end(span)

    def traced_run_unit(search, gpu, stencil, sid, *args, **kwargs):
        with tracer.span("profiling.unit", rid=f"unit:{gpu}/{sid}"):
            return run_unit(search, gpu, stencil, sid, *args, **kwargs)

    def traced_write(path, text):
        parent = tracer.current()
        if parent is not None and parent.name == "tuning.cache_flush":
            return atomic_write_text(path, text)  # counted as flush time
        with tracer.span("profiling.write", file=str(path).rsplit("/", 1)[-1]):
            return atomic_write_text(path, text)

    def rows(span, artifact):
        span.attrs["train_rows"] = int(artifact.meta.get("train_rows", 0))

    run_unit = runner.run_unit
    wrapped = {
        make_backend: timed_make_backend,
        tune: traced_tune,
        run_unit: traced_run_unit,
        atomic_write_text: traced_write,
        save_campaign: tracer.wrap(save_campaign, "profiling.save_campaign"),
        load_campaign: tracer.wrap(load_campaign, "profiling.load_campaign"),
        build_classification_dataset: tracer.wrap(
            build_classification_dataset, "profiling.dataset_build"
        ),
        build_regression_dataset: tracer.wrap(
            build_regression_dataset, "profiling.dataset_build"
        ),
        train_selector_artifact: tracer.wrap(
            train_selector_artifact, "ml.train_selector", rows
        ),
        train_predictor_artifact: tracer.wrap(
            train_predictor_artifact, "ml.train_predictor", rows
        ),
        repro.serve.save_artifact: tracer.wrap(
            repro.serve.save_artifact, "serve.save_artifact"
        ),
    }
    try:
        for original, replacement in wrapped.items():
            tracer.patch_function(original, replacement)
        tracer.patch_attr(
            TuningCache, "flush",
            tracer.wrap(TuningCache.flush, "tuning.cache_flush"),
        )
        tracer.patch_attr(
            TuningCache, "evaluate_batch",
            tracer.wrap(TuningCache.evaluate_batch, "tuning.cache_lookup"),
        )
        yield tracer
    finally:
        tracer.restore()


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(
    tracer: Tracer,
    traced_wall_s: float,
    overhead_share: float,
    measurements: int = 0,
    serve: "dict | None" = None,
) -> "dict[str, float]":
    """Every :data:`PER_LAYER` metric of a traced pass.

    *traced_wall_s* is the wall time of the traced pass and
    *overhead_share* how much longer it took than the same work run
    without the wrappers; *measurements* is what the traced pass
    recorded (the base of ``engine.points_per_measurement``); *serve*
    carries the serve-side figures read from ``/stats`` and the client.
    Layers a workload does not exercise report 0.
    """
    spans = [s for s in tracer.spans if s.layer != "bench"]
    own = self_times(tracer.spans)

    def named(*names: str) -> "list[Span]":
        return [s for s in spans if s.name in names]

    def total(items, key=lambda s: s.duration) -> float:
        return float(sum(key(s) for s in items))

    engine = named("engine.evaluate_batch")
    sizes = [s.attrs["points"] for s in engine]
    points = sum(sizes)
    tunes = named("tuning.tune")
    tune_ids = {s.sid for s in tunes}
    asks = len(named("tuning.cache_lookup")) + sum(
        1 for s in engine if s.parent in tune_ids
    )
    writes = named("profiling.write")
    checkpoints = [s for s in writes if s.attrs.get("file") == CHECKPOINT_NAME]
    out = {
        "engine.batches": float(len(engine)),
        "engine.points": float(points),
        "engine.busy_s": total(engine),
        "engine.us_per_point": total(engine) / points * 1e6 if points else 0.0,
        "engine.batch_p50": _median(sizes),
        "engine.small_batch_share": (
            sum(1 for n in sizes if n <= SMALL_BATCH) / len(sizes) if sizes else 0.0
        ),
        "engine.points_per_measurement": (
            points / measurements if measurements else 0.0
        ),
        "engine.crash_share": (
            sum(s.attrs.get("crashes", 0) for s in engine) / points
            if points else 0.0
        ),
        "tuning.cells": float(len(tunes)),
        "tuning.self_s": total(
            [s for s in spans if s.layer == "tuning"], key=lambda s: own[s.sid]
        ),
        "tuning.asks_per_cell": asks / len(tunes) if tunes else 0.0,
        "tuning.cache_hits": float(sum(s.attrs.get("cache_hits", 0) for s in tunes)),
        "tuning.cache_misses": float(
            sum(s.attrs.get("cache_misses", 0) for s in tunes)
        ),
        "tuning.cache_flush_s": total(named("tuning.cache_flush")),
        "profiling.units": float(len(named("profiling.unit"))),
        "profiling.checkpoint_writes": float(len(checkpoints)),
        "profiling.checkpoint_s": total(checkpoints),
        "profiling.output_save_s": total(named("profiling.save_campaign")),
        "profiling.campaign_load_s": total(named("profiling.load_campaign")),
        "profiling.dataset_build_s": total(named("profiling.dataset_build")),
        "ml.selector_fit_s": total(
            named("ml.train_selector"), key=lambda s: own[s.sid]
        ),
        "ml.predictor_fit_s": total(
            named("ml.train_predictor"), key=lambda s: own[s.sid]
        ),
        "ml.train_rows": float(
            sum(s.attrs.get("train_rows", 0) for s in spans if s.layer == "ml")
        ),
        "trace.coverage": (
            covered_time(spans) / traced_wall_s if traced_wall_s > 0 else 0.0
        ),
        "trace.overhead_share": float(overhead_share),
    }
    out.update(serve or {})
    return {name: float(out.get(name, 0.0)) for name in PER_LAYER}
