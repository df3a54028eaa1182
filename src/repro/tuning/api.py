"""The unified autotuning front door: :func:`tune` and :func:`tune_many`.

Every parameter search in the repo -- the paper's random walk with
coordinate refinement, the csTuner-style genetic algorithm, the zoo's
annealing / Bayesian / successive-halving strategies -- runs through
one driver, :func:`tune_many`, which tunes any number of (stencil, OC)
*cells* in lockstep; :func:`tune` is the one-cell case.  The driver owns
everything that is *not* search logic:

- resolving the tuning space (a :class:`~repro.stencil.stencil.Stencil`
  plus OC, or an explicit :class:`~repro.tuning.ParameterSpace` with
  ``restrictions=``),
- resolving the measurement substrate (a backend instance, a backend
  kind name, or a GPU to build one for) and optionally wrapping it in
  the persistent :class:`~repro.tuning.TuningCache`,
- deriving each strategy's named RNG stream from
  ``(seed, stencil_id, oc, strategy)`` so results are deterministic for
  a fixed (strategy, seed, budget) regardless of backend flavor, worker
  count or which other cells share the run,
- the ask/evaluate/tell loop with fidelity-weighted budget enforcement,
- packaging each outcome as a :class:`~repro.tuning.TuneResult`.

The loop's only contract with a strategy is the ask/tell protocol.
All cells' frontiers merge per round: every outstanding ``ask()`` goes
to the backend in **one** ``evaluate_batch`` and the results are sliced
back to their cells, so a campaign unit's 30 OCs amortize the engine's
fixed per-call cost together instead of paying it in 1-4-point
batches.  Results are unchanged by the merge: measurement noise is
content-keyed and every backend is per-point pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..engine import Backend, EvalRequest, as_backend, make_backend
from ..errors import TransientError, TuningError
from ..optimizations.combos import OC
from ..stencil.stencil import Stencil
from .cache import TuningCache
from .result import TuneResult
from .rng import stream_rng
from .space import ParameterSpace
from .strategy import Strategy, StrategyContext, make_strategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

__all__ = ["TuneCell", "tune", "tune_many"]


@dataclass(frozen=True)
class TuneCell:
    """One (stencil, OC) tuning job for :func:`tune_many`.

    ``strategy`` is a zoo name (constructed with ``options``) or a
    ready-made :class:`Strategy` instance that no other cell of the same
    :func:`tune_many` call may share; ``space`` defaults to the
    OC's full parameter space.  The remaining fields mean what the
    matching :func:`tune` keywords mean.
    """

    stencil: Stencil
    oc: OC
    strategy: "Strategy | str" = "random"
    options: dict[str, Any] = field(default_factory=dict)
    space: "ParameterSpace | None" = None
    budget: "float | None" = None
    seed: int = 0
    stencil_id: int = -1
    grid: "tuple[int, ...] | None" = None
    rng_streams: "tuple | None" = None


#: ``on_fault(cells, error, attempt) -> bool``: re-submit the failed
#: round (True) or give up its *cells* (False).  ``attempt`` counts the
#: round's earlier failures.
FaultHandler = Callable[[list, TransientError, int], bool]


def _resolve_space(space_or_stencil, oc, restrictions):
    if isinstance(space_or_stencil, Stencil):
        if oc is None:
            raise TuningError("tune(stencil, ...) needs an oc= to pick the space")
        return ParameterSpace.for_oc(
            oc, space_or_stencil.ndim, restrictions or None
        ), space_or_stencil
    if isinstance(space_or_stencil, ParameterSpace):
        if restrictions:
            raise TuningError(
                "pass restrictions to the ParameterSpace constructor, "
                "not to tune(), when supplying an explicit space"
            )
        return space_or_stencil, None
    raise TuningError(
        f"tune() wants a Stencil or ParameterSpace, got "
        f"{type(space_or_stencil).__name__}"
    )


def _resolve_backend(backend, gpu, sigma) -> Backend:
    if backend is None:
        if gpu is None:
            raise TuningError("tune() needs backend= or gpu= to measure on")
        return make_backend("vector", gpu, sigma=sigma)
    if isinstance(backend, str):
        if gpu is None:
            raise TuningError(f"backend={backend!r} needs gpu= to target")
        return make_backend(backend, gpu, sigma=sigma)
    return as_backend(backend)


def _resolve_strategy(strategy, options) -> Strategy:
    if isinstance(strategy, str):
        return make_strategy(strategy, **options)
    if options:
        raise TuningError(
            "strategy options are only accepted with a strategy *name*; "
            "configure the instance directly instead"
        )
    if not isinstance(strategy, Strategy):
        raise TuningError(
            f"{type(strategy).__name__} does not implement the Strategy "
            "protocol (name/stream_components/prepare/ask/tell/finish)"
        )
    return strategy


def _prepare(cell: TuneCell, strat: Strategy, info) -> None:
    """Key *strat*'s RNG stream from *cell* and prepare it to search."""
    components = (
        cell.rng_streams
        if cell.rng_streams is not None
        else strat.stream_components(cell.seed, cell.stencil_id, cell.oc)
    )
    space = cell.space
    if space is None:
        space = ParameterSpace.for_oc(cell.oc, cell.stencil.ndim)
    strat.prepare(
        StrategyContext(
            stencil=cell.stencil,
            stencil_id=cell.stencil_id,
            oc=cell.oc,
            space=space,
            rng=stream_rng(*components),
            seed=cell.seed,
            budget=cell.budget,
            backend_info=info,
            grid=cell.grid,
        )
    )


def tune_many(
    cells: "Sequence[TuneCell]",
    *,
    backend: "Backend | str | None" = None,
    gpu=None,
    sigma: float = 0.03,
    cache_dir: "str | Path | None" = None,
    on_fault: "FaultHandler | None" = None,
) -> "list[TuneResult | None]":
    """Tune every cell in lockstep; one result per cell, in cell order.

    Each round asks every unfinished cell for its next frontier, sends
    all of them to the backend as a single ``evaluate_batch``, and tells
    each cell its slice of the results.  A cell leaves the round robin
    when its strategy stops asking or its ``budget`` is spent.  Every
    cell's result is exactly what a one-cell run would produce.  Each
    cell needs its own strategy: an instance shared by two cells is
    rejected.

    ``backend`` / ``gpu`` / ``sigma`` / ``cache_dir`` choose the
    measurement substrate as in :func:`tune`.  A
    :class:`~repro.errors.TransientError` out of a round's batch (device
    loss, exhausted per-call retries) propagates without ``on_fault``.
    With it, the driver calls ``on_fault(cells, error, attempt)``, where
    *cells* are the indices (in cell order) of the cells with points in
    the batch and *attempt* counts the round's earlier failures.  No
    cell has been told anything of the failed round, so ``True``
    re-submits the same batch: fault draws are keyed by attempt and
    measurements by content, so a retry that gets through yields the
    fault-free results.  ``False`` abandons those cells, whose results
    are ``None``; the other cells carry on.
    """
    cells = list(cells)
    for cell in cells:
        if cell.budget is not None and cell.budget <= 0:
            raise TuningError(f"budget must be positive, got {cell.budget!r}")
    strategies = [_resolve_strategy(c.strategy, c.options) for c in cells]
    if len({id(s) for s in strategies}) < len(strategies):
        raise TuningError(
            "tune_many() cells share a strategy instance; give each cell "
            "its own (or pass a strategy name)"
        )
    base = _resolve_backend(backend, gpu, sigma)
    cache: "TuningCache | None" = None
    if cache_dir is not None:
        cache = TuningCache(base, cache_dir)
    elif isinstance(base, TuningCache):
        cache = base
    substrate = cache if cache is not None else base
    info = substrate.info

    n = len(cells)
    out: "list[TuneResult | None]" = [None] * n
    hits = [0] * n
    misses = [0] * n

    def finish(i: int) -> None:
        cell, strat = cells[i], strategies[i]
        outcome = strat.finish()
        trials = int(getattr(strat, "observed", len(outcome.trial_log)))
        out[i] = TuneResult(
            strategy=strat.name,
            best_setting=outcome.best_setting,
            best_time_ms=outcome.best_time_ms,
            trials=trials,
            cost=float(getattr(strat, "cost", trials)),
            crashed=outcome.crashed,
            seed=cell.seed,
            budget=cell.budget,
            oc=cell.oc.name,
            stencil=getattr(cell.stencil, "name", None),
            gpu=substrate.spec.name,
            cache_hits=hits[i],
            cache_misses=misses[i],
            trial_log=outcome.trial_log,
            extras=dict(outcome.extras),
        )

    def tell(i: int, batch, results) -> bool:
        """Deliver *results*; True while cell *i* wants another round."""
        strategies[i].tell(batch, results)
        budget = cells[i].budget
        if budget is not None and getattr(strategies[i], "cost", 0.0) >= budget:
            finish(i)
            return False
        return True

    try:
        for i in range(n):
            _prepare(cells[i], strategies[i], info)
        live = list(range(n))
        while live:
            asked = []  # (cell index, batch, slice start, slice end)
            requests: list[EvalRequest] = []
            for i in live:
                batch = strategies[i].ask()
                if batch is None:
                    finish(i)
                    continue
                cell = cells[i]
                grid = batch.grid or cell.grid
                lo = len(requests)
                requests.extend(
                    EvalRequest(cell.stencil, cell.oc, s, grid=grid)
                    for s in batch.settings
                )
                asked.append((i, batch, lo, len(requests)))
            results = None
            attempt = 0
            while results is None:
                try:
                    results = substrate.evaluate_batch(requests) if requests else []
                except TransientError as error:
                    if on_fault is None:
                        raise
                    in_flight = [i for i, _, lo, hi in asked if lo < hi]
                    if not on_fault(in_flight, error, attempt):
                        break
                    attempt += 1
            if results is None:
                live = [
                    i for i, batch, lo, hi in asked
                    if lo == hi and tell(i, batch, [])
                ]
                continue
            hit_mask = cache.last_hits if cache is not None else None
            live = []
            for i, batch, lo, hi in asked:
                if hit_mask is not None:
                    h = sum(hit_mask[lo:hi])
                    hits[i] += h
                    misses[i] += hi - lo - h
                if tell(i, batch, results[lo:hi]):
                    live.append(i)
    finally:
        if cache is not None:
            cache.flush()
    return out


def tune(
    space_or_stencil: "Stencil | ParameterSpace",
    *,
    oc: "OC | None" = None,
    stencil: "Stencil | None" = None,
    gpu=None,
    backend: "Backend | str | None" = None,
    strategy: "Strategy | str" = "random",
    budget: "float | None" = None,
    seed: int = 0,
    stencil_id: int = -1,
    restrictions=(),
    grid: "tuple[int, ...] | None" = None,
    cache_dir: "str | Path | None" = None,
    sigma: float = 0.03,
    rng_streams: "tuple | None" = None,
    **strategy_options,
) -> TuneResult:
    """Tune one (stencil, OC) pair and return the best setting found.

    Parameters
    ----------
    space_or_stencil:
        A :class:`Stencil` (its OC-relevant parameter space is derived
        via ``restrictions=``) or an explicit :class:`ParameterSpace`
        (then ``stencil=`` must name what to measure).
    oc:
        The optimization combination whose parameters are being tuned.
    gpu / backend / sigma:
        The measurement substrate: an existing backend (or simulator),
        a backend kind from :data:`repro.engine.BACKEND_KINDS` plus a
        GPU, or just a GPU (a vector backend is built).
    strategy:
        Zoo name (see :func:`repro.tuning.available_strategies`) with
        ``**strategy_options`` forwarded to its constructor, or a
        ready-made :class:`Strategy` instance.
    budget:
        Evaluation allowance in full-fidelity units.  Strategies size
        themselves to it (random samples ``budget`` settings, annealing
        derives its step count, ...) and the driver enforces it as a
        hard cap between frontiers; reduced-grid evaluations of the
        multi-fidelity strategies charge their grid-cell fraction.
        ``None`` (default) lets the strategy use its own defaults.
    seed / stencil_id / rng_streams:
        Entropy: the strategy's RNG stream is keyed by
        ``strategy.stream_components(seed, stencil_id, oc)`` (the named
        stream convention), or by ``rng_streams`` verbatim when given --
        the escape hatch legacy wrappers use to pin pre-refactor
        streams.
    grid:
        Evaluation grid override (``None``: the paper default for the
        stencil's dimensionality).
    cache_dir:
        When set, wrap the backend in a persistent
        :class:`~repro.tuning.TuningCache` rooted there; hit/miss
        accounting lands in the result.
    """
    space, inferred = _resolve_space(space_or_stencil, oc, restrictions)
    stencil = stencil if stencil is not None else inferred
    if stencil is None:
        raise TuningError(
            "tune(ParameterSpace, ...) needs stencil= to know what to measure"
        )
    if oc is None:
        raise TuningError("tune() needs an oc= to measure")
    cell = TuneCell(
        stencil,
        oc,
        strategy=strategy,
        options=strategy_options,
        space=space,
        budget=budget,
        seed=seed,
        stencil_id=stencil_id,
        grid=grid,
        rng_streams=rng_streams,
    )
    (result,) = tune_many(
        [cell], backend=backend, gpu=gpu, sigma=sigma, cache_dir=cache_dir
    )
    return result
