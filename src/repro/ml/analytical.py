"""The analytical model family: zero-campaign predictor and selector.

Third family next to the GBDT and neural estimators: instead of
learning from a profiling campaign, these wrap the static
source-metric extraction of :mod:`repro.analysis.perfmodel`.  Their
"training set" is empty -- the state is just configuration -- but they
implement the same ``state_dict`` / ``from_state`` contract so they
serialize through :mod:`repro.ml.serialize` and publish as registry
artifacts like any trained model.

- :class:`AnalyticalPredictor` prices raw ``(stencil, OC, setting,
  gpu)`` requests in milliseconds per time step.
- :class:`AnalyticalSelector` picks the best OC for a stencil by
  *statically autotuning* each candidate combination: the
  :class:`~repro.analysis.backend.AnalyticalBackend` plugs the
  estimator into :func:`repro.tuning.tune`, so every candidate gets the
  paper's random walk plus coordinate refinement driven purely by
  static estimates, and the cheapest tuned optimum wins.  A far smarter
  zero-artifact fallback than the fixed heuristic ladder, at the cost
  of a fraction of a second of static analysis per (stencil, GPU) pair
  (memoized thereafter in an LRU of :data:`MEMO_CAPACITY` pairs).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..errors import ModelError

#: Candidate combinations the selector prices by default: the heuristic
#: ladder's rungs plus the merge/prefetch variants that win on stencils
#: the ladder mis-serves.  Kept small -- cost is candidates x settings
#: static estimates per new (stencil, GPU) pair.
DEFAULT_CANDIDATES = (
    "naive",
    "ST",
    "ST_RT",
    "ST_RT_PR",
    "ST_RT_TB",
    "ST_PR",
    "CM",
    "TB",
)

#: Most recently used (stencil, GPU) picks a selector keeps.  A serving
#: process answers arbitrary client stencils, so the memo is an LRU: an
#: evicted pick is simply re-tuned (deterministically) on its next ask.
MEMO_CAPACITY = 1024


def _estimate_ms(stencil, oc, setting, gpu, grid=None) -> float:
    """Static time estimate; ``inf`` when the configuration cannot run."""
    from ..analysis.ir import ParseError
    from ..analysis.perfmodel import EstimateError, estimate_kernel
    from ..errors import KernelLaunchError, OptimizationError

    try:
        return estimate_kernel(stencil, oc, setting, gpu, grid=grid).time_ms
    except (KernelLaunchError, OptimizationError, EstimateError, ParseError):
        return math.inf


class AnalyticalPredictor:
    """Campaign-free runtime predictor backed by the static perfmodel.

    Unlike the learned regressors it consumes raw requests, not feature
    matrices: the metric extraction needs the actual kernel source, and
    a preprocessed feature row cannot be turned back into one.
    """

    name = "analytical"

    def __init__(self, grid: "tuple[int, ...] | None" = None):
        self.grid = tuple(grid) if grid else None

    # ------------------------------------------------------------------
    def predict_one(self, stencil, oc, setting, gpu: str) -> float:
        """Estimated ms per time step (``inf`` if it cannot launch)."""
        return _estimate_ms(stencil, oc, setting, gpu, self.grid)

    def predict_requests(self, requests) -> np.ndarray:
        """Vectorized :meth:`predict_one` over (stencil, oc, setting, gpu)."""
        return np.array(
            [self.predict_one(s, oc, st, gpu) for s, oc, st, gpu in requests],
            dtype=np.float64,
        )

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {"grid": list(self.grid) if self.grid else None}

    @classmethod
    def from_state(cls, state: dict) -> "AnalyticalPredictor":
        if not isinstance(state, dict):
            raise ModelError("AnalyticalPredictor state must be a dict")
        grid = state.get("grid")
        return cls(grid=tuple(int(v) for v in grid) if grid else None)


@dataclass(frozen=True)
class AnalyticalRecommendation:
    """One statically-tuned pick: OC, best setting, estimated time."""

    oc: str
    setting: object
    time_ms: float
    trials: int


class AnalyticalSelector:
    """Static-autotuning OC selector; no campaign, no artifact data.

    Each candidate combination is tuned through
    :func:`repro.tuning.tune` on an
    :class:`~repro.analysis.backend.AnalyticalBackend` -- the same
    random walk with coordinate refinement the profiling campaign's
    oracle uses, except every "measurement" is a static estimate.  The
    candidate with the cheapest tuned optimum wins.  Candidates with no
    estimable setting are skipped; ``naive`` is always feasible, so the
    selector is total on generator stencils.

    ``n_settings`` is the random-walk sample count per candidate (the
    campaign's knob of the same name); ``refine=False`` drops the
    coordinate descent for a cheaper but less accurate ranking.
    """

    name = "analytical"

    def __init__(
        self,
        candidates: "tuple[str, ...] | None" = None,
        n_settings: int = 2,
        seed: int = 0,
        grid: "tuple[int, ...] | None" = None,
        refine: bool = True,
    ):
        self.candidates = tuple(candidates) if candidates else DEFAULT_CANDIDATES
        self.n_settings = int(n_settings)
        self.seed = int(seed)
        self.grid = tuple(grid) if grid else None
        self.refine = bool(refine)
        self._memo: "OrderedDict[tuple, AnalyticalRecommendation]" = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def select(self, stencil, gpu: str) -> str:
        """Name of the estimated-fastest candidate OC for *stencil*."""
        return self.recommend(stencil, gpu).oc

    def select_many(self, stencils, gpu: str) -> "list[str]":
        return [self.select(s, gpu) for s in stencils]

    def recommend(self, stencil, gpu: str) -> AnalyticalRecommendation:
        """Full tuned pick: best (OC, setting) and its estimated ms."""
        key = (stencil.cache_key(), gpu)
        with self._lock:
            cached = self._memo.get(key)
            if cached is not None:
                self._memo.move_to_end(key)
                return cached
        rec = self._recommend_uncached(stencil, gpu)
        with self._lock:
            self._memo[key] = rec
            self._memo.move_to_end(key)
            while len(self._memo) > MEMO_CAPACITY:
                self._memo.popitem(last=False)
        return rec

    def _recommend_uncached(self, stencil, gpu: str) -> AnalyticalRecommendation:
        from ..analysis.backend import AnalyticalBackend
        from ..errors import TuningError
        from ..optimizations.combos import OC
        from ..tuning import tune

        backend = AnalyticalBackend(gpu)
        best: "AnalyticalRecommendation | None" = None
        for name in self.candidates:
            try:
                oc = OC.parse(name)
            except Exception:
                continue
            try:
                res = tune(
                    stencil,
                    oc=oc,
                    backend=backend,
                    strategy="random",
                    seed=self.seed,
                    grid=self.grid,
                    n_settings=self.n_settings,
                    refine=self.refine,
                )
            except TuningError:
                continue
            t = res.best_time_ms
            if res.best_setting is None or t is None or not math.isfinite(t):
                continue
            if best is None or t < best.time_ms:
                best = AnalyticalRecommendation(
                    oc=name, setting=res.best_setting, time_ms=float(t),
                    trials=res.trials,
                )
        if best is None:
            raise ModelError(
                f"analytical selector: no estimable candidate for "
                f"{getattr(stencil, 'name', stencil)!r} on {gpu}"
            )
        return best

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "candidates": list(self.candidates),
            "n_settings": self.n_settings,
            "seed": self.seed,
            "grid": list(self.grid) if self.grid else None,
            "refine": self.refine,
        }

    @classmethod
    def from_state(cls, state: dict) -> "AnalyticalSelector":
        if not isinstance(state, dict) or "candidates" not in state:
            raise ModelError("AnalyticalSelector state must carry candidates")
        grid = state.get("grid")
        return cls(
            candidates=tuple(str(c) for c in state["candidates"]),
            n_settings=int(state.get("n_settings", 2)),
            seed=int(state.get("seed", 0)),
            grid=tuple(int(v) for v in grid) if grid else None,
            refine=bool(state.get("refine", True)),
        )
