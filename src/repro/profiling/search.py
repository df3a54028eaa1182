"""Random parameter search per optimization combination (Section IV-A).

"The StencilMART randomly searches the parameter settings under each OC and
selects the shortest execution time for performance comparison."  Settings
whose simulated launch crashes are resampled (bounded attempts), mirroring a
profiling harness that records only successful runs; an OC with no valid
setting at all is reported as crashed for that stencil/GPU, matching the
paper's note that "there are some cases where OC crashes under certain
stencils".

Since the unified front door landed, this module is a *compatibility
wrapper*: the actual search lives in
:class:`repro.tuning.RandomStrategy` (a bit-identical port of the walk +
coordinate-refinement tuner this module used to implement) and runs
through :func:`repro.tuning.tune_many`, which owns backend resolution,
the ask/evaluate/tell loop and result packaging.  ``RandomSearch`` keeps
the historical surface -- ``tune_oc`` returning ``(OCResult,
measurements)`` and ``profile_stencil`` -- and adds ``tune_ocs``, the
all-OC case that the campaign runner, baselines and framework use: it
tunes every OC of a stencil in lockstep, so their frontiers share
engine batches.

**RNG stream-key convention.**  Each (stencil, OC) tuning batch owns one
independent random stream, derived as::

    SeedSequence((seed, stencil_id & 0x7FFFFFFF, zlib.crc32(oc.name)))

and drawn from exactly once, up front, when the tuning batch is
assembled (see :func:`repro.tuning.stream_rng`).  Because the stream is
keyed by content -- never by evaluation order -- profiles are identical
no matter how the backend batches, caches or reorders measurements, and
identical across processes.  Campaign digests are pinned to this exact
stream, which is why :class:`~repro.tuning.RandomStrategy` keys it with
no strategy-name component.
"""

from __future__ import annotations

from ..engine import as_backend
from ..optimizations.combos import ALL_OCS, OC
from ..stencil.stencil import Stencil
from .records import Measurement, OCResult, StencilProfile

#: Sampling attempts allowed per requested valid setting (re-exported
#: from the strategy, which owns the value now).
_ATTEMPTS_PER_SETTING = 12

#: Coordinate-descent passes after random sampling.
_REFINE_PASSES = 3


class RandomSearch:
    """Best-of-N random tuner over one simulated GPU.

    Parameters
    ----------
    simulator:
        The measurement substrate: a :class:`~repro.engine.Backend`, or
        any simulator-like object with a ``time`` method (wrapped in a
        :class:`~repro.engine.ScalarBackend` for compatibility).
    n_settings:
        Valid parameter settings to measure per OC (the paper keeps this
        budget identical across compared methods).
    seed:
        Base seed; the per-(stencil, OC) stream is derived from it so
        profiles are independent of evaluation order (see the module
        docstring for the stream-key convention).
    refine:
        When true (default), the best random sample of each
        (use_smem, stream_dim, temporal_steps) basin is polished by
        coordinate descent.  Pure best-of-N over this parameter space is
        high-variance (narrow optima next to crash cliffs), which would
        make best-OC labels depend on sampling luck rather than the
        stencil; the deterministic refinement step recovers the per-OC
        optimum the paper's larger profiling budget effectively reaches.
    """

    def __init__(
        self,
        simulator,
        n_settings: int,
        seed: int,
        refine: bool = True,
    ):
        self.backend = as_backend(simulator)
        # Backends satisfy the simulator surface (spec/sigma/time), so the
        # historical attribute keeps working for callers that poke at it.
        self.sim = self.backend
        self.n_settings = int(n_settings)
        self.seed = int(seed)
        self.refine = bool(refine)

    def tune_ocs(
        self,
        stencil: Stencil,
        stencil_id: int,
        ocs: "tuple[OC, ...] | list[OC]",
        on_fault=None,
    ) -> "list[tuple[OCResult | None, list[Measurement]]]":
        """Tune every OC in *ocs* in lockstep; one ``tune_oc`` pair per OC.

        All OCs' frontiers share each engine batch (see
        :func:`repro.tuning.tune_many`), and every pair equals what
        :meth:`tune_oc` returns for that OC alone.  ``on_fault`` is
        forwarded to ``tune_many``; an OC whose round it gives up reports
        ``(None, [])``, the shape of an OC whose every setting crashed.
        """
        from ..tuning import TuneCell, tune_many

        options = dict(
            n_settings=self.n_settings,
            refine=self.refine,
            attempts_per_setting=_ATTEMPTS_PER_SETTING,
            refine_passes=_REFINE_PASSES,
        )
        results = tune_many(
            [
                TuneCell(
                    stencil, oc, strategy="random", options=options,
                    seed=self.seed, stencil_id=stencil_id,
                )
                for oc in ocs
            ],
            backend=self.backend,
            on_fault=on_fault,
        )
        gpu_name = self.backend.spec.name
        out: "list[tuple[OCResult | None, list[Measurement]]]" = []
        for oc, result in zip(ocs, results):
            if result is None or not result.ok:
                out.append((None, []))
                continue
            measurements = [
                Measurement(
                    stencil_id=stencil_id,
                    oc=oc.name,
                    setting=setting,
                    gpu=gpu_name,
                    time_ms=time_ms,
                )
                for setting, time_ms in result.extras["measurements"]
            ]
            oc_result = OCResult(
                oc=oc.name,
                best_setting=result.best_setting,
                best_time_ms=result.best_time_ms,
                n_settings=len(measurements),
                crashed=result.extras["walk_crashed"],
            )
            out.append((oc_result, measurements))
        return out

    def tune_oc(
        self, stencil: Stencil, stencil_id: int, oc: OC
    ) -> "tuple[OCResult | None, list[Measurement]]":
        """Measure up to ``n_settings`` valid settings of *oc*.

        Returns ``(None, [])`` when every attempted setting crashes.
        """
        return self.tune_ocs(stencil, stencil_id, (oc,))[0]

    # ------------------------------------------------------------------
    def profile_stencil(
        self,
        stencil: Stencil,
        stencil_id: int,
        ocs: "tuple[OC, ...] | list[OC]" = ALL_OCS,
    ) -> StencilProfile:
        """Profile *stencil* under every OC in *ocs* on this GPU."""
        profile = StencilProfile(
            stencil=stencil, stencil_id=stencil_id, gpu=self.backend.spec.name
        )
        for oc, (result, ms) in zip(ocs, self.tune_ocs(stencil, stencil_id, ocs)):
            if result is not None:
                profile.oc_results[oc.name] = result
                profile.measurements.extend(ms)
        return profile
