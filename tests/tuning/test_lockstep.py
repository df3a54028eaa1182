"""tune_many() runs cells in lockstep and reproduces per-cell tune() exactly.

The driver merges every cell's outstanding ask into one engine batch per
round.  Noise is content-keyed and every backend is per-point pure, so a
cell's ``TuneResult`` -- best setting and time, trial log, crash counts,
cache accounting, extras -- must equal what ``tune()`` of that cell
alone returns, whatever else shares its batches.  Covered here for the
whole strategy zoo on the scalar, vector and cached backends, including
a crash-heavy 3-D stencil and a wavefront-64 GPU.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import BackendBase, make_backend
from repro.errors import DeviceLostError, TuningError
from repro.optimizations import OC
from repro.stencil import box, get
from repro.tuning import TuneCell, tune, tune_many

ZOO = ("random", "coordinate", "genetic", "annealing", "bayes", "halving")
BACKENDS = ("scalar", "vector", "cached")

#: (GPU, stencils): a 2-D NVIDIA case, and an order-4 3-D box on a
#: wavefront-64 part, where temporal blocking without streaming crashes.
CASES = {
    "V100-2d": ("V100", (get("star2d2r"), get("box2d1r"))),
    "MI210-3d": ("MI210", (box(3, 4), get("star3d1r"))),
}
OCS = tuple(OC.parse(name) for name in ("naive", "TB", "ST_RT", "ST_TB_CM"))
BUDGET = 12


def _cells(stencils, strategy, seed=3):
    return [
        TuneCell(s, oc, strategy=strategy, budget=BUDGET, seed=seed,
                 stencil_id=sid)
        for sid, s in enumerate(stencils)
        for oc in OCS
    ]


def _solo(cell, backend):
    return tune(
        cell.stencil, oc=cell.oc, backend=backend, strategy=cell.strategy,
        budget=cell.budget, seed=cell.seed, stencil_id=cell.stencil_id,
    )


class CountingBackend(BackendBase):
    """Records batch sizes; optionally raises on chosen calls."""

    def __init__(self, inner, fail_calls=()):
        self.inner = inner
        self.sizes = []
        self.fail_calls = set(fail_calls)

    spec = property(lambda self: self.inner.spec)
    sigma = property(lambda self: self.inner.sigma)
    info = property(lambda self: self.inner.info)

    def evaluate_batch(self, requests):
        self.sizes.append(len(requests))
        if len(self.sizes) in self.fail_calls:
            raise DeviceLostError(f"lost on call {len(self.sizes)}")
        return self.inner.evaluate_batch(requests)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("backend_kind", BACKENDS)
@pytest.mark.parametrize("strategy", ZOO)
def test_tune_many_equals_per_cell_tune(strategy, backend_kind, case):
    gpu, stencils = CASES[case]
    cells = _cells(stencils, strategy)
    merged = CountingBackend(make_backend(backend_kind, gpu))
    got = tune_many(cells, backend=merged)
    for cell, result in zip(cells, got):
        want = _solo(cell, make_backend(backend_kind, gpu))
        assert result == want, (cell.stencil.name, cell.oc.name)
        assert result.trial_log == want.trial_log
        assert result.crashed == want.crashed
    # Lockstep really merged: fewer engine calls than one cell alone
    # would need times the cell count.
    assert len(merged.sizes) < sum(r.trials for r in got)
    if case == "MI210-3d":
        assert sum(r.crashed for r in got) > 0  # the crash-heavy case


def test_campaign_cells_merge_into_large_batches():
    """The campaign shape: all 30 OCs of one stencil share each batch."""
    from repro.optimizations.combos import ALL_OCS
    from repro.profiling import RandomSearch

    counting = CountingBackend(make_backend("vector", "V100"))
    search = RandomSearch(counting, n_settings=5, seed=1)
    stencil = get("star2d2r")
    lockstep = search.tune_ocs(stencil, 0, ALL_OCS)
    sizes = sorted(counting.sizes)
    assert sizes[len(sizes) // 2] > 4  # median batch well past 1-4 points
    for oc, pair in zip(ALL_OCS, lockstep):
        assert pair == search.tune_oc(stencil, 0, oc), oc.name


def test_cache_accounting_is_per_cell(tmp_path):
    stencil = get("star2d1r")
    cells = [
        TuneCell(stencil, oc, strategy="genetic", budget=BUDGET, seed=2)
        for oc in OCS
    ]
    cold = tune_many(cells, gpu="V100", cache_dir=tmp_path)
    warm = tune_many(cells, gpu="V100", cache_dir=tmp_path)
    for c, w in zip(cold, warm):
        assert c.cache_misses > 0
        assert (w.cache_hits, w.cache_misses) == (
            c.cache_hits + c.cache_misses, 0
        )
        assert (c.best_setting, c.best_time_ms) == (w.best_setting, w.best_time_ms)
    solo = tune(stencil, oc=OCS[1], gpu="V100", strategy="genetic",
                budget=BUDGET, seed=2, cache_dir=tmp_path / "solo")
    assert (solo.cache_hits, solo.cache_misses) == (
        cold[1].cache_hits, cold[1].cache_misses
    )


class TestFaults:
    def _cells(self):
        # The campaign's cell shape: random walk + refinement, no budget,
        # so every cell runs several rounds; the last cell finishes early.
        return [
            TuneCell(get("star2d2r"), oc, options={"n_settings": 4})
            for oc in OCS
        ] + [TuneCell(get("star2d2r"), OCS[1], options={"n_settings": 1})]

    def test_transient_error_propagates_without_handler(self):
        be = CountingBackend(make_backend("scalar", "V100"), fail_calls={2})
        with pytest.raises(DeviceLostError):
            tune_many(self._cells(), backend=be)

    def test_failed_round_is_resubmitted_and_converges(self):
        cells = self._cells()
        clean = tune_many(cells, backend=make_backend("scalar", "V100"))
        be = CountingBackend(
            make_backend("scalar", "V100"), fail_calls={3, 5, 6}
        )
        faults = []

        def on_fault(in_flight, error, attempt):
            faults.append((str(error), attempt, in_flight))
            return True

        got = tune_many(cells, backend=be, on_fault=on_fault)
        assert got == clean
        # One handler call per failed attempt; a round's attempts count up.
        assert [(e, a) for e, a, _ in faults] == [
            ("lost on call 3", 0), ("lost on call 5", 0), ("lost on call 6", 1),
        ]
        for _, _, in_flight in faults:
            assert in_flight == sorted(in_flight) and len(in_flight) > 1
        # The retry re-sends the failed round's batch unchanged.
        assert be.sizes[2] == be.sizes[3]
        assert be.sizes[4] == be.sizes[5] == be.sizes[6]

    def test_given_up_round_voids_only_its_cells(self):
        cells = self._cells()
        probe = CountingBackend(make_backend("scalar", "V100"))
        clean = tune_many(cells, backend=probe)
        last = len(probe.sizes)
        be = CountingBackend(make_backend("scalar", "V100"), fail_calls={last})
        voided = []

        def on_fault(in_flight, error, attempt):
            voided.extend(in_flight)
            return False

        got = tune_many(cells, backend=be, on_fault=on_fault)
        assert 0 < len(voided) < len(cells)
        for i, (g, c) in enumerate(zip(got, clean)):
            assert g is None if i in voided else g == c

    def test_shared_strategy_instance_is_rejected(self):
        from repro.tuning import GeneticStrategy

        shared = GeneticStrategy(population=4, generations=2)
        cells = [TuneCell(get("star2d2r"), oc, strategy=shared) for oc in OCS]
        with pytest.raises(TuningError, match="share a strategy instance"):
            tune_many(cells, gpu="V100")


def test_bad_budget_is_rejected():
    with pytest.raises(TuningError, match="budget"):
        tune_many([TuneCell(get("star2d1r"), OCS[0], budget=0)], gpu="V100")


# ----------------------------------------------------------------------
# property: a cell's result ignores its batch-mates
# ----------------------------------------------------------------------
_POOL = [
    TuneCell(s, oc, strategy=strategy, budget=8, seed=4, stencil_id=sid)
    for sid, s in enumerate((get("star2d1r"), get("box2d2r")))
    for oc in OCS
    for strategy in ("random", "coordinate", "halving")
]
_SOLO: dict = {}


def _solo_result(index):
    if index not in _SOLO:
        _SOLO[index] = _solo(_POOL[index], make_backend("vector", "P100"))
    return _SOLO[index]


@settings(max_examples=12, suppress_health_check=[HealthCheck.too_slow])
@given(
    target=st.integers(0, len(_POOL) - 1),
    mates=st.lists(st.integers(0, len(_POOL) - 1), max_size=5),
    position=st.integers(0, 5),
)
def test_result_independent_of_batch_mates(target, mates, position):
    order = list(mates)
    order.insert(min(position, len(order)), target)
    results = tune_many(
        [_POOL[i] for i in order], backend=make_backend("vector", "P100")
    )
    assert results[min(position, len(mates))] == _solo_result(target)
