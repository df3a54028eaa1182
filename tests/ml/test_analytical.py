"""The analytical model family: zero-campaign predictor and selector.

They must behave like any other estimator at the serialization seam
(state_dict / from_state through the class-tagged envelope) while
answering from static analysis alone -- no fit call, no training data.
"""

import math

import numpy as np
import pytest

from repro.analysis.lint import feasible_settings
from repro.errors import ModelError
from repro.ml import (
    AnalyticalPredictor,
    AnalyticalSelector,
    model_from_state,
    model_state,
)
from repro.ml import analytical
from repro.ml.analytical import DEFAULT_CANDIDATES
from repro.optimizations.combos import OC
from repro.stencil import get


def _setting(stencil, oc_name):
    return feasible_settings(stencil, OC.parse(oc_name), 1, 0)[0]


class TestPredictor:
    def test_predicts_positive_times(self):
        p = AnalyticalPredictor()
        s = get("star2d1r")
        t = p.predict_one(s, OC.parse("ST_RT"), _setting(s, "ST_RT"), "V100")
        assert 0 < t < 1e4

    def test_vectorized_matches_scalar(self):
        p = AnalyticalPredictor()
        s = get("box2d1r")
        reqs = [
            (s, OC.parse(name), _setting(s, name), gpu)
            for name in ("naive", "ST")
            for gpu in ("V100", "A100")
        ]
        times = p.predict_requests(reqs)
        assert times.shape == (4,)
        assert times.dtype == np.float64
        for got, r in zip(times, reqs):
            assert got == p.predict_one(*r)

    def test_infeasible_is_inf_not_raise(self):
        from repro.optimizations.params import ParamSetting

        p = AnalyticalPredictor()
        bad = ParamSetting(block_x=16, use_smem=1, stream_dim=2, temporal_steps=4)
        t = p.predict_one(get("star2d3r"), OC.parse("ST_RT_TB"), bad, "V100")
        assert math.isinf(t)

    def test_serialization_round_trip(self):
        p = AnalyticalPredictor(grid=(1024, 1024))
        q = model_from_state(model_state(p))
        assert isinstance(q, AnalyticalPredictor)
        assert q.grid == (1024, 1024)


class TestSelector:
    def test_selects_a_candidate(self):
        sel = AnalyticalSelector()
        choice = sel.select(get("star2d1r"), "V100")
        assert choice in DEFAULT_CANDIDATES

    def test_memoized_and_deterministic(self):
        a = AnalyticalSelector()
        b = AnalyticalSelector()
        s = get("star3d1r")
        first = a.select(s, "A100")
        assert a.select(s, "A100") == first  # memo path
        assert b.select(s, "A100") == first  # fresh instance agrees
        assert a._memo  # the memo actually filled

    def test_memo_is_a_bounded_lru(self, monkeypatch):
        monkeypatch.setattr(analytical, "MEMO_CAPACITY", 2)
        sel = AnalyticalSelector(candidates=("naive", "ST"), n_settings=1)
        computed = []
        uncached = sel._recommend_uncached

        def counting(stencil, gpu):
            computed.append(stencil.name)
            return uncached(stencil, gpu)

        monkeypatch.setattr(sel, "_recommend_uncached", counting)
        a, b, c = (get(n) for n in ("star2d1r", "box2d1r", "star2d2r"))
        first = sel.recommend(a, "V100")
        sel.recommend(b, "V100")
        sel.recommend(c, "V100")
        assert list(sel._memo) == [(b.cache_key(), "V100"), (c.cache_key(), "V100")]
        # The evicted oldest pick is recomputed, to the same answer.
        assert sel.recommend(a, "V100") == first
        assert computed == ["star2d1r", "box2d1r", "star2d2r", "star2d1r"]
        # A hit refreshes recency: touching c leaves a as the oldest, so
        # a (not c) makes room when b returns.
        sel.recommend(c, "V100")
        sel.recommend(b, "V100")
        assert computed[-1] == "box2d1r"
        assert list(sel._memo) == [(c.cache_key(), "V100"), (b.cache_key(), "V100")]

    def test_select_many_matches_select(self):
        sel = AnalyticalSelector(n_settings=1)
        stencils = [get(n) for n in ("star2d1r", "box2d1r")]
        assert sel.select_many(stencils, "V100") == [
            sel.select(s, "V100") for s in stencils
        ]

    def test_restricted_candidates_honored(self):
        sel = AnalyticalSelector(candidates=("naive",))
        assert sel.select(get("star2d1r"), "V100") == "naive"

    def test_serialization_round_trip(self):
        sel = AnalyticalSelector(
            candidates=("naive", "ST"), n_settings=3, seed=5, grid=(512, 512)
        )
        back = model_from_state(model_state(sel))
        assert isinstance(back, AnalyticalSelector)
        assert back.candidates == ("naive", "ST")
        assert back.n_settings == 3 and back.seed == 5
        assert back.grid == (512, 512)
        # Restored instance answers identically (fresh memo).
        s = get("star2d1r")
        assert back.select(s, "V100") == sel.select(s, "V100")

    def test_from_state_requires_candidates(self):
        with pytest.raises(ModelError, match="candidates"):
            AnalyticalSelector.from_state({"n_settings": 2})
