"""The stencil-scoped build_profile memo: bounded, and warm on repeats."""

import pytest

from repro.optimizations import OC, kernelmodel
from repro.optimizations.kernelmodel import StencilScopedMemo, build_profile
from repro.optimizations.params import ParamSetting
from repro.profiling import run_campaign
from repro.stencil import generate_population, star

NAIVE = OC.parse("naive")


@pytest.fixture(autouse=True)
def cold_memo():
    build_profile.cache_clear()
    yield
    build_profile.cache_clear()


def test_memo_keeps_at_most_32_stencils():
    for s in generate_population(2, 200, seed=3):
        build_profile(s, NAIVE, ParamSetting())
    info = build_profile.cache_info()
    assert info.stencils <= 32
    assert info.currsize <= 32
    assert info.misses == 200


def test_identical_campaign_rerun_is_warm():
    pop = generate_population(2, 5, seed=21)
    kwargs = dict(gpus=("V100", "A100"), n_settings=2, seed=4, backend="scalar")
    run_campaign(pop, **kwargs)
    before = build_profile.cache_info()
    run_campaign(pop, **kwargs)
    after = build_profile.cache_info()
    hits = after.hits - before.hits
    misses = after.misses - before.misses
    assert hits / (hits + misses) >= 0.95


def test_memo_matches_the_function_and_keys_by_stencil_equality():
    s = star(2, 1)
    same = star(2, 1, name="renamed")  # equal stencil, other label
    p = build_profile(s, NAIVE, ParamSetting())
    assert build_profile(same, NAIVE, ParamSetting()) is p
    assert build_profile.__wrapped__(s, NAIVE, ParamSetting()) == p
    assert build_profile.cache_info().stencils == 1


def test_entry_cap_evicts_least_recently_used_stencils(monkeypatch):
    monkeypatch.setattr(kernelmodel, "_MEMO_STENCILS", 4)
    monkeypatch.setattr(kernelmodel, "_MEMO_ENTRIES", 5)
    memo = StencilScopedMemo(lambda s, oc, setting, grid, w: object())
    pop = generate_population(2, 3, seed=8)
    for s in pop:
        for w in (32, 64):
            memo(s, NAIVE, ParamSetting(), None, w)
    info = memo.cache_info()
    assert info.currsize <= 5 and info.stencils == 2
    memo.cache_clear()
    assert memo.cache_info() == (0, 0, 5, 0, 0)


def test_deterministic_failures_are_memoized_and_raised_fresh():
    args = (star(2, 1), NAIVE, ParamSetting())
    errors = []
    for _ in range(2):
        with pytest.raises(kernelmodel.OptimizationError) as info:
            build_profile(*args, grid=(64,))
        errors.append(info.value)
    assert errors[0] is not errors[1]
    assert str(errors[0]) == str(errors[1])
    assert build_profile.cache_info()[:2] == (1, 1)


def test_other_exceptions_are_not_memoized():
    def boom(*args):
        raise RuntimeError("not a model outcome")

    memo = StencilScopedMemo(boom)
    for _ in range(2):
        with pytest.raises(RuntimeError):
            memo(star(2, 1), NAIVE, ParamSetting())
    assert memo.cache_info().currsize == 0
