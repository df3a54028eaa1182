"""The shared IR: memoized parsing must be invisible to every consumer.

:func:`repro.analysis.expr.parse_expr` is memoized by expression text and
:func:`repro.analysis.ir.parse_unit` shares one body IR between units
that differ only in ``#define`` lines.  These tests hold that sharing to
a differential contract: a warm, shared parse equals a parse with every
cache cleared (line numbers included), prices identically, and never
masks a malformed input behind a cached good one.
"""

import dataclasses
import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analysis import expr as E
from repro.analysis import ir
from repro.analysis.framework import clear_parse_cache
from repro.analysis.lint import feasible_settings
from repro.analysis.perfmodel import (
    EstimateError,
    _compose,
    estimate_kernel,
    extract_metrics,
)
from repro.codegen import generate_cuda, generate_hip
from repro.errors import KernelLaunchError
from repro.optimizations.combos import ALL_OCS
from repro.stencil.library import LIBRARY

#: One NVIDIA and one AMD target: the AMD one re-derives coalescing at
#: wavefront width 64 from the same extracted metrics.
TARGETS = ("V100", "MI100")
GENERATORS = {"cuda": generate_cuda, "hip": generate_hip}


def _clear_all() -> None:
    E.parse_expr.cache_clear()
    ir._parse_body.cache_clear()
    clear_parse_cache()


def _sweep():
    """The codegen digest's 714 (stencil, OC, setting) triples."""
    return [
        (s, oc, setting)
        for s in LIBRARY.values()
        for oc in ALL_OCS
        for setting in feasible_settings(s, oc, 1, seed=0)
    ]


def _same(a, b) -> bool:
    """Field equality where NaN equals NaN."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def _fields(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _assert_same_fields(cold, warm) -> None:
    cold_f, warm_f = _fields(cold), _fields(warm)
    for name, value in cold_f.items():
        assert _same(value, warm_f[name]), name


def _outcome(fn, *args):
    """Value, or the (type, message) of a typed analysis failure."""
    try:
        return fn(*args)
    except (KernelLaunchError, EstimateError) as e:
        return (type(e), str(e))


def _assert_same_estimate(cold, warm) -> None:
    if isinstance(cold, tuple):
        assert cold == warm
        return
    _assert_same_fields(cold.metrics, warm.metrics)
    assert _fields(cold) | {"metrics": None} == _fields(warm) | {"metrics": None}


def _body_lines(source: str) -> list:
    return [
        (n, line)
        for n, line in enumerate(source.splitlines(), 1)
        if not line.lstrip().startswith("#define")
    ]


@pytest.fixture(scope="module")
def sweep():
    triples = _sweep()
    assert len(triples) == 714
    return triples


@pytest.mark.parametrize("dialect", sorted(GENERATORS))
def test_warm_shared_parse_equals_cold_parse_over_the_sweep(sweep, dialect):
    generate = GENERATORS[dialect]
    sources = [generate(s, oc, setting) for s, oc, setting in sweep]
    _clear_all()
    warm = [ir.parse_unit(src) for src in sources]
    # Sharing is real: the sweep has fewer distinct kernels than units.
    assert len({id(u.kernel) for u in warm}) < len(warm)
    for (s, oc, setting), src, warm_unit in zip(sweep, sources, warm):
        warm_metrics = extract_metrics(warm_unit)
        _clear_all()
        cold_unit = ir.parse_unit(src)
        assert cold_unit == warm_unit
        assert cold_unit.kernel is not warm_unit.kernel
        cold_metrics = extract_metrics(cold_unit)
        _assert_same_fields(cold_metrics, warm_metrics)
        for gpu in TARGETS:
            cold = _outcome(_compose, cold_metrics, gpu)
            _assert_same_estimate(cold, _outcome(_compose, warm_metrics, gpu))
            if dialect == "cuda":
                warm_est = _outcome(estimate_kernel, s, oc, setting, gpu)
                _assert_same_estimate(cold, warm_est)


def test_statement_lines_follow_the_source_not_the_cache():
    s = LIBRARY["star2d1r"]
    oc = next(oc for oc in ALL_OCS if oc.name == "ST_RT")
    source = generate_cuda(s, oc, feasible_settings(s, oc, 1, seed=0)[0])
    shifted = source.replace("#define COEFF", "#define EXTRA 1\n#define COEFF", 1)
    a, b = ir.parse_unit(source), ir.parse_unit(shifted)
    assert b.kernel is not a.kernel
    assert b.kernel.line == a.kernel.line + 1
    assert [stmt.line for stmt, _ in ir.walk_stmts(b.kernel.body)] == [
        stmt.line + 1 for stmt, _ in ir.walk_stmts(a.kernel.body)
    ]
    assert b.macros["EXTRA"] == 1 and "EXTRA" not in a.macros


class TestErrorsAreNeverCached:
    GOOD = "__global__ void k(double* in)\n{\n    in[0] = 1.0;\n}\n"

    def test_malformed_source_raises_on_every_call(self):
        bad = self.GOOD.replace("in[0] = 1.0;", "while (1) {")
        ir.parse_unit(self.GOOD)
        for _ in range(3):
            with pytest.raises(ir.ParseError):
                ir.parse_unit(bad)
        assert ir.parse_unit(self.GOOD).kernel.name == "k"

    def test_malformed_expression_raises_on_every_call(self):
        E.parse_expr("a + b")
        for _ in range(3):
            with pytest.raises(E.ExprError):
                E.parse_expr("a + b)")
            with pytest.raises(E.ExprError):
                E.parse_expr("a + $b")
        assert E.parse_expr("a + b") == E.Bin("+", E.Name("a"), E.Name("b"))

    def test_good_body_does_not_mask_a_bad_one_with_equal_macros(self):
        good = "#define N 4\n" + self.GOOD
        bad = good.replace("in[0] = 1.0;", "in[0] = (1.0;")
        assert ir.parse_unit(good).macros == {"N": 4}
        for _ in range(2):
            with pytest.raises((ir.ParseError, E.ExprError)):
                ir.parse_unit(bad)


CELLS = [(s, oc) for s in LIBRARY.values() for oc in ALL_OCS]


@settings(max_examples=40, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    cell=st.sampled_from(CELLS),
    seed=st.integers(0, 2**16),
    gpu=st.sampled_from(TARGETS),
)
def test_define_only_variants_share_kernels_and_price_like_a_fresh_parse(cell, seed, gpu):
    s, oc = cell
    settings_ = feasible_settings(s, oc, 6, seed=seed)
    sources = [generate_cuda(s, oc, setting) for setting in settings_]
    pair = next(
        (
            (a, b)
            for i, a in enumerate(sources)
            for b in sources[i + 1:]
            if a != b and _body_lines(a) == _body_lines(b)
        ),
        None,
    )
    assume(pair is not None)
    a, b = pair
    unit_a, unit_b = ir.parse_unit(a), ir.parse_unit(b)
    assert unit_a.kernel is unit_b.kernel
    assert unit_a.host is unit_b.host
    assert unit_a.macros != unit_b.macros
    shared = [_outcome(_compose, extract_metrics(u), gpu) for u in (unit_a, unit_b)]
    _clear_all()
    fresh = [_outcome(_compose, extract_metrics(ir.parse_unit(src)), gpu) for src in pair]
    for got, want in zip(shared, fresh):
        _assert_same_estimate(want, got)
