"""The integer prefix walk of the pointwise oracle against the TermSum route,
against sympy, and its memory behaviour."""

import gc
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radnorm import constants, symdiff
from radnorm.cli import _KINDS
from radnorm.constants import NormKind, ell_closed, gamma_closed
from radnorm.symdiff import (
    MAX_ORDERED_TUPLES,
    CapacityError,
    SamplePoint,
    _dimension_split_checks,
    _fixed_sample_points,
    _MonomialTable,
    _multiset_weights,
    _rescaled_sums,
    _walk,
    derivative,
    dimension_split_check,
    grad_norm_sq,
    rescaled_grad_norms,
    verify_constancy,
)

LOG = NormKind.logarithm()
KINDS = [LOG, NormKind.power(0), NormKind.power(3), NormKind.power(-2),
         NormKind.power(Fraction(1, 2)), NormKind.power(Fraction(-7, 3))]
POINTS = [
    (Fraction(1, 2), Fraction(-3), Fraction(2, 5), Fraction(0)),
    (Fraction(2), Fraction(1, 3), Fraction(-1), Fraction(5, 7)),
    (Fraction(-4, 9), Fraction(0), Fraction(0), Fraction(0)),
]


def denominators(kind, point):
    """b (s = a/b), Q (the coordinates' common denominator) and R = |Q x|^2."""
    q = lcm(*(c.denominator for c in point.coords))
    b = kind.s.denominator if kind.is_power else 1
    return b, q, sum((c * q) ** 2 for c in point.coords)


def leaf_scale(kind, k, point):
    """Leaf value S over D_combo u / r^s: b^k R^k / Q^k."""
    b, q, r = denominators(kind, point)
    return Fraction(b * r, q) ** k


def termsum_leaves(n, kind, k, point):
    """The walk's leaf values rebuilt from derivative().evaluate_reduced()."""
    scale = leaf_scale(kind, k, point)
    return {
        combo: derivative(n, kind, combo).evaluate_reduced(point) * scale
        for combo in combinations_with_replacement(range(1, n + 1), k)
    }


def leaf_values(n, kind, k, points):
    """Every k-th partial at every point, the leaves of one ``_walk``:
    {combo: [S per point]} over the sorted 1-based multisets, and
    b^(2k) R^k per point.

    With P = Q x integer over the common denominator Q and R = |P|^2,
    homogeneity (|beta| - 2u = -k) gives D_combo u / r^s = Q^k S / (b R)^k
    with S = sum c P^beta R^(k-u), and r^(2k) (D_combo u / r^s)^2 =
    S^2 / (b^(2k) R^k).
    """
    table = _MonomialTable(n, kind, k, points)
    return {combo: values for combo, _, values in _walk(n, kind, k, table)}, table.scales


def walk_leaves(n, kind, k, point):
    leaves, _ = leaf_values(n, kind, k, [point])
    return {combo: value for combo, (value,) in leaves.items()}


@pytest.mark.parametrize("kind", KINDS, ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_leaf_matches_termsum_route(n, kind):
    points = [SamplePoint(coords[:n]) for coords in POINTS]
    for k in range(0 if kind.is_power else 1, 6):
        leaves, scales = leaf_values(n, kind, k, points)
        for i, point in enumerate(points):
            expected = termsum_leaves(n, kind, k, point)
            assert {combo: values[i] for combo, values in leaves.items()} == expected
            b, _, r = denominators(kind, point)
            assert scales[i] == b ** (2 * k) * r ** k


exponents = st.builds(
    Fraction, st.integers(min_value=-40, max_value=40), st.integers(min_value=1, max_value=9)
)
coordinates = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=9)
)


@settings(max_examples=60, deadline=None)
@given(
    s=st.one_of(st.none(), exponents),
    n=st.integers(min_value=1, max_value=3),
    k=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_walk_matches_termsum_and_closed_form(s, n, k, data):
    kind = LOG if s is None else NormKind.power(s)
    coords = data.draw(st.lists(coordinates, min_size=n, max_size=n).filter(any))
    point = SamplePoint(tuple(coords))
    assert walk_leaves(n, kind, k, point) == termsum_leaves(n, kind, k, point)
    expected = ell_closed(n, k) if s is None else gamma_closed(n, s, k)
    assert grad_norm_sq(n, kind, k, point, rescaled=True) == expected


def closed_form(kind, n, k):
    return ell_closed(n, k) if not kind.is_power else gamma_closed(n, kind.s, k)


def folded_leaves(n, kind, k, points):
    """r^(2k) |D^k u / r^s|^2 per point, folded from ``leaf_values``."""
    leaves, scales = leaf_values(n, kind, k, points)
    weights = _multiset_weights(n, k)
    return [
        Fraction(sum(weights[combo] * values[i] ** 2 for combo, values in leaves.items()), scale)
        for i, scale in enumerate(scales)
    ]


@pytest.mark.parametrize("kind", [NormKind.power(0), LOG], ids=str)
def test_carried_weight_is_the_multinomial(kind):
    # With no points the walk only differentiates (and power(0) has no terms
    # past the root), so the whole box n <= 6, k <= 10 stays cheap.
    for n in range(1, 7):
        for k in range(0 if kind.is_power else 1, 11):
            table = _MonomialTable(n, kind, k, [])
            weights = {combo: weight for combo, weight, _ in _walk(n, kind, k, table)}
            assert weights == _multiset_weights(n, k)


@settings(max_examples=40, deadline=None)
@given(
    s=st.one_of(st.none(), exponents),
    n=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_streamed_sums_equal_folded_leaves_and_closed_form(s, n, k, data):
    kind = LOG if s is None else NormKind.power(s)
    points = data.draw(st.lists(
        st.lists(coordinates, min_size=n, max_size=n).filter(any), min_size=1, max_size=3,
    ))
    points = [SamplePoint(tuple(coords)) for coords in points]
    streamed = _rescaled_sums(n, kind, k, points)
    assert streamed == folded_leaves(n, kind, k, points)
    assert streamed == [closed_form(kind, n, k)] * len(points)


EDGE_POINTS = [SamplePoint((Fraction(-3, 7),)), SamplePoint((Fraction(5, 2),))]


@pytest.mark.parametrize("kind", [LOG, NormKind.power(Fraction(-7, 3)), NormKind.power(5)], ids=str)
def test_one_dimension_at_the_top_order(kind):
    # At n = 1 and k = 10 the exponent digit reaches k, the largest a digit holds.
    for point in EDGE_POINTS:
        assert walk_leaves(1, kind, 10, point) == termsum_leaves(1, kind, 10, point)
    assert rescaled_grad_norms(1, kind, 10, EDGE_POINTS) == [closed_form(kind, 1, 10)] * 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_order_zero_power_and_order_one_log(n):
    points = [SamplePoint(coords[:n]) for coords in POINTS[:2]]
    for kind, k in [(NormKind.power(Fraction(1, 2)), 0), (NormKind.power(-3), 0), (LOG, 1)]:
        for point in points:
            assert walk_leaves(n, kind, k, point) == termsum_leaves(n, kind, k, point)
        assert rescaled_grad_norms(n, kind, k, points) == [closed_form(kind, n, k)] * 2


@pytest.mark.parametrize("s", [0, 2, -2])
def test_even_integer_exponents(s):
    # At s = 0 and s = 2 the up step's factor s - 2u vanishes for some u.
    kind = NormKind.power(s)
    for n in (1, 2, 3):
        points = [SamplePoint(coords[:n]) for coords in POINTS[:2]]
        for k in range(0, 7):
            for point in points:
                assert walk_leaves(n, kind, k, point) == termsum_leaves(n, kind, k, point)
            assert _rescaled_sums(n, kind, k, points) == [closed_form(kind, n, k)] * 2


def test_multi_point_split_check_matches_single_points():
    for n in (2, 3):
        points = [SamplePoint(coords[:n]) for coords in POINTS]
        for kind in KINDS:
            for k in (1, 2, 3):
                checks = _dimension_split_checks(n, kind, k, points)
                assert checks == [dimension_split_check(n, kind, k, p) for p in points]
                assert all(checks)


def split_section_checks(k):
    """The identities section's split checks at order k: n = 2..3, its three
    kinds and the first three fixed points."""
    return [check for n in (2, 3) for kind in _KINDS
            for check in _dimension_split_checks(n, kind, k, _fixed_sample_points(n)[:3])]


def test_split_check_fails_on_a_wrong_leaf_or_a_wrong_recursion(monkeypatch):
    real_walk, real_evens = symdiff._walk, constants._evens

    def shifted_leaves(*args):
        # S -> S + d with d = 2|S| + 1 adds w d (2S + d) > 0 to every term, so
        # no sum is left unchanged (a shift shared by all leaves may cancel).
        for combo, weight, values in real_walk(*args):
            yield combo, weight, [value + 2 * abs(value) + 1 for value in values]

    with monkeypatch.context() as patch:
        patch.setattr(symdiff, "_walk", shifted_leaves)
        for k in range(1, 5):
            assert not any(split_section_checks(k)), k
    # E(n, l) in place of E(n - 1, l); order 1 reads only E(., 0) = 1.
    with monkeypatch.context() as patch:
        patch.setattr(constants, "_evens", lambda n, k: real_evens(n + 1, k))
        assert all(split_section_checks(1))
        for k in range(2, 5):
            assert not all(split_section_checks(k)), k


def test_a_walk_retains_nothing():
    points = [SamplePoint(coords) for coords in POINTS[:2]]
    kind = NormKind.power(Fraction(-7, 3))
    calls = [
        lambda: rescaled_grad_norms(4, kind, 6, points),
        lambda: rescaled_grad_norms(4, LOG, 5, points, weighted=False),
        lambda: leaf_values(4, kind, 6, points),
    ]
    tracemalloc.start()
    try:
        for call in calls:
            call()
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            gc.disable()
            try:
                call()
                # No reference cycles: the call's memory went when it returned.
                assert gc.collect() == 0
            finally:
                gc.enable()
            after, peak = tracemalloc.get_traced_memory()
            assert peak - before > 10_000  # the walk did allocate
            assert after - before < 512
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", [LOG, NormKind.power(3), NormKind.power(Fraction(-7, 3))], ids=str)
def test_walk_and_termsum_match_sympy(kind):
    sympy = pytest.importorskip("sympy")
    for n in (1, 2, 3):
        xs = sympy.symbols(f"x1:{n + 1}")
        r_sq = sum(x ** 2 for x in xs)
        if kind.is_power:
            u = r_sq ** (sympy.Rational(kind.s.numerator, kind.s.denominator) / 2)
        else:
            u = sympy.log(r_sq) / 2
        for coords in POINTS[:2]:
            point = SamplePoint(coords[:n])
            at = dict(zip(xs, (sympy.Rational(c.numerator, c.denominator) for c in point.coords)))
            for k in (1, 2, 3):
                scale = leaf_scale(kind, k, point)
                walk = walk_leaves(n, kind, k, point)
                for combo in combinations_with_replacement(range(1, n + 1), k):
                    d = sympy.diff(u, *(xs[a - 1] for a in combo))
                    # D u / r^s; for the power kind u = r^s, so divide by u.
                    value = (d / u if kind.is_power else d).subs(at)
                    assert value.is_Rational
                    expected = Fraction(int(value.p), int(value.q))
                    assert derivative(n, kind, combo).evaluate_reduced(point) == expected
                    assert walk[combo] == expected * scale


def test_fresh_exponents_leave_symdiff_caches_unchanged():
    caches = {name: obj for name, obj in vars(symdiff).items() if hasattr(obj, "cache_info")}
    points = [SamplePoint((1, 0, 0)), SamplePoint((1, 2, 2)), SamplePoint((Fraction(1, 2), -3, 1))]
    verify_constancy(3, NormKind.power(Fraction(1, 3)), 4, points)
    before = {name: cache.cache_info().currsize for name, cache in caches.items()}
    for i in range(30):
        report = verify_constancy(3, NormKind.power(Fraction(2 * i + 1, 13)), 4, points)
        assert report.exact_match
    assert {name: cache.cache_info().currsize for name, cache in caches.items()} == before


def test_ordered_tuple_routes_raise_before_enumerating():
    point5, point6 = SamplePoint((1, 2, 0, -1, 3)), SamplePoint((1, 2, 0, -1, 3, 1))
    start = time.perf_counter()
    for call in (
        lambda: grad_norm_sq(6, LOG, 8, point6, weighted=False, rescaled=True),
        lambda: rescaled_grad_norms(6, LOG, 8, [point6, point6], weighted=False),
    ):
        with pytest.raises(CapacityError, match="ordered index tuples"):
            call()
    # The split check walks the sorted multisets and lists no ordered tuple,
    # so it runs past the tuple cap, up to the box.
    assert dimension_split_check(5, LOG, 10, point5)
    points6 = _fixed_sample_points(6)[:3]
    assert _dimension_split_checks(6, NormKind.power(Fraction(1, 2)), 10, points6) == [True] * 3
    assert time.perf_counter() - start < 1.0
    # 4^8 tuples are inside the cap; the weighted walk is not capped by n^k
    assert 4 ** 8 <= MAX_ORDERED_TUPLES < 6 ** 8
    assert dimension_split_check(4, LOG, 8, SamplePoint((1, 2, 0, -1)))
    assert rescaled_grad_norms(6, LOG, 8, [point6], weighted=True) == [ell_closed(6, 8)]


@settings(max_examples=120, deadline=None)
@given(
    kind=st.one_of(st.just(LOG), st.builds(lambda p, q: NormKind.power(Fraction(p, q)),
                                           st.integers(-40, 40), st.integers(1, 9))),
    n=st.integers(1, 4),
    data=st.data(),
)
def test_step_never_cancels_a_coefficient(kind, n, data):
    # Down and up contributions to one key share the sign of prod_{j<u} (a - 2jb)
    # (of prod_{1<=j<u} (-2j) for log|x|), so _step has no zero entry to drop.
    k = data.draw(st.integers(1, 8))
    axes = data.draw(st.lists(st.integers(1, n), min_size=k, max_size=k))
    a, b = (kind.s.numerator, kind.s.denominator) if kind.is_power else (0, 1)
    base, top = k + 1, (k + 1) ** n
    places = [base ** i for i in range(n)]
    down_factors = [e * b for e in range(base)]
    up_factors = [a - 2 * u * b for u in range(k + 1)]
    roots = [{0: 1}] if kind.is_power else [{places[i] + top: 1} for i in range(n)]
    for terms in roots:
        for axis in axes[0 if kind.is_power else 1:]:  # a log root is already order 1
            terms = symdiff._step(terms, places[axis - 1], base, top, down_factors, up_factors)
            for key, c in terms.items():
                u = key // top
                factors = up_factors[:u] if kind.is_power else range(-2, -2 * u, -2)
                assert c * prod(factors) > 0, (key, c)
