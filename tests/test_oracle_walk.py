"""The integer prefix walk of the pointwise oracle against the TermSum route,
against sympy, and its memory behaviour."""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radnorm import symdiff
from radnorm.constants import NormKind, ell_closed, gamma_closed
from radnorm.symdiff import SamplePoint, _leaf_values, derivative, grad_norm_sq, verify_constancy

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


def walk_leaves(n, kind, k, point):
    leaves, _ = _leaf_values(n, kind, k, [point])
    return {combo: value for combo, (value,) in leaves.items()}


@pytest.mark.parametrize("kind", KINDS, ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_leaf_matches_termsum_route(n, kind):
    points = [SamplePoint(coords[:n]) for coords in POINTS]
    for k in range(0 if kind.is_power else 1, 6):
        leaves, scales = _leaf_values(n, kind, k, points)
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
