"""Brute-force oracle for derivatives of radial powers and log|x|.

Functions are finite sums of terms

    coeff * x^beta * r^(b + j),    r = |x|,

where the rational base exponent ``b`` is shared by the whole sum
(``NormKind.radial_base``: s for |x|^s, 0 for log|x| = lim (|x|^s - 1) / s),
``beta`` is a vector of nonnegative integer exponents and ``j`` is an even
integer offset.  The class is closed under partial differentiation:

    d/dx_i [x^beta r^t] = beta_i x^(beta - e_i) r^t + t x^(beta + e_i) r^(t-2).

Every step keeps ``j`` even, so dividing the common r^b factor out leaves
only integer powers of r^2.  log r lies outside the class, so ``seed`` starts
logarithm-kind sums at order 1 with the gradient components x_i * r^(-2).

``TermSum`` keeps such sums canonical, with Fraction coefficients, for the
symbolic identities.  Every operation that makes terms (``build``, ``+``,
``scale``, ``multiply``, ``differentiate``, ``laplacian``, the symbolic norm
and the reduction below) lists ((monomial, offset), coeff) parts and hands
them to one merge, ``TermSum._merged``, which adds equal keys, drops zeros
and sorts.  ``functions_equal`` reduces both sides by
x_n^2 = r^2 - sum_{i<n} x_i^2 to a normal form that is unique.  The
pointwise norms apply the same rule in integers (``_walk``): one walk takes
the sorted axis multisets in lexicographic order and differentiates each
from its prefix on a stack of the current multiset's prefixes, with the
multinomial weight; a term x^beta r^(-2u) is keyed by the single integer
sum beta_i B^i + u B^n with B = k + 1.  Each leaf is evaluated at all
points at once from a monomial table that lives for the call, and the norms
add weight * S^2 into per-point totals as they stream by, so none is stored.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import lcm, prod
from operator import add, mul
from typing import Iterable, Mapping, Sequence

from .constants import FORMULAS, ConstantQuery, NormKind, gamma_special
from .exactnum import Rational, _as_int, as_rational, factorial, format_rational, rational_pow

__all__ = [
    "MAX_DIMENSION",
    "MAX_ORDER",
    "MAX_ORDERED_TUPLES",
    "CapacityError",
    "Term",
    "TermSum",
    "SamplePoint",
    "VerifyReport",
    "seed",
    "seed_order",
    "differentiate",
    "laplacian",
    "derivative",
    "grad_norm_sq",
    "grad_norm_sq_symbolic",
    "rescaled_grad_norms",
    "tilde_norm_sq",
    "verify_constancy",
    "dimension_split_check",
    "laplacian_recursion_check",
    "functions_equal",
    "is_zero_function",
    "random_rational",
    "default_sample_points",
]

# Exhaustive-enumeration caps; larger requests raise CapacityError.
MAX_DIMENSION = 6
MAX_ORDER = 10
# The one route that lists every ordered index tuple (the unweighted squared
# norm) takes n^k steps in Python: 10^5 tuples cost about 0.1 s, while (6, 8)
# is 1.7 * 10^6 and (6, 10) 6 * 10^7.
MAX_ORDERED_TUPLES = 100_000


class CapacityError(Exception):
    """A request exceeds the exhaustive-enumeration scale this oracle supports."""


class Term(namedtuple("Term", "coeff monomial radial_offset")):
    """One summand coeff * x^monomial * r^(base + radial_offset)."""

    __slots__ = ()


class TermSum(namedtuple("TermSum", "n_vars radial_base terms")):
    """A canonical finite sum of Terms sharing one radial base exponent."""

    __slots__ = ()

    @classmethod
    def build(
        cls,
        n_vars: int,
        radial_base,
        entries: Mapping[tuple[tuple[int, ...], int], Rational] | Iterable,
    ) -> "TermSum":
        """Merge, drop zero coefficients, and sort into canonical order."""
        n_vars = _as_int(n_vars)
        if n_vars < 1:
            raise ValueError("n_vars must be >= 1")
        parts = []
        items = entries.items() if isinstance(entries, Mapping) else entries
        for (monomial, offset), coeff in items:
            monomial = tuple(map(_as_int, monomial))
            if len(monomial) != n_vars or any(e < 0 for e in monomial):
                raise ValueError(f"bad monomial {monomial} for n_vars={n_vars}")
            parts.append(((monomial, _as_int(offset)), as_rational(coeff)))
        return cls._merged(n_vars, as_rational(radial_base), parts)

    @classmethod
    def _merged(cls, n_vars: int, radial_base: Rational, parts: Iterable) -> "TermSum":
        """The canonical sum of ((monomial, offset), coeff) parts with valid
        keys and Fraction coefficients: equal keys add, zeros drop, terms sort."""
        merged: dict[tuple[tuple[int, ...], int], Fraction] = {}
        for key, c in parts:
            merged[key] = merged[key] + c if key in merged else c
        return cls(n_vars, radial_base, tuple(Term(c, *key) for key, c in sorted(merged.items()) if c))

    @classmethod
    def single(cls, n_vars: int, radial_base, monomial: tuple[int, ...], offset: int, coeff) -> "TermSum":
        return cls.build(n_vars, radial_base, {(tuple(monomial), offset): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "TermSum") -> "TermSum":
        if self.n_vars != other.n_vars or self.radial_base != other.radial_base:
            raise ValueError("cannot add sums with different dimension or radial base")
        return TermSum._merged(self.n_vars, self.radial_base,
                               (((m, j), c) for c, m, j in self.terms + other.terms))

    def scale(self, factor) -> "TermSum":
        factor = as_rational(factor)
        return TermSum._merged(self.n_vars, self.radial_base,
                               (((m, j), c * factor) for c, m, j in self.terms))

    def multiply(self, other: "TermSum") -> "TermSum":
        """Product of two sums; the radial bases add."""
        if self.n_vars != other.n_vars:
            raise ValueError("dimension mismatch")
        return TermSum._merged(self.n_vars, self.radial_base + other.radial_base, (
            ((tuple(map(add, ma, mb)), ja + jb), ca * cb)
            for ca, ma, ja in self.terms for cb, mb, jb in other.terms
        ))

    def differentiate(self, axis: int) -> "TermSum":
        """Exact partial derivative along 1-based axis; stays in the class."""
        a = _as_int(axis) - 1
        if not 0 <= a < self.n_vars:
            raise ValueError(f"axis {axis} out of range 1..{self.n_vars}")
        parts = []
        for c, monomial, j in self.terms:
            e = monomial[a]
            if e:
                parts.append(((monomial[:a] + (e - 1,) + monomial[a + 1:], j), c * e))
            exponent = self.radial_base + j
            if exponent:
                parts.append(((monomial[:a] + (e + 1,) + monomial[a + 1:], j - 2), c * exponent))
        return TermSum._merged(self.n_vars, self.radial_base, parts)

    def laplacian(self) -> "TermSum":
        """Sum of the n second partials."""
        return TermSum._merged(self.n_vars, self.radial_base, (
            ((m, j), c) for axis in range(1, self.n_vars + 1)
            for c, m, j in self.differentiate(axis).differentiate(axis).terms
        ))

    def evaluate_reduced(self, point: "SamplePoint") -> Rational:
        """Value at the point divided by the common r^radial_base factor.

        Only integer powers of the rational r^2 are formed, so the result is
        always an exact Rational.
        """
        if len(point.coords) != self.n_vars:
            raise ValueError("point dimension mismatch")
        r_sq = point.r_sq
        total = Fraction(0)
        for t in self.terms:
            if t.radial_offset % 2:
                raise ValueError("odd radial offset cannot be evaluated exactly")
            value = t.coeff
            for x, e in zip(point.coords, t.monomial):
                if e:
                    value *= x ** e
            total += value * r_sq ** (t.radial_offset // 2)
        return total


class SamplePoint(namedtuple("SamplePoint", "coords")):
    """A rational point of R^n, never the origin; floats and bools raise TypeError."""

    __slots__ = ()

    def __new__(cls, coords: Iterable):
        coords = tuple(as_rational(c) for c in coords)
        if not coords:
            raise ValueError("a sample point needs at least one coordinate")
        if all(c == 0 for c in coords):
            raise ValueError("the origin is outside the domain")
        return super().__new__(cls, coords)

    @property
    def r_sq(self) -> Rational:
        return sum(c * c for c in self.coords)

    def text(self) -> str:
        return ",".join(format_rational(c) for c in self.coords)

    def __str__(self) -> str:
        return f"({self.text()})"


class VerifyReport(namedtuple("VerifyReport",
                              "query method_values point_values verdict detail elapsed_ms stage_ms")):
    """Outcome of one constancy check: oracle values per point vs. formulas.
    ``stage_ms`` is the wall time per stage ("oracle", "closed", "recursive")."""

    __slots__ = ()

    @property
    def exact_match(self) -> bool:
        return self.verdict == "exact-match"


def _check_scale(n: int, k: int) -> None:
    if n > MAX_DIMENSION or k > MAX_ORDER:
        raise CapacityError(
            f"n={n}, k={k} exceeds the desk-scale caps "
            f"(n <= {MAX_DIMENSION}, k <= {MAX_ORDER})"
        )


def _check_tuples(n: int, k: int) -> None:
    if n ** k > MAX_ORDERED_TUPLES:
        raise CapacityError(
            f"n={n}, k={k} needs {n ** k} ordered index tuples, "
            f"over the enumeration cap of {MAX_ORDERED_TUPLES}"
        )


def seed_order(kind: NormKind) -> int:
    """Derivative order already carried by the seed components (0 or 1)."""
    return 0 if kind.is_power else 1


def seed(n: int, kind: NormKind) -> tuple[TermSum, ...]:
    """Symbolic starting point for the family on R^n.

    Power kind: the single sum {1 * r^s}.  Logarithm kind: the n gradient
    components {x_i * r^(-2)}, i.e. the order-1 derivatives, since log r
    itself lies outside the term class.
    """
    ConstantQuery(n, seed_order(kind), kind)
    if kind.is_power:
        return (TermSum.single(n, kind.s, (0,) * n, 0, 1),)
    components = []
    for i in range(n):
        monomial = tuple(1 if j == i else 0 for j in range(n))
        components.append(TermSum.single(n, 0, monomial, -2, 1))
    return tuple(components)


def differentiate(u: TermSum, axis: int) -> TermSum:
    """Partial derivative of a TermSum along the 1-based axis."""
    return u.differentiate(axis)


def laplacian(u: TermSum) -> TermSum:
    """Laplacian of a TermSum (dimension taken from the sum itself)."""
    return u.laplacian()


def derivative(n: int, kind: NormKind, axes: Sequence[int]) -> TermSum:
    """The mixed partial D_axes of |x|^s or log|x| on R^n, as a TermSum.

    ``axes`` is the full tuple of 1-based differentiation indices; for the
    logarithm kind it must be nonempty.
    """
    axes = tuple(map(_as_int, axes))
    if any(not 1 <= a <= n for a in axes):
        raise ValueError(f"axes {axes} out of range 1..{n}")
    if kind.is_power:
        u, rest = seed(n, kind)[0], axes
    elif axes:
        u, rest = seed(n, kind)[axes[-1] - 1], axes[:-1]
    else:
        raise ValueError("the logarithm function itself is outside the term class")
    for axis in rest:
        u = u.differentiate(axis)
    return u


def _multiset_weights(n: int, k: int) -> dict[tuple[int, ...], int]:
    """k!/prod(multiplicities!) for every sorted multiset of k axes in 1..n."""
    weights = {}
    for combo in combinations_with_replacement(range(1, n + 1), k):
        weights[combo] = factorial(k) // prod(factorial(combo.count(a)) for a in set(combo))
    return weights


def _validate_norm_args(n: int, kind: NormKind, k: int, points: Sequence[SamplePoint]) -> ConstantQuery:
    query = ConstantQuery(n, k, kind)
    if any(len(point.coords) != n for point in points):
        raise ValueError("point dimension mismatch")
    _check_scale(n, k)
    return query


class _MonomialTable(dict):
    """key -> (P^beta R^(k-u) at each point) for one walk, each entry decoded
    and filled the first time a leaf needs it.

    Point j enters as P = Q x, integer over the coordinates' common
    denominator Q, with R = |P|^2; ``scales[j]`` is b^(2k) R^k.
    """

    def __init__(self, n: int, kind: NormKind, k: int, points: Sequence[SamplePoint]):
        super().__init__()
        b = kind.radial_base.denominator
        self.base, self.top = k + 1, (k + 1) ** n
        coords, radii = [], []
        for point in points:
            q = lcm(*(c.denominator for c in point.coords))
            coords.append([c.numerator * (q // c.denominator) for c in point.coords])
            radii.append(sum(x * x for x in coords[-1]))
        # powers[i][e] and radial[u]: tuples over the points.
        self.powers = [[tuple(p[i] ** e for p in coords) for e in range(k + 1)] for i in range(n)]
        self.radial = [tuple(r ** (k - u) for r in radii) for u in range(k + 1)]
        self.scales = [b ** (2 * k) * r ** k for r in radii]

    def __missing__(self, key: int) -> tuple[int, ...]:
        u, rest = divmod(key, self.top)
        value = self.radial[u]
        for powers in self.powers:
            rest, e = divmod(rest, self.base)
            if e:
                value = map(mul, value, powers[e])
        value = self[key] = tuple(value)
        return value


def _step(
    terms: dict, place: int, base: int, top: int, down_factors: Sequence[int], up_factors: Sequence[int]
) -> dict:
    """``TermSum.differentiate`` times b on the integer terms of ``_walk``,
    along the axis whose digit has the place value ``place``: a term with
    exponent e there and radial index u gains e*b = down_factors[e] one
    place down and a - 2ub = up_factors[u] one place up."""
    out: dict[int, int] = {}
    get = out.get
    for key, c in terms.items():
        d = down_factors[key // place % base]
        if d:
            down = key - place
            out[down] = get(down, 0) + c * d
        t = up_factors[key // top]
        if t:
            up = key + place + top
            out[up] = get(up, 0) + c * t
    # No entry is 0: both contributions to a key share the sign of prod_{j<u} up_factors[j].
    return out


def _walk(n: int, kind: NormKind, k: int, table: _MonomialTable):
    """Yield (combo, k!/prod(multiplicities!), [S per point]) for every
    sorted multiset of k axes in 1..n, in lexicographic order, from one walk.

    A node holds {key: c} for sum c x^beta r^(s - 2u) / b^depth with
    s = a/b and key = sum beta_i B^i + u B^n, B = k + 1: no exponent and
    no u exceeds the depth, so every digit fits.  Both families start at
    the root {0: 1}: log|x| is r^s / s at s = 0 (a = 0, b = 1), whose first
    step gives x_i r^-2.  The combos come from ``combinations_with_replacement``;
    nodes[d] holds the node and weight after combo[:d], and node d + 1 is node d
    differentiated along combo[d], its weight times (d + 1) / (the multiplicity
    of combo[d] in combo[:d + 1]).  The next combo first differs at the last
    axis below n, so only the nodes past it are rebuilt and each prefix is
    differentiated once.  Each leaf is S = sum c P^beta R^(k-u) at every point
    of ``table``.
    """
    a, b = kind.radial_base.as_integer_ratio()
    base, top = table.base, table.top
    places = [base ** i for i in range(n)]
    down_factors = [e * b for e in range(base)]
    up_factors = [a - 2 * u * b for u in range(k + 1)]
    if not kind.is_power:
        up_factors[0] = 1  # d(r^s / s) = x_i r^(s-2) at s = 0
    points = len(table.scales)

    def leaf(terms: dict) -> list[int]:
        if not terms:
            return [0] * points
        coeffs = terms.values()
        return [sum(map(mul, coeffs, column)) for column in zip(*map(table.__getitem__, terms))]

    nodes, depth = [({0: 1}, 1)], 0
    for combo in combinations_with_replacement(range(1, n + 1), k):
        del nodes[depth + 1:]
        for d in range(depth, k):
            terms, weight = nodes[d]
            axis = combo[d]
            nodes.append((_step(terms, places[axis - 1], base, top, down_factors, up_factors),
                          weight * (d + 1) // (d + 1 - combo.index(axis))))
        yield combo, nodes[k][1], leaf(nodes[k][0])
        depth = bisect_left(combo, n) - 1


def _rescaled_sums(
    n: int, kind: NormKind, k: int, points: Sequence[SamplePoint],
    weights: Mapping[tuple[int, ...], int] | None = None,
) -> list[Rational]:
    """r^(2k) sum_combo weight (D_combo u / r^s)^2 per point, folded at the
    leaves; ``weights=None`` takes the multinomial weight the walk carries."""
    table = _MonomialTable(n, kind, k, points)
    totals = [0] * len(points)
    for combo, weight, values in _walk(n, kind, k, table):
        if weights is not None:
            weight = weights[combo]
        for i, value in enumerate(values):
            totals[i] += weight * value * value
    return [Fraction(total, scale) for total, scale in zip(totals, table.scales)]


def _unrescale(kind: NormKind, k: int, point: SamplePoint, value: Rational) -> Rational:
    r_sq = point.r_sq
    return rational_pow(r_sq, kind.radial_base) * value / r_sq ** k


def grad_norm_sq(
    n: int,
    kind: NormKind,
    k: int,
    point: SamplePoint,
    weighted: bool = True,
    rescaled: bool = False,
) -> Rational:
    """Sum of squares of all n^k mixed k-th partials, evaluated at the point.

    ``weighted=True`` (the default) walks the nondecreasing index tuples with
    the multinomial weight k!/prod(multiplicities!); ``weighted=False`` lists
    all n^k ordered tuples only to count each sorted one (CapacityError when
    n^k exceeds MAX_ORDERED_TUPLES).  Both return the identical Rational.

    By default the raw value is returned; for the power family with
    fractional s that raw value is r^(2s) times a rational and may be
    irrational at a given point, in which case ValueError is raised.  With
    ``rescaled=True`` the value times r^(2(k-s)) (power) or r^(2k)
    (logarithm) is returned instead, which is always an exact Rational and
    is the point-independent constant.
    """
    (value,) = rescaled_grad_norms(n, kind, k, [point], weighted)
    return value if rescaled else _unrescale(kind, k, point, value)


def rescaled_grad_norms(
    n: int, kind: NormKind, k: int, points: Sequence[SamplePoint], weighted: bool = True
) -> list[Rational]:
    """``grad_norm_sq(n, kind, k, p, weighted, rescaled=True)`` at every point,
    from one walk."""
    _validate_norm_args(n, kind, k, points)
    if weighted:
        return _rescaled_sums(n, kind, k, points)
    _check_tuples(n, k)
    weights = Counter(tuple(sorted(tup)) for tup in product(range(1, n + 1), repeat=k))
    return _rescaled_sums(n, kind, k, points, weights)


def tilde_norm_sq(
    n: int,
    kind: NormKind,
    k: int,
    point: SamplePoint,
    rescaled: bool = False,
) -> Rational:
    """Unweighted sum of squares over nondecreasing index tuples only.

    Unlike ``grad_norm_sq`` this is *not* constant after rescaling, except
    for n = 1 or the power family with s in {0, 2}.  ``rescaled`` has the
    same meaning and exactness caveat as in ``grad_norm_sq``.
    """
    _validate_norm_args(n, kind, k, [point])
    weights = dict.fromkeys(combinations_with_replacement(range(1, n + 1), k), 1)
    (value,) = _rescaled_sums(n, kind, k, [point], weights)
    return value if rescaled else _unrescale(kind, k, point, value)


def grad_norm_sq_symbolic(n: int, kind: NormKind, k: int) -> TermSum:
    """The full squared-norm sum_i (D_i u)^2 as a single TermSum.

    Built from the multiset enumeration with multinomial weights; the radial
    base of the result is 2s (power) or 0 (logarithm).
    """
    _validate_norm_args(n, kind, k, ())
    parts = []
    for combo, weight in _multiset_weights(n, k).items():
        u = derivative(n, kind, combo)
        parts += (((m, j), c * weight) for c, m, j in u.multiply(u).terms)
    return TermSum._merged(n, 2 * kind.radial_base, parts)


def _proportional(p: SamplePoint, q: SamplePoint) -> bool:
    a, b = p.coords, q.coords
    return all(a[i] * b[j] == a[j] * b[i] for i in range(len(a)) for j in range(i + 1, len(a)))


def verify_constancy(
    n: int,
    kind: NormKind,
    k: int,
    points: Sequence[SamplePoint],
) -> VerifyReport:
    """Check that the rescaled oracle value is the same at every point and
    agrees exactly with the closed-form and recursive constants.

    The domain, point dimensions and oracle box are checked first.  Then
    n >= 2 needs two or more points not all on one ray, which only re-tests
    homogeneity; one comparison with the first point per point decides that.
    """
    query = _validate_norm_args(n, kind, k, points)
    if not points:
        raise ValueError("at least one sample point is required")
    if n >= 2 and len(points) < 2:
        raise ValueError("need at least two sample points")
    if n >= 2 and all(_proportional(points[0], q) for q in points[1:]):
        raise ValueError("sample points must not all be proportional")

    start = time.perf_counter()
    values = rescaled_grad_norms(n, kind, k, points)
    marks = [start, time.perf_counter()]
    method_values = {}
    for method in ("closed", "recursive"):
        method_values[method] = FORMULAS[method](n, kind, k)
        marks.append(time.perf_counter())
    stage_ms = {stage: (end - begin) * 1000.0
                for stage, begin, end in zip(("oracle", *method_values), marks, marks[1:])}
    verdict, detail = "exact-match", None
    distinct = set(values)
    if len(distinct) > 1:
        verdict = "mismatch"
        detail = "rescaled oracle values differ across points: " + ", ".join(
            f"{p}={format_rational(v)}" for p, v in zip(points, values)
        )
    else:
        # Equal values share one object, so a kept report holds the constant once.
        (oracle,) = distinct
        values = [oracle] * len(values)
        method_values = {m: oracle if v == oracle else v for m, v in method_values.items()}
        wrong = {m: v for m, v in method_values.items() if v != oracle}
        if wrong:
            verdict = "mismatch"
            detail = (
                f"oracle value {format_rational(oracle)} disagrees with "
                + ", ".join(f"{m}={format_rational(v)}" for m, v in wrong.items())
            )
    return VerifyReport(
        query, method_values, list(zip(points, values)),
        verdict, detail, (marks[-1] - start) * 1000.0, stage_ms,
    )


def dimension_split_check(n: int, kind: NormKind, k: int, point: SamplePoint) -> bool:
    """Check the oracle's rescaled norm at one point against the recursion.

    Splitting the squared norm along the last axis,

        sum_{i in I_n^k} (D_i u)^2
            = sum_j C(k,j) * sum_{i' in I_(n-1)^j} (D_i' D_n^(k-j) u)^2,

    makes the j = 2l group at a point of that axis the l-th term of the
    recursion in the even-order constants E(n-1, l), and odd groups vanish.
    Summed over j, that is ``gamma_recursive`` / ``ell_recursive``.  The walk's
    value is the same at every point, so a wrong derivative or a wrong
    recursion returns False.
    """
    (ok,) = _dimension_split_checks(n, kind, k, [point])
    return ok


def _dimension_split_checks(n: int, kind: NormKind, k: int, points: Sequence[SamplePoint]) -> list[bool]:
    """``dimension_split_check`` at every point, from one walk."""
    _validate_norm_args(n, kind, k, points)
    if n < 2:
        raise ValueError("splitting needs dimension >= 2")
    recursive = FORMULAS["recursive"](n, kind, k)
    return [value == recursive for value in _rescaled_sums(n, kind, k, points)]


def laplacian_recursion_check(n: int, k: int) -> bool:
    """Check the one-step recursion for the fundamental-solution exponent.

    With u = r^(2-n) (so that the Laplacian of u vanishes), the Laplacian of
    the squared (k-1)-th derivative norm of u must equal twice the squared
    k-th derivative norm, i.e. as functions

        Delta [ sum (D_i u)^2, |i| = k-1 ] = 2 * gamma * r^(2(2-n-k))

    where gamma is the order-k constant at s = -(n-2).  Verified as an exact
    symbolic identity.
    """
    kind = NormKind.power(2 - n)
    ConstantQuery(n, k, kind)
    if k < 1:
        raise ValueError("the recursion starts at order 1")
    _check_scale(n, k)
    norm_sq = grad_norm_sq_symbolic(n, kind, k - 1)
    lhs = norm_sq.laplacian()
    expected = TermSum.single(
        n, norm_sq.radial_base, (0,) * n, -2 * k, 2 * gamma_special(n, k)
    )
    return functions_equal(lhs, expected)


def _reduced(u: TermSum, shift: int) -> TermSum:
    """u * r^(2*shift - radial_base) over radial base 0, with beta_n <= 1 in
    every term.

    Each round rewrites every x_n^e with e >= 2 as x_n^(e-2) (r^2 - sum_{i<n}
    x_i^2) and merges like terms.  The form is unique: Q[x] is free over
    Q[x_1..x_(n-1), |x|^2] with basis {1, x_n}, so two sums that agree on R^n
    minus the origin (times a common r^(2m) clearing negative offsets) have
    the same form.

    Rounds reduce along x_n only, and each round merges the finished terms
    again with the rewritten ones.  On one shared Xeon core (Python 3.11.7,
    one ``functions_equal`` call each, two runs), at n = 4, 1 vs r^120 takes
    0.06-0.07 ms where the (sum x_i^2)^60 expansion took 560 ms, but
    x_4^(2m) vs x_1^(2m) takes 8-19, 125-257 and 2,650-3,940 ms at m = 10, 20
    and 40 where the expansion took 0.1 ms.  No caller builds either.
    """
    if any(j % 2 for _, _, j in u.terms):
        raise ValueError("odd radial offset has no polynomial form")
    n, last = u.n_vars, u.n_vars - 1
    u = TermSum._merged(n, Fraction(0), (((beta, j + 2 * shift), c) for c, beta, j in u.terms))
    while any(beta[last] > 1 for _, beta, _ in u.terms):
        parts = []
        for c, beta, j in u.terms:
            if beta[last] < 2:
                parts.append(((beta, j), c))
                continue
            down = beta[:last] + (beta[last] - 2,)
            parts.append(((down, j + 2), c))
            parts += (((down[:i] + (down[i] + 2,) + down[i + 1:], j), -c) for i in range(last))
        u = TermSum._merged(n, Fraction(0), parts)
    return u


def is_zero_function(u: TermSum) -> bool:
    """Whether u vanishes identically on R^n minus the origin."""
    return _reduced(u, 0).is_zero()


def functions_equal(a: TermSum, b: TermSum) -> bool:
    """Whether two sums represent the same function on R^n minus the origin.

    Both sides reach the normal form of ``_reduced`` over b's radial base.
    Radial bases differing by an even integer are reconciled; otherwise the
    scales are incompatible and only the zero function lives in both.
    """
    if a.n_vars != b.n_vars:
        raise ValueError("dimension mismatch")
    delta = a.radial_base - b.radial_base
    if delta.denominator != 1 or delta.numerator % 2:
        return is_zero_function(a) and is_zero_function(b)
    return _reduced(a, delta.numerator // 2) == _reduced(b, 0)


def random_rational(rng: random.Random) -> Rational:
    """A small random Fraction p/q, with p drawn from -7..7 and then q from 1..7."""
    return Fraction(rng.randint(-7, 7), rng.randint(1, 7))


@lru_cache(maxsize=MAX_DIMENSION)
def _fixed_sample_points(n: int) -> tuple[SamplePoint, ...]:
    """The seed-independent part of ``default_sample_points``: immutable, so
    every call shares the same points."""
    fixed = [
        tuple(Fraction(1 if i == 0 else 0) for i in range(n)),
        tuple(Fraction(1) for _ in range(n)),
        tuple(Fraction(i + 1) for i in range(n)),
    ]
    if n >= 2:
        fixed.append(tuple(Fraction(v) for v in [3, 4] + [0] * (n - 2)))
    return tuple(SamplePoint(coords) for coords in dict.fromkeys(fixed))


def default_sample_points(n: int, seed: int = 0) -> list[SamplePoint]:
    """Deterministic sample points: a fixed set plus two seeded random rationals.

    The fixed set is e_1, (1,...,1), (1,2,...,n) and, for n >= 2, (3,4,0,...);
    duplicates collapse (all four coincide at n = 1).  The two seeded points
    have coordinates p/q with |p| <= 7, q <= 7.  The seed is an integer, so
    the points never come from OS entropy (``seed=None``) or a hashed string.
    """
    n, seed = _as_int(n), _as_int(seed)
    if n < 1:
        raise ValueError("dimension must be >= 1")
    fixed = _fixed_sample_points(n)
    points = list(fixed)
    rng = random.Random(seed)
    for _ in range(1000):
        coords = tuple(random_rational(rng) for _ in range(n))
        if any(coords) and SamplePoint(coords) not in points:
            points.append(SamplePoint(coords))
            if len(points) == len(fixed) + 2:
                return points
    raise RuntimeError("could not draw enough distinct sample points")
