"""Derivative-norm constants of radial power and logarithmic functions.

For u = |x|^s on R^n, the squared Euclidean norm of the full k-th order
derivative tensor (all n^k mixed partials) times |x|^(2(k-s)) is constant
on R^n minus the origin; for u = log|x| the same holds with weight |x|^(2k).
This module computes those constants exactly, three independent ways:

* ``gamma_closed`` / ``ell_closed`` -- the closed double-sum formulas,
* ``gamma_recursive`` / ``ell_recursive`` -- dimension recursion through a
  Taylor composition at the origin (``taylor_compose_norm_sq``),
* product formulas for special parameter values (``gamma_even``,
  ``gamma_special``, ``ell2_special``).

The standalone combinatorial facts the derivations rest on are exposed too
(``half_identity_check``, ``phi_deriv_at_zero``).

One builder, ``_terms``, gives both families' profile coefficients as ints
over their least common denominator: log|x| is |x|^s / s at s = 0, and
``NormKind.radial_base`` is s, or 0 for log|x|.  Only the coefficient callables
of ``taylor_compose_norm_sq`` go through ``Fraction`` (``_profile_terms``).
Both formula routes accumulate in ``int`` and build one ``Fraction`` at the
end; the product forms are integer products.  This module keeps no memo cache.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import comb, gcd, lcm, prod
from operator import index, mul
from typing import Callable

from .exactnum import Rational, _as_int, as_rational, binomial, factorial, format_rational

__all__ = [
    "NormKind",
    "ConstantQuery",
    "ConstantValue",
    "METHODS",
    "gamma_closed",
    "ell_closed",
    "gamma_1d",
    "ell_1d",
    "gamma_even",
    "gamma_special",
    "ell2_special",
    "gamma_recursive",
    "ell_recursive",
    "taylor_compose_norm_sq",
    "half_identity_check",
    "phi_deriv_at_zero",
    "power_coeffs",
    "log_coeffs",
    "evaluate_query",
    "FORMULAS",
]

_ZERO = Fraction(0)  # log|x|'s radial base, built once


class NormKind(namedtuple("NormKind", "variant s", defaults=(None,))):
    """Which function family is queried: |x|^s (power) or log|x|."""

    __slots__ = ()

    def __new__(cls, variant: str, s: Rational | None = None):
        if variant == "power":
            if s is None:
                raise ValueError("power kind requires an exponent s")
            s = as_rational(s)
        elif variant == "logarithm":
            if s is not None:
                raise ValueError("logarithm kind takes no exponent")
        else:
            raise ValueError(f"unknown kind {variant!r}")
        return super().__new__(cls, variant, s)

    @classmethod
    def power(cls, s) -> "NormKind":
        return cls("power", s)

    @classmethod
    def logarithm(cls) -> "NormKind":
        return cls("logarithm")

    @property
    def is_power(self) -> bool:
        return self.variant == "power"

    @property
    def radial_base(self) -> Rational:
        """The exponent of the common r^b factor of every derivative: s, or 0 for log|x|."""
        return self.s if self.is_power else _ZERO

    def __str__(self) -> str:
        if self.is_power:
            return f"power(s={format_rational(self.s)})"
        return "logarithm"


class ConstantQuery(namedtuple("ConstantQuery", "dimension order kind")):
    """A (dimension, derivative order, kind) triple identifying one constant.

    Building one is the domain check every constant shares: n and k are
    integers (bools and inexact values raise TypeError), n >= 1, and
    k >= 0 for |x|^s or k >= 1 for log|x|.
    """

    __slots__ = ()

    def __new__(cls, dimension: int, order: int, kind: NormKind):
        dimension, order = _as_int(dimension), _as_int(order)
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        if not kind.is_power and order < 1:
            raise ValueError("logarithm constants are defined for order >= 1 only")
        return super().__new__(cls, dimension, order, kind)


class ConstantValue(namedtuple("ConstantValue", "query value method")):
    """A computed constant together with the method that produced it."""

    __slots__ = ()

    def __new__(cls, query: ConstantQuery, value: Rational, method: str):
        value = as_rational(value)
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
        if value < 0:
            raise ValueError("a squared norm cannot be negative")
        if not query.kind.is_power and value == 0:
            raise ValueError("logarithm constants are strictly positive")
        return super().__new__(cls, query, value, method)


def _ceil_half(k: int) -> int:
    return (k + 1) // 2


def power_coeffs(s) -> Callable[[int], Rational]:
    """Taylor coefficients of (1+t)^(s/2): n -> C(s/2, n)."""
    s = as_rational(s)
    return lambda n: binomial(s / 2, n)


def log_coeffs() -> Callable[[int], Rational]:
    """Taylor coefficients of (1/2)log(1+t): n -> (-1)^(n-1) / (2n) for n >= 1."""

    def coeff(n: int) -> Rational:
        n = _as_int(n)
        if n < 1:
            raise ValueError("logarithm coefficients are defined for n >= 1 only")
        return Fraction(1 if n % 2 else -1, 2 * n)

    return coeff


def _terms(kind: NormKind, k: int) -> tuple[list[int], int]:
    # c_p = C(s/2, p) = prod_{u<p} (a - uw) / (w^p p!) with s = a/b, w = 2b; log|x| is
    # |x|^s / s at s = 0: a = 0, b = 1 and the first factor a/s is 1.  Over w^k k! the
    # numerator is prod_{u<p} (a - uw) w^(k-p) k!/p!: one forward product, one backward
    # scale, and one gcd that leaves the least common denominator.
    s = kind.radial_base
    a, w = s.numerator, 2 * s.denominator
    factors = [a if kind.is_power else 1, *range(a - w, a - k * w, -w)]  # a - uw, u = 0..k-1
    lo = _ceil_half(k)
    fallings = accumulate(factors[lo:k], mul, initial=prod(factors[:lo]))  # p = lo..k
    scales = [*accumulate(range(k * w, lo * w, -w), mul, initial=1)]  # p = k down to lo
    nums = list(map(mul, fallings, reversed(scales)))
    den = w ** k * factorial(k)
    g = gcd(den, *nums)
    return [c // g for c in nums], den // g


def _profile_terms(coeffs: Callable[[int], Rational], k: int) -> tuple[list[int], int]:
    # Any coefficient callable (taylor_compose_norm_sq): its values over their lcm.
    values = [as_rational(coeffs(p)) for p in range(_ceil_half(k), k + 1)]
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _closed_kernel(n: int, k: int, nums: list[int], den: int) -> Rational:
    # k! sum_l (k-2l)! l! ((n-3)/2+l)_l (sum_p 2^(2p-k+l) c_p C(p,k-p) C(k-p,l))^2
    # with c_p = nums[p - ceil(k/2)] / den.  rising = 2^l ((n-3)/2+l)_l
    # = (n-1)(n+1)...(n+2l-3) is an integer; the 2^-l it leaves is cleared
    # by the common factor 2^floor(k/2), so the sum stays an integer.
    half = k // 2
    total, rising = 0, 1
    for l in range(half + 1):
        inner = sum(
            (c * comb(p, k - p) * comb(k - p, l)) << (2 * p - k + l)
            for p, c in zip(range(_ceil_half(k), k - l + 1), nums)
        )
        total += (factorial(k - 2 * l) * factorial(l) * rising * inner * inner) << (half - l)
        rising *= n + 2 * l - 1
        if not rising:  # n = 1: only the l = 0 term survives
            break
    return Fraction(factorial(k) * total, den * den << half)


def _recursive_kernel(k: int, nums: list[int], den: int, evens: list[int]) -> Rational:
    # k! sum_l (k-2l)!/(2l)! (sum_p d_p C(k-p,l))^2 E(n-1, l)
    # with d_p = 2^(2p-k) c_p C(p,k-p), c_p = nums[p - ceil(k/2)] / den, and
    # E(n-1, l) = evens[l], an int.  d_p does not depend on l: one comb per p,
    # then one per (p, l) term.
    # Over T = (2 floor(k/2))! each term is an integer with weight (k-2l)! T/(2l)!,
    # which is 1 at l = floor(k/2) and is built up from there.
    half = k // 2
    lo = _ceil_half(k)
    ds = [(c * comb(p, k - p)) << (2 * p - k) for p, c in zip(range(lo, k + 1), nums)]
    total, weight = 0, 1
    for l in range(half, -1, -1):
        even = index(evens[l])  # a non-integer E raises
        if even:  # E(0, l) is 0 for l >= 1: n = 1 needs one inner sum
            inner = sum(d * comb(k - p, l) for p, d in zip(range(lo, k - l + 1), ds))
            total += weight * inner * inner * even
        weight *= (k - 2 * l + 2) * (k - 2 * l + 1) * (2 * l) * (2 * l - 1)
    return Fraction(factorial(k) * total, den * den * factorial(2 * half))


def gamma_closed(n: int, s, k: int) -> Rational:
    """Power-family constant for dimension n, exponent s, order k (closed form).

    Evaluates the double sum

        k! * sum_l (k-2l)! l! ((n-3)/2 + l)_l
           * ( sum_p 2^(2p-k+l) C(s/2,p) C(p,k-p) C(k-p,l) )^2

    with l in [0, floor(k/2)] and p in [ceil(k/2), k-l] in integers over a
    common denominator, as one Fraction at the end.
    """
    n, k, kind = ConstantQuery(n, k, NormKind.power(s))
    return _closed_kernel(n, k, *_terms(kind, k))


def ell_closed(n: int, k: int) -> Rational:
    """Logarithm-family constant for dimension n, order k >= 1 (closed form).

    Same double sum as ``gamma_closed`` with (-1)^(p-1) / (2p), the s -> 0
    limit of C(s/2, p) / s, in place of C(s/2, p); strictly positive.
    """
    n, k, kind = ConstantQuery(n, k, NormKind.logarithm())
    return _closed_kernel(n, k, *_terms(kind, k))


def gamma_1d(s, k: int) -> Rational:
    """One-dimensional power constant: ( k! sum_p 2^(2p-k) C(s/2,p) C(p,k-p) )^2.

    The n = 1 case of the closed form, where only the l = 0 term survives.
    Equals ((s)_k)^2.
    """
    return gamma_closed(1, s, k)


def ell_1d(k: int) -> Rational:
    """One-dimensional logarithm constant; equals ((k-1)!)^2 for k >= 1."""
    return ell_closed(1, k)


def _even_product(n: int, m: int) -> int:
    # 2^(2m) m! (2m)! (n/2+m-1)_m = 2^m m! (2m)! n(n+2)...(n+2m-2)
    return factorial(m) * factorial(2 * m) * prod(range(n, n + 2 * m - 1, 2)) << m


def gamma_even(n: int, m: int) -> Rational:
    """Constant for the even power s = 2m at order k = 2m: 2^(2m) m! (2m)! (n/2+m-1)_m."""
    m = _as_int(m)
    ConstantQuery(n, 2 * m, NormKind.power(2 * m))
    return Fraction(_even_product(n, m))


def _evens(n: int, k: int) -> list[int]:
    # E(n, l) for l = 0..floor(k/2), the even-order constants the recursion consumes,
    # as one running product E(n, l+1) = E(n, l) 2(l+1)(2l+1)(2l+2)(n+2l) from E(n, 0) = 1.
    ratios = (2 * (l + 1) * (2 * l + 1) * (2 * l + 2) * (n + 2 * l) for l in range(k // 2))
    return [*accumulate(ratios, mul, initial=1)]


def gamma_special(n: int, k: int) -> Rational:
    """Power constant at the fundamental-solution exponent s = -(n-2).

    Product form 2^k (n/2 + k - 2)_k (n + k - 3)_k, in integers
    (n+2k-4)(n+2k-6)...(n-2) * (n+k-3)(n+k-4)...(n-2).
    """
    ConstantQuery(n, k, NormKind.power(2 - n))
    return Fraction(prod(range(n + 2 * k - 4, n - 4, -2)) * prod(range(n + k - 3, n - 3, -1)))


def ell2_special(k: int) -> Rational:
    """Two-dimensional logarithm constant: 2^(k-1) ((k-1)!)^2 for k >= 1."""
    ConstantQuery(2, k, NormKind.logarithm())
    return Fraction(factorial(k - 1) ** 2 << (k - 1))


def taylor_compose_norm_sq(n: int, k: int, coeffs: Callable[[int], Rational]) -> Rational:
    """Squared k-th derivative-tensor norm at the origin of f(rho) on R^n, n >= 1.

    Here rho(x) = |x + e_n|^2 - 1 and f(t) = sum_p coeffs(p) t^p is an
    analytic profile; only coeffs(p) for ceil(k/2) <= p <= k are consumed.
    With coeffs from ``power_coeffs(s)`` this reproduces the power constant,
    with ``log_coeffs()`` the logarithm constant.
    """
    n, k, _ = ConstantQuery(n, k, NormKind.power(_ZERO))
    return _recursive_kernel(k, *_profile_terms(coeffs, k), _evens(n - 1, k))


def gamma_recursive(n: int, s, k: int) -> Rational:
    """Power constant by dimension recursion; agrees exactly with gamma_closed.

    The inner even-order constants come from the integer product form behind
    ``gamma_even``.
    """
    n, k, kind = ConstantQuery(n, k, NormKind.power(s))
    return _recursive_kernel(k, *_terms(kind, k), _evens(n - 1, k))


def ell_recursive(n: int, k: int) -> Rational:
    """Logarithm constant by dimension recursion; agrees exactly with ell_closed."""
    n, k, kind = ConstantQuery(n, k, NormKind.logarithm())
    return _recursive_kernel(k, *_terms(kind, k), _evens(n - 1, k))


def _half_identity_sides(nu: Rational, m: int) -> tuple[int, int]:
    # Both sides of half_identity_check times (4q)^m, nu = p/q, in integers:
    # q^j (nu+j)_j = prod_{i=1..j} (p + iq), (2q)^m (nu+m+1/2)_m = prod_{i=1..m} (2p + (2i+1)q).
    p, q = nu.numerator, nu.denominator
    rising = [1]
    for i in range(1, m + 1):
        rising.append(rising[-1] * (p + i * q))
    lhs = sum(
        factorial(2 * l) // factorial(l) * comb(m, l) * q ** l * rising[m - l] << 2 * (m - l)
        for l in range(m + 1)
    )
    return lhs, prod(2 * p + (2 * i + 1) * q for i in range(1, m + 1)) << m


def half_identity_check(nu, m: int) -> bool:
    """Check sum_l (2l)!/(4^l l!) (nu+m-l)_(m-l) C(m,l) == (nu+m+1/2)_m.

    Both sides are multiplied by (4q)^m, nu = p/q, and evaluated
    independently in integers (summation vs. product); a correct
    implementation returns True for every rational nu and m >= 0.
    """
    m = _as_int(m)
    if m < 0:
        raise ValueError("m must be >= 0")
    lhs, rhs = _half_identity_sides(as_rational(nu), m)
    return lhs == rhs


def phi_deriv_at_zero(m: int, k: int) -> Rational:
    """k-th derivative of (t^2 + 2t)^m at t = 0.

    Nonzero only for m <= k <= 2m, where it equals 2^(2m-k) k! C(m, k-m).
    """
    m, k = _as_int(m), _as_int(k)
    if m < 0 or k < 0:
        raise ValueError("m and k must be >= 0")
    return Fraction(factorial(k) * comb(m, k - m) << (2 * m - k) if m <= k <= 2 * m else 0)


# The method registry: name -> (n, kind, k) -> constant, or None where the method
# does not apply.  Entries look the functions up at call time, so wrappers see the calls.


def _closed(n: int, kind: NormKind, k: int) -> Rational:
    return gamma_closed(n, kind.s, k) if kind.is_power else ell_closed(n, k)


def _recursive(n: int, kind: NormKind, k: int) -> Rational:
    return gamma_recursive(n, kind.s, k) if kind.is_power else ell_recursive(n, k)


def _special(n: int, kind: NormKind, k: int) -> Rational | None:
    if kind.is_power:
        return gamma_special(n, k) if kind.s == 2 - n else None
    return ell2_special(k) if n == 2 else None


FORMULAS = {"closed": _closed, "recursive": _recursive, "special": _special}
# The oracle is the symbolic route in ``symdiff``, which depends on this module.
METHODS = (*FORMULAS, "oracle")


def evaluate_query(query: ConstantQuery, method: str = "closed") -> ConstantValue:
    """Compute one constant by the named non-oracle method.

    ``special`` requires s = -(n-2) for the power family, or n = 2 for the
    logarithm family, and raises ValueError otherwise.
    """
    if method not in FORMULAS:
        raise ValueError(f"method {method!r} is not computed here")
    value = FORMULAS[method](query.dimension, query.kind, query.order)
    if value is None:
        raise ValueError(f"the {method} form does not apply to {query.kind} at N={query.dimension}")
    return ConstantValue(query, value, method)
