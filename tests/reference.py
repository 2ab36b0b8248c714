"""Reference implementations, written the plain way, for cross-checks.

The closed double sum term by term in Fraction, with no integer tricks; the
package's closed and recursive kernels are checked against it.  The symbolic
Laplacian and squared norm folded with repeated ``TermSum.__add__``; the
package's one-pass sums are checked against them.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import prod

from radnorm.exactnum import binomial, factorial, pochhammer
from radnorm.symdiff import TermSum, derivative


def reference_norm_sq(n, k, coeff):
    """k! sum_l (k-2l)! l! ((n-3)/2+l)_l (sum_p 2^(2p-k+l) c_p C(p,k-p) C(k-p,l))^2."""
    total = Fraction(0)
    for l in range(k // 2 + 1):
        inner = Fraction(0)
        for p in range((k + 1) // 2, k - l + 1):
            inner += (
                Fraction(2) ** (2 * p - k + l)
                * coeff(p)
                * binomial(p, k - p)
                * binomial(k - p, l)
            )
        total += (
            factorial(k - 2 * l)
            * factorial(l)
            * pochhammer(Fraction(n - 3, 2) + l, l)
            * inner ** 2
        )
    return factorial(k) * total


def reference_gamma(n, s, k):
    s = Fraction(s)
    return reference_norm_sq(n, k, lambda p: binomial(s / 2, p))


def reference_ell(n, k):
    return reference_norm_sq(n, k, lambda p: Fraction((-1) ** p, 2 * p))


def reference_half_sides(nu, m):
    """Both sides of the half-shift identity, term by term in Fraction:
    sum_l (2l)!/(4^l l!) (nu+m-l)_(m-l) C(m,l) and (nu+m+1/2)_m."""
    nu = Fraction(nu)
    lhs = Fraction(0)
    for l in range(m + 1):
        lhs += (
            Fraction(factorial(2 * l), 2 ** (2 * l) * factorial(l))
            * pochhammer(nu + m - l, m - l)
            * binomial(m, l)
        )
    return lhs, pochhammer(nu + m + Fraction(1, 2), m)


def reference_laplacian(u):
    """The n second partials of a TermSum, added one ``+`` at a time."""
    total = TermSum.build(u.n_vars, u.radial_base, {})
    for axis in range(1, u.n_vars + 1):
        total = total + u.differentiate(axis).differentiate(axis)
    return total


def reference_grad_norm_sq_symbolic(n, kind, k):
    """sum over sorted multisets of weight * (D u)^2, added one ``+`` at a time."""
    total = None
    for combo in combinations_with_replacement(range(1, n + 1), k):
        weight = factorial(k) // prod(factorial(combo.count(a)) for a in set(combo))
        u = derivative(n, kind, combo)
        square = u.multiply(u).scale(weight)
        total = square if total is None else total + square
    return total
