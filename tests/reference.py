"""Reference implementation of the closed double sum, term by term in Fraction.

This is the closed form exactly as written, with no integer tricks; the
package's closed and recursive kernels are cross-checked against it.
"""

from fractions import Fraction

from radnorm.exactnum import binomial, factorial, pochhammer


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
