import random
from fractions import Fraction

import pytest

from golden import ELL_POLYS, GAMMA_POLYS, S_VALUES
from radnorm import constants, exactnum
from radnorm.constants import (
    FORMULAS,
    METHODS,
    ConstantQuery,
    ConstantValue,
    NormKind,
    _evens,
    _recursive_kernel,
    _terms,
    ell2_special,
    ell_1d,
    ell_closed,
    ell_recursive,
    evaluate_query,
    gamma_1d,
    gamma_closed,
    gamma_even,
    gamma_recursive,
    gamma_special,
    half_identity_check,
    log_coeffs,
    phi_deriv_at_zero,
    power_coeffs,
    taylor_compose_norm_sq,
)
from radnorm.exactnum import (
    binomial,
    factorial,
    format_rational,
    pochhammer,
    rational_pow,
)
from radnorm.symdiff import (
    SamplePoint,
    TermSum,
    default_sample_points,
    derivative,
    dimension_split_check,
    grad_norm_sq,
    laplacian_recursion_check,
    rescaled_grad_norms,
    seed,
    tilde_norm_sq,
    verify_constancy,
)
from reference import reference_even_table

# ---------------------------------------------------------------------------
# closed forms: frozen values


def test_gamma_closed_known_values():
    assert gamma_closed(3, 2, 2) == 12
    assert gamma_closed(5, Fraction(7, 2), 0) == 1
    assert gamma_closed(2, 3, 3) == 63


def test_ell_closed_known_values():
    assert ell_closed(3, 3) == 28
    assert ell_closed(1, 4) == 36
    assert ell_closed(3, 4) == 564
    # 12(n^2 + 18n - 16) at n = 5; the n = 7 row of the same polynomial is 1908
    assert ell_closed(5, 4) == 1188
    assert ell_closed(7, 4) == 1908


def test_ell_closed_rejects_order_zero():
    with pytest.raises(ValueError):
        ell_closed(3, 0)


@pytest.mark.parametrize("n", [1, 3])
def test_gamma_recursive_rejects_a_negative_order(n):
    with pytest.raises(ValueError, match="derivative order must be >= 0"):
        gamma_recursive(n, 3, -1)


def test_gamma_1d_known_values():
    assert gamma_1d(3, 2) == 36
    assert gamma_1d(Fraction(9, 4), 0) == 1
    assert gamma_1d(Fraction(1, 2), 2) == Fraction(1, 16)


def test_ell_1d_known_values():
    assert ell_1d(1) == 1
    assert ell_1d(3) == 4
    assert ell_1d(5) == 576
    with pytest.raises(ValueError):
        ell_1d(0)


def test_gamma_even_known_values():
    assert gamma_even(1, 2) == 576  # ((2m)!)^2 at m = 2
    assert gamma_even(4, 1) == 16  # 4n at n = 4
    assert gamma_even(1, 0) == 1


def test_gamma_special_known_values():
    assert gamma_special(3, 1) == 1
    assert gamma_special(2, 2) == 0
    assert gamma_special(4, 2) == 48  # cross-check: s^2(s^2-2s+n) at s=-2, n=4


def test_ell2_special_known_values():
    assert ell2_special(1) == 1
    assert ell2_special(2) == 2
    assert ell2_special(4) == 288
    with pytest.raises(ValueError):
        ell2_special(0)


def test_recursive_known_values():
    assert gamma_recursive(2, 3, 3) == 63
    assert gamma_recursive(1, 3, 2) == 36  # base-case delegation
    assert gamma_recursive(4, 4, 4) == gamma_even(4, 2) == 4608
    assert ell_recursive(2, 3) == 16
    assert ell_recursive(1, 2) == 1
    assert ell_recursive(5, 4) == 1188
    with pytest.raises(ValueError):
        ell_recursive(3, 0)


# ---------------------------------------------------------------------------
# cross-method identities


def test_one_dimensional_collapse():
    rng = random.Random(20)
    exponents = [Fraction(rng.randint(-12, 12), rng.randint(1, 9)) for _ in range(20)]
    for k in range(11):
        for s in exponents:
            assert gamma_closed(1, s, k) == pochhammer(s, k) ** 2
            assert gamma_1d(s, k) == pochhammer(s, k) ** 2
        if k >= 1:
            assert ell_closed(1, k) == factorial(k - 1) ** 2
            assert ell_1d(k) == factorial(k - 1) ** 2


def test_closed_equals_recursive_on_grid():
    for n in range(1, 5):
        for k in range(7):
            for s in S_VALUES:
                assert gamma_closed(n, s, k) == gamma_recursive(n, s, k)
            if k >= 1:
                assert ell_closed(n, k) == ell_recursive(n, k)


def _deep_gamma(n, s, k):
    # The recursive kernel fed E(n-1, l) from the Fraction self-recursion in reference.py.
    return _recursive_kernel(k, *_terms(NormKind.power(s), k), reference_even_table(n - 1, k))


def _deep_ell(n, k):
    return _recursive_kernel(k, *_terms(NormKind.logarithm(), k), reference_even_table(n - 1, k))


def test_deep_recursion_agrees():
    for n in range(1, 5):
        for k in range(6):
            assert _deep_gamma(n, Fraction(5, 2), k) == gamma_closed(n, Fraction(5, 2), k)
            if k >= 1:
                assert _deep_ell(n, k) == ell_closed(n, k)


def test_the_recursion_reaches_no_closed_form_at_any_dimension(monkeypatch):
    # The recursion starts from E(0, l) = [l == 0], so n = 1 is its own case
    # and must not hand off to the one-dimensional closed form.
    def closed_form(*args):
        raise AssertionError("the recursion reached the closed form")

    for name in ("_closed_kernel", "gamma_closed", "ell_closed", "gamma_1d", "ell_1d"):
        monkeypatch.setattr(constants, name, closed_form)
    for gamma, ell in ((gamma_recursive, ell_recursive), (_deep_gamma, _deep_ell)):
        for k in range(12):
            for s in S_VALUES:
                assert gamma(1, s, k) == pochhammer(s, k) ** 2
            if k >= 1:
                assert ell(1, k) == factorial(k - 1) ** 2
        for n in (2, 3):
            assert gamma(n, 3, 3) == GAMMA_POLYS[3](Fraction(3), n)
            assert ell(n, 3) == ELL_POLYS[3](n)


def test_even_table_starts_at_dimension_zero():
    for m in range(6):
        assert _evens(0, 2 * m) == reference_even_table(0, 2 * m) == [1] + [0] * m


def test_specialization():
    for n in range(1, 7):
        for k in range(7):
            assert gamma_closed(n, Fraction(-(n - 2)), k) == gamma_special(n, k)
    for k in range(1, 9):
        assert ell_closed(2, k) == ell2_special(k)


def test_gamma_even_is_the_diagonal_of_gamma_closed():
    for n in range(1, 7):
        for m in range(5):
            assert gamma_even(n, m) == gamma_closed(n, 2 * m, 2 * m)


def test_golden_polynomials():
    for n in range(1, 9):
        for k, poly in GAMMA_POLYS.items():
            for s in S_VALUES:
                assert gamma_closed(n, s, k) == poly(s, n)
        for k, poly in ELL_POLYS.items():
            assert ell_closed(n, k) == poly(n)


def test_vanishing_locus():
    for m in range(4):
        for n in range(1, 6):
            for k in range(2 * m + 1, 2 * m + 5):
                assert gamma_closed(n, 2 * m, k) == 0


def test_nonnegativity():
    for n in range(1, 5):
        for k in range(7):
            for s in S_VALUES:
                assert gamma_closed(n, s, k) >= 0
            if k >= 1:
                assert ell_closed(n, k) > 0


# ---------------------------------------------------------------------------
# standalone identities


def test_half_identity_examples():
    assert half_identity_check(0, 0)
    assert half_identity_check(Fraction(1, 2), 1)  # both sides equal 2
    assert half_identity_check(Fraction(-3, 2), 3)


def test_half_identity_random_rationals():
    rng = random.Random(20)
    values = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(50)]
    for nu in values:
        for m in range(11):
            assert half_identity_check(nu, m)


def test_phi_deriv_known_values():
    assert phi_deriv_at_zero(1, 1) == 2
    assert phi_deriv_at_zero(2, 1) == 0
    assert phi_deriv_at_zero(2, 3) == 24
    assert phi_deriv_at_zero(0, 0) == 1
    assert phi_deriv_at_zero(2, 5) == 0


def test_phi_deriv_against_polynomial_expansion():
    # (t^2 + 2t)^m = sum_j 2^(m-j) C(m,j) t^(m+j); the k-th derivative at 0
    # is k! times the coefficient of t^k.
    for m in range(6):
        coeffs = {}
        for j in range(m + 1):
            coeffs[m + j] = 2 ** (m - j) * int(binomial(m, j))
        for k in range(2 * m + 3):
            expected = factorial(k) * coeffs.get(k, 0)
            assert phi_deriv_at_zero(m, k) == expected


def test_taylor_compose_known_values():
    assert taylor_compose_norm_sq(2, 2, power_coeffs(2)) == 8
    assert taylor_compose_norm_sq(3, 1, log_coeffs()) == 1
    assert taylor_compose_norm_sq(2, 0, lambda n: Fraction(1)) == 1


def test_taylor_compose_reproduces_both_families():
    for n in range(2, 5):
        for k in range(6):
            assert taylor_compose_norm_sq(n, k, power_coeffs(Fraction(5, 2))) == gamma_recursive(
                n, Fraction(5, 2), k
            )
            if k >= 1:
                assert taylor_compose_norm_sq(n, k, log_coeffs()) == ell_recursive(n, k)


def test_taylor_compose_at_dimension_one_is_the_closed_form():
    for k in range(30):
        for s in S_VALUES:
            assert taylor_compose_norm_sq(1, k, power_coeffs(s)) == gamma_closed(1, s, k)
        if k >= 1:
            assert taylor_compose_norm_sq(1, k, log_coeffs()) == ell_closed(1, k)


def test_log_coeffs_start_at_order_one():
    coeff = log_coeffs()
    assert [coeff(n) for n in range(1, 5)] == [Fraction(1, 2), Fraction(-1, 4), Fraction(1, 6), Fraction(-1, 8)]
    for n in (0, -1, -4):
        with pytest.raises(ValueError, match="^logarithm coefficients are defined for n >= 1 only$"):
            coeff(n)
    with pytest.raises(ValueError, match="^logarithm coefficients are defined for n >= 1 only$"):
        taylor_compose_norm_sq(2, 0, coeff)


def test_taylor_compose_consumes_only_supported_indices():
    k = 5
    seen = []

    def coeffs(p):
        seen.append(p)
        return binomial(Fraction(3, 2), p)

    taylor_compose_norm_sq(3, k, coeffs)
    assert min(seen) >= (k + 1) // 2
    assert max(seen) <= k


# ---------------------------------------------------------------------------
# domain types


def test_norm_kind_validation():
    power = NormKind.power(Fraction(3, 2))
    assert power.is_power and power.s == Fraction(3, 2)
    log = NormKind.logarithm()
    assert not log.is_power and log.s is None
    with pytest.raises(ValueError):
        NormKind("power")
    with pytest.raises(ValueError):
        NormKind("logarithm", Fraction(1))
    with pytest.raises(ValueError):
        NormKind("weird")


@pytest.mark.parametrize(
    "entry",
    [
        lambda s: gamma_closed(2, s, 2),
        lambda s: gamma_1d(s, 2),
        lambda s: gamma_recursive(2, s, 2),
        power_coeffs,
        NormKind.power,
        lambda s: NormKind("power", s),
        lambda s: taylor_compose_norm_sq(2, 2, lambda p: s),
        lambda s: SamplePoint((s, Fraction(1, 2))),
        lambda s: half_identity_check(s, 2),
        format_rational,
        lambda s: pochhammer(s, 2),
        lambda s: binomial(s, 2),
        lambda s: rational_pow(s, 2),
        lambda s: rational_pow(4, s),
        lambda s: TermSum.build(2, Fraction(1, 2), {((1, 0), 0): s}),
        lambda s: TermSum.build(2, s, {((1, 0), 0): 1}),
        lambda s: TermSum.single(2, Fraction(1, 2), (1, 0), 0, s),
        lambda s: TermSum.single(2, s, (1, 0), 0, 1),
        lambda s: TermSum.single(2, 0, (1, 0), 0, 1).scale(s),
        lambda s: ConstantValue(ConstantQuery(2, 1, NormKind.power(2)), s, "closed"),
        lambda s: ConstantQuery(s, 2, NormKind.logarithm()),
        lambda s: ConstantQuery(2, s, NormKind.logarithm()),
        lambda s: gamma_closed(s, 1, 2),
        lambda s: gamma_closed(2, 1, s),
        lambda s: ell_recursive(s, 2),
        lambda s: ell_closed(2, s),
        # integer arguments outside ConstantQuery: each goes through exactnum._as_int
        lambda s: pochhammer(Fraction(1, 2), s),
        lambda s: binomial(Fraction(1, 2), s),
        factorial,
        lambda s: power_coeffs(3)(s),
        lambda s: log_coeffs()(s),
        lambda s: gamma_even(3, s),
        lambda s: taylor_compose_norm_sq(s, 2, power_coeffs(3)),
        lambda s: taylor_compose_norm_sq(2, s, power_coeffs(3)),
        lambda s: half_identity_check(Fraction(1, 2), s),
        lambda s: phi_deriv_at_zero(s, 2),
        lambda s: phi_deriv_at_zero(2, s),
        lambda s: TermSum.build(s, 0, {}),
        lambda s: TermSum.single(2, 0, (s, 0), 0, 1),
        lambda s: TermSum.single(2, 0, (1, 0), s, 1),
        lambda s: TermSum.single(2, 0, (1, 0), 0, 1).differentiate(s),
        lambda s: derivative(2, NormKind.power(3), (s,)),
        default_sample_points,
        lambda s: default_sample_points(2, s),
    ],
    ids=[
        "gamma_closed", "gamma_1d", "gamma_recursive", "power_coeffs", "NormKind.power",
        "NormKind", "taylor_compose_norm_sq", "SamplePoint", "half_identity_check",
        "format_rational", "pochhammer", "binomial", "rational_pow-base", "rational_pow-exponent",
        "TermSum.build-coeff", "TermSum.build-base", "TermSum.single-coeff", "TermSum.single-base",
        "TermSum.scale", "ConstantValue", "ConstantQuery-dimension", "ConstantQuery-order",
        "gamma_closed-dimension", "gamma_closed-order", "ell_recursive-dimension", "ell_closed-order",
        "pochhammer-order", "binomial-order", "factorial", "power_coeffs-index", "log_coeffs-index",
        "gamma_even-m", "taylor_compose_norm_sq-dimension", "taylor_compose_norm_sq-order",
        "half_identity_check-m", "phi_deriv_at_zero-m", "phi_deriv_at_zero-k", "TermSum.build-n_vars",
        "TermSum.single-exponent", "TermSum.single-offset", "TermSum.differentiate-axis",
        "derivative-axes", "default_sample_points-dimension", "default_sample_points-seed",
    ],
)
@pytest.mark.parametrize("s", [0.1, 2.0, float("nan"), True, False], ids=repr)
def test_inexact_and_bool_values_are_rejected(entry, s):
    with pytest.raises(TypeError):
        entry(s)


def test_constant_query_validation():
    ConstantQuery(2, 0, NormKind.power(1))
    with pytest.raises(ValueError):
        ConstantQuery(0, 1, NormKind.power(1))
    with pytest.raises(ValueError):
        ConstantQuery(2, -1, NormKind.power(1))
    with pytest.raises(ValueError):
        ConstantQuery(2, 0, NormKind.logarithm())


def test_constant_value_validation():
    query = ConstantQuery(2, 2, NormKind.logarithm())
    ConstantValue(query, Fraction(2), "closed")
    with pytest.raises(ValueError):
        ConstantValue(query, Fraction(-1), "closed")
    with pytest.raises(ValueError):
        ConstantValue(query, Fraction(0), "closed")  # log constants are positive
    with pytest.raises(ValueError):
        ConstantValue(query, Fraction(2), "guess")


def test_evaluate_query_dispatch():
    q = ConstantQuery(3, 3, NormKind.logarithm())
    assert evaluate_query(q, "closed").value == 28
    assert evaluate_query(q, "recursive").value == 28
    with pytest.raises(ValueError):
        evaluate_query(q, "special")  # needs dimension 2
    q2 = ConstantQuery(4, 2, NormKind.power(-2))
    assert evaluate_query(q2, "special").value == 48
    with pytest.raises(ValueError):
        evaluate_query(ConstantQuery(4, 2, NormKind.power(1)), "special")
    with pytest.raises(ValueError):
        evaluate_query(q, "oracle")


def test_method_registry_is_the_method_list_and_decides_where_a_form_applies():
    assert METHODS == (*FORMULAS, "oracle")
    for n in range(1, 7):
        for kind in (NormKind.power(2 - n), NormKind.power(Fraction(1, 3)), NormKind.logarithm()):
            for k in range(0 if kind.is_power else 1, 9):
                query = ConstantQuery(n, k, kind)
                for method, formula in FORMULAS.items():
                    value = formula(n, kind, k)
                    if value is None:
                        with pytest.raises(ValueError):
                            evaluate_query(query, method)
                    else:
                        assert evaluate_query(query, method) == ConstantValue(query, value, method)
                applies = kind.s == 2 - n if kind.is_power else n == 2
                assert (FORMULAS["special"](n, kind, k) is not None) == applies


# ---------------------------------------------------------------------------
# memory


def test_formula_routes_never_call_pochhammer(monkeypatch):
    # exactnum keeps no memo, and no formula route reaches pochhammer or binomial,
    # so fresh exponents cost the routes nothing that outlives a call.
    def refuse(nu, k):
        raise AssertionError(f"pochhammer({nu}, {k}) was called")

    monkeypatch.setattr(exactnum, "pochhammer", refuse)
    with pytest.raises(AssertionError):
        binomial(Fraction(1, 2), 2)  # binomial goes through the stub too
    n, k = 7, 40
    for i in range(50):
        s = Fraction(2 * i + 1, 11)
        assert gamma_closed(n, s, k) == gamma_recursive(n, s, k)
    for n, kind in ((4, NormKind.power(-2)), (2, NormKind.logarithm())):
        values = {formula(n, kind, 12) for formula in FORMULAS.values()}
        assert len(values) == 1


# ---------------------------------------------------------------------------
# the shared domain

POWER, LOG = NormKind.power(Fraction(1, 3)), NormKind.logarithm()
POINT, OTHER = SamplePoint((1, 2)), SamplePoint((2, 1))

# name -> (kind, (n, k) -> call); each entry leaves its domain check to ConstantQuery.
# taylor_compose_norm_sq takes no kind: it checks n and k as a power-kind query.
DOMAIN_ENTRIES = {
    "taylor_compose_norm_sq": (POWER, lambda n, k: taylor_compose_norm_sq(n, k, power_coeffs(POWER.s))),
    "gamma_closed": (POWER, lambda n, k: gamma_closed(n, POWER.s, k)),
    "ell_closed": (LOG, ell_closed),
    "gamma_recursive": (POWER, lambda n, k: gamma_recursive(n, POWER.s, k)),
    "ell_recursive": (LOG, ell_recursive),
    "gamma_special": (POWER, gamma_special),
    "ell2_special": (LOG, lambda n, k: ell2_special(k)),
    "gamma_even": (POWER, lambda n, k: gamma_even(n, k // 2)),  # order 2m
    "laplacian_recursion_check": (POWER, laplacian_recursion_check),
    **{
        f"{name}-{kind.variant}": (kind, call)
        for kind in (POWER, LOG)
        for name, call in {
            "grad_norm_sq": lambda n, k, kind=kind: grad_norm_sq(n, kind, k, POINT),
            "rescaled_grad_norms": lambda n, k, kind=kind: rescaled_grad_norms(n, kind, k, [POINT]),
            "tilde_norm_sq": lambda n, k, kind=kind: tilde_norm_sq(n, kind, k, POINT),
            "verify_constancy": lambda n, k, kind=kind: verify_constancy(n, kind, k, [POINT, OTHER]),
            "dimension_split_check": lambda n, k, kind=kind: dimension_split_check(n, kind, k, POINT),
        }.items()
    },
}


@pytest.mark.parametrize(
    "name, where",
    [(name, where) for name in DOMAIN_ENTRIES for where in ("dimension 0", "order below the least")
     if (name, where) != ("ell2_special", "dimension 0")],  # ell2_special takes no n
)
def test_domain_errors_carry_the_constant_query_wording(name, where):
    kind, call = DOMAIN_ENTRIES[name]
    if where == "dimension 0":
        n, k, message = 0, 2, "dimension must be >= 1"
    elif kind.is_power:
        n, k, message = 2, -1, "derivative order must be >= 0"
    else:
        n, k, message = 2, 0, "logarithm constants are defined for order >= 1 only"
    for build in (lambda: ConstantQuery(n, k, kind), lambda: call(n, k)):
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message


def test_seed_and_the_laplacian_check_keep_only_the_recursion_start_of_their_own():
    for kind in (POWER, LOG):
        with pytest.raises(ValueError, match="^dimension must be >= 1$"):
            seed(0, kind)
    with pytest.raises(ValueError, match="^the recursion starts at order 1$"):
        laplacian_recursion_check(2, 0)
