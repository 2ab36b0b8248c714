"""The integer product forms and the integer dimension recursion against the
Fraction forms they replaced (``reference.py``), and the caches they left."""

import ast
import importlib
from fractions import Fraction
from pathlib import Path

import pytest

import radnorm
from radnorm.constants import (
    NormKind,
    _even_product,
    _evens,
    _recursive_kernel,
    _terms,
    ell2_special,
    ell_recursive,
    gamma_even,
    gamma_recursive,
    gamma_special,
    log_coeffs,
    phi_deriv_at_zero,
    power_coeffs,
    taylor_compose_norm_sq,
)
from reference import (
    reference_ell2_special,
    reference_even_table,
    reference_gamma_even,
    reference_gamma_even_deep,
    reference_gamma_special,
    reference_phi_deriv_at_zero,
    reference_recursive_norm_sq,
)

SRC = Path(radnorm.__file__).resolve().parent


def test_gamma_even_matches_the_pochhammer_form():
    for n in range(1, 13):
        assert _evens(n, 160) == [reference_gamma_even(n, m) for m in range(81)]
        for m in (0, 1, 17, 80):
            assert gamma_even(n, m) == reference_gamma_even(n, m)
            assert type(gamma_even(n, m)) is Fraction


def test_gamma_special_matches_the_pochhammer_form():
    for n in range(1, 13):
        for k in range(161):
            assert gamma_special(n, k) == reference_gamma_special(n, k)
    assert type(gamma_special(3, 4)) is Fraction


def test_ell2_special_matches_the_power_form():
    for k in range(1, 161):
        assert ell2_special(k) == reference_ell2_special(k)
    assert type(ell2_special(5)) is Fraction


def test_phi_deriv_at_zero_matches_the_binomial_form():
    for m in range(25):
        for k in range(2 * m + 3):
            assert phi_deriv_at_zero(m, k) == reference_phi_deriv_at_zero(m, k)
    assert type(phi_deriv_at_zero(3, 4)) is Fraction


def test_deep_even_table_matches_the_product_form_and_the_fraction_recursion():
    memo = {}
    for n in range(1, 9):
        row = [reference_gamma_even_deep(n, m, memo) for m in range(21)]
        assert row == _evens(n, 41) == [_even_product(n, m) for m in range(21)]


@pytest.mark.parametrize("k", [0, 1, 7, 40, 160])
@pytest.mark.parametrize("n, s", [(2, Fraction(-5, 3)), (7, Fraction(7, 2)), (12, Fraction(23, 9))])
def test_recursion_matches_the_fraction_outer_sum(n, s, k):
    expected = reference_recursive_norm_sq(n, k, power_coeffs(s))
    assert gamma_recursive(n, s, k) == expected
    assert taylor_compose_norm_sq(n, k, power_coeffs(s)) == expected


@pytest.mark.parametrize("k", [1, 8, 40, 160])
def test_log_recursion_matches_the_fraction_outer_sum(k):
    expected = reference_recursive_norm_sq(5, k, log_coeffs())
    assert ell_recursive(5, k) == expected
    assert taylor_compose_norm_sq(5, k, log_coeffs()) == expected


def test_deep_recursion_matches_the_fraction_outer_sum():
    memo = {}
    deep = lambda n, m: reference_gamma_even_deep(n, m, memo)  # noqa: E731
    for n in range(2, 7):
        for k in (1, 6, 13):
            s = Fraction(5, 7)
            evens = reference_even_table(n - 1, k, memo)
            expected = reference_recursive_norm_sq(n, k, power_coeffs(s), deep)
            assert _recursive_kernel(k, *_terms(NormKind.power(s), k), evens) == expected
            assert _recursive_kernel(k, *_terms(NormKind.logarithm(), k), evens) == \
                reference_recursive_norm_sq(n, k, log_coeffs(), deep)


def test_recursive_kernel_rejects_a_non_integer_even_constant():
    nums, den = _terms(NormKind.power(Fraction(1, 3)), 4)
    evens = _evens(2, 4)
    _recursive_kernel(4, nums, den, evens)  # ints pass
    for bad in (Fraction(evens[1], 7), float(evens[1])):
        with pytest.raises(TypeError):
            _recursive_kernel(4, nums, den, [evens[0], bad, evens[2]])


def _unbounded_caches(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                name = deco.func if isinstance(deco, ast.Call) else deco
                name = name.attr if isinstance(name, ast.Attribute) else getattr(name, "id", "")
                if name == "cache":
                    yield node.name
                if name == "lru_cache" and isinstance(deco, ast.Call):
                    sizes = [kw.value for kw in deco.keywords if kw.arg == "maxsize"] + deco.args[:1]
                    if any(isinstance(v, ast.Constant) and v.value is None for v in sizes):
                        yield node.name


def test_no_function_in_src_has_an_unbounded_cache():
    found = {path.name: list(_unbounded_caches(ast.parse(path.read_text(encoding="utf-8"))))
             for path in sorted(SRC.glob("*.py"))}
    assert found and all(names == [] for names in found.values()), found
    # the scan recognises the decorators it forbids
    source = "@lru_cache(maxsize=None)\ndef f(): pass\n@functools.cache\ndef g(): pass\n"
    assert list(_unbounded_caches(ast.parse(source))) == ["f", "g"]


def test_repeated_recursive_calls_leave_every_cache_unchanged():
    names = [f"radnorm.{path.stem}" for path in SRC.glob("*.py") if not path.stem.startswith("__")]
    modules = [radnorm, *map(importlib.import_module, names)]
    caches = {(m.__name__, name): obj for m in modules
              for name, obj in vars(m).items() if hasattr(obj, "cache_info")}
    gamma_recursive(5, Fraction(1, 3), 12)
    ell_recursive(5, 12)
    before = {key: cache.cache_info().currsize for key, cache in caches.items()}
    for i in range(20):
        gamma_recursive(5, Fraction(2 * i + 1, 13), 12)
        ell_recursive(5 + i % 3, 12)
    assert {key: cache.cache_info().currsize for key, cache in caches.items()} == before
