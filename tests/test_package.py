"""The package namespace, and the README's library quick tour run as written."""

import ast
import importlib.util
import re
from pathlib import Path

import radnorm
from radnorm import constants, exactnum, symdiff

README = Path(__file__).resolve().parent.parent / "README.md"
SPANS = README.parent / "perfbench" / "spans.py"
SRC = Path(radnorm.__file__).resolve().parent
MAX_SETTABLE_VALUES = 11
MAX_SRC_LINES = 1_900
MEMO_CACHES = {"_fixed_sample_points"}
FAMILY_BRANCHES = 13
BOOL_CHECKS = 2
ORDERED_TUPLE_ENUMERATIONS = 1

EXPORTS = {
    "__version__",
    # exactnum
    "Rational", "as_rational", "parse_rational", "format_rational", "factorial", "pochhammer",
    "binomial", "rational_pow",
    # constants
    "NormKind", "ConstantQuery", "ConstantValue", "METHODS", "FORMULAS", "gamma_closed",
    "ell_closed", "gamma_1d", "ell_1d", "gamma_even", "gamma_special", "ell2_special",
    "gamma_recursive", "ell_recursive", "taylor_compose_norm_sq", "half_identity_check",
    "phi_deriv_at_zero", "power_coeffs", "log_coeffs", "evaluate_query",
    # symdiff
    "MAX_DIMENSION", "MAX_ORDER", "MAX_ORDERED_TUPLES", "CapacityError", "Term", "TermSum",
    "SamplePoint", "VerifyReport", "seed", "seed_order", "differentiate", "laplacian",
    "derivative", "grad_norm_sq", "grad_norm_sq_symbolic", "rescaled_grad_norms",
    "tilde_norm_sq", "verify_constancy", "dimension_split_check", "laplacian_recursion_check",
    "functions_equal", "is_zero_function", "random_rational", "default_sample_points",
}


def test_the_package_exports_exactly_the_module_lists():
    assert len(EXPORTS) == 53
    assert sorted(radnorm.__all__) == sorted(EXPORTS)
    assert radnorm.__all__ == ["__version__", *exactnum.__all__, *constants.__all__, *symdiff.__all__]
    namespace = {}
    exec("from radnorm import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == EXPORTS
    for module in (exactnum, constants, symdiff):
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), name


def quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick tour"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_readme_quick_tour_gives_each_commented_value():
    # Each expression line ends in "# <repr of its value>", optionally followed
    # by "== <expr>" for further expressions that must equal it.
    source = quick_tour()
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for statement in ast.parse(source).body:
        code = ast.get_source_segment(source, statement)
        if not isinstance(statement, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        comment = lines[statement.end_lineno - 1].partition("#")[2].strip()
        assert comment, code
        shown, *others = comment.split(" == ")
        assert shown == repr(value), code
        for side in others:
            assert eval(side, namespace) == value, (code, side)
        checked += 1
    assert checked >= 5


def _settable_values(tree):
    # Each parameter with a default, as "function.parameter".
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):]
            with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            yield from (f"{getattr(node, 'name', 'lambda')}.{a.arg}" for a in with_default)


def test_no_settable_value_is_added_unnoticed():
    # Each value a caller can set is one more configuration to test; raising the
    # ceiling is a deliberate change.
    found = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
             for name in _settable_values(ast.parse(path.read_text(encoding="utf-8")))]
    assert len(found) <= MAX_SETTABLE_VALUES, found
    # the scan sees positional, keyword-only and lambda defaults, and nothing else
    source = "def f(a, b=1, /, c=2, *d, e, g=3, **h): pass\nlambda x, y=0: x\n"
    assert list(_settable_values(ast.parse(source))) == ["f.b", "f.c", "f.g", "lambda.y"]


def test_src_stays_under_its_line_ceiling():
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.glob("*.py"))
    assert lines <= MAX_SRC_LINES, lines


def _memo_caches(tree):
    # Each function decorated with functools' lru_cache or cache, bounded or not.
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("lru_cache", "cache"):
                    yield node.name


def test_no_memo_cache_is_added_unnoticed():
    # Each memo is state that outlives a call; adding one is a deliberate change.
    found = {name for path in SRC.glob("*.py")
             for name in _memo_caches(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == MEMO_CACHES
    source = "@lru_cache(maxsize=8)\ndef f(): pass\n@functools.cache\ndef g(): pass\n@staticmethod\ndef h(): pass\n"
    assert list(_memo_caches(ast.parse(source))) == ["f", "g"]


def _family_branches(tree):
    # Each read of ``.is_power``: a place that treats |x|^s and log|x| apart.
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "is_power":
            yield node.lineno


def test_no_family_branch_is_added_unnoticed():
    # log|x| is |x|^s / s at s = 0, and NormKind.radial_base carries the one
    # difference most code needs; another branch on the family is a deliberate change.
    found = [f"{path.stem}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _family_branches(ast.parse(path.read_text(encoding="utf-8")))]
    assert len(found) == FAMILY_BRANCHES, found
    source = "def is_power(k): return k.is_power or not q.is_power\nk.radial_base\n"
    assert list(_family_branches(ast.parse(source))) == [1, 1]


def _bool_checks(tree):
    # Each isinstance(..., bool) call, with bool alone or among a tuple of types.
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            if any(getattr(name, "id", None) == "bool" for name in ast.walk(node.args[1])):
                yield node.lineno


def test_no_bool_check_is_added_unnoticed():
    # A bool is an int to Python.  as_rational and exactnum._as_int reject it, and every exact
    # or integer argument goes through one of them; another copy is a deliberate change.
    found = [f"{path.stem}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _bool_checks(ast.parse(path.read_text(encoding="utf-8")))]
    assert len(found) == BOOL_CHECKS, found
    source = "isinstance(a, bool) or isinstance(b, (int, bool))\nisinstance(c, int)\nbool(d)\nf(e, bool)\n"
    assert list(_bool_checks(ast.parse(source))) == [1, 1]


def _ordered_tuple_enumerations(tree):
    # Each product(..., repeat=...) call: a listing of all n^k ordered index tuples.
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and any(kw.arg == "repeat" for kw in node.keywords):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
            if name == "product":
                yield node.lineno


def test_no_ordered_tuple_enumeration_is_added_unnoticed():
    # The weighted walk visits each sorted multiset once; only the unweighted
    # norm lists n^k ordered tuples, under MAX_ORDERED_TUPLES.  Another such
    # listing is a deliberate change.
    found = [f"{path.stem}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _ordered_tuple_enumerations(ast.parse(path.read_text(encoding="utf-8")))]
    assert len(found) == ORDERED_TUPLE_ENUMERATIONS, found
    source = "product(a, repeat=k)\nitertools.product(b, repeat=2)\nproduct(c, d)\nf(e, repeat=3)\n"
    assert list(_ordered_tuple_enumerations(ast.parse(source))) == [1, 2]


def test_the_benchmark_tracer_finds_every_function_it_wraps():
    # spans.install looks each of these up with no fallback, so a refactor of src/
    # that drops one stops a traced benchmark run.  The table is read with a
    # default, so the benchmark may rename or drop it.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for span, module, attr in getattr(spans, "LAYER_FUNCTIONS", ()):
        assert module.split(".")[0] == "radnorm", (span, module)
        assert callable(getattr(importlib.import_module(module), attr, None)), (span, module, attr)
    assert callable(symdiff.TermSum.differentiate)
    assert callable(symdiff.TermSum.evaluate_reduced)
    assert isinstance(symdiff.TermSum.__dict__.get("build"), classmethod)
