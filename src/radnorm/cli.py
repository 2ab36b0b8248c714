"""Command-line front end: constant tables, verification runs, identity suites.

Exit status contract: 0 success, 1 usage error (or stdout closed early),
2 verification mismatch (or a failed identity), 3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import re
import sys
from collections import namedtuple
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence, TextIO

from . import __version__
from .constants import FORMULAS, METHODS, NormKind, half_identity_check
from .exactnum import format_rational, parse_rational
from .symdiff import (
    CapacityError,
    SamplePoint,
    _check_scale,
    _dimension_split_checks,
    _fixed_sample_points,
    _validate_norm_args,
    default_sample_points,
    functions_equal,
    is_zero_function,
    laplacian_recursion_check,
    random_rational,
    rescaled_grad_norms,
    seed as seed_terms,
    tilde_norm_sq,
    TermSum,
    verify_constancy,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_CAPACITY = 3

FORMATS = ("json", "csv", "plain")
NORMS = ("gamma", "ell")
VARIANTS = ("power", "logarithm")  # NormKind.variant

# Capacity caps on command-line requests, checked before any work (exit 3).  The
# library's formula routes take any size.  The oracle's only cap is its box,
# MAX_DIMENSION and MAX_ORDER, checked for every oracle cell of a table and for the
# identity suite's largest walk: the whole box as one oracle table with three s
# values takes 1.6-1.7 s.  Costs: wall time on a shared 2-vCPU Xeon, Python 3.11.7,
# low-high of 2-3 runs of one in-process call or of one `radnorm` process with
# stdout discarded.  The caps bound order and cells, not their product.
MAX_FORMULA_ORDER = 400  # table order: at k = 400 a closed cell takes 0.07-0.12 s, a recursive 0.02-0.05 s
MAX_TABLE_CELLS = 10_000  # table rows x methods: a 10,000-cell process at k <= 50 takes 0.9-1.4 s
MAX_IDENTITY_M = 100  # identities --max-m: one nu over m <= 100 takes 10-20 ms (200: 0.09-0.2 s)
MAX_IDENTITY_TRIALS = 200  # identities --trials: 2.6-3.7 s as a process with --max-m at its cap


class _UsageError(ValueError):
    pass


class _OracleMismatch(Exception):
    pass


def _emit(out: TextIO, fmt: str, payload: dict, rows: list, plain_lines: list[str]) -> None:
    """Write one report: ``payload`` and the version as JSON, ``rows`` as CSV, or the lines."""
    if fmt == "json":
        json.dump({**payload, "version": __version__}, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        csv.writer(out, lineterminator="\n").writerows(rows)
    else:
        out.writelines(line + "\n" for line in plain_lines)


def _aligned(rows: Sequence[Sequence[str]]) -> list[str]:
    """Left-aligned columns two spaces apart, with trailing blanks stripped."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def _decimal_str(value: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def _table_cell(method: str, n: int, k: int, kind: NormKind, seed: int):
    if method in FORMULAS:
        return FORMULAS[method](n, kind, k)
    values = rescaled_grad_norms(n, kind, k, default_sample_points(n, seed))
    if len(set(values)) > 1:
        raise _OracleMismatch(f"oracle values differ across sample points for n={n}, k={k}, {kind}")
    return values[0]


def cmd_table(args, out: TextIO) -> int:
    """Render one row per (N, k[, s]) with one column per requested method."""
    (n_lo, n_hi), (k_lo, k_hi) = _parse_span(args.n_span), _parse_span(args.k_span)
    s_values = [parse_rational(c.strip()) for c in args.s_list.split(",")] if args.s_list else []
    requested = [m.strip() for m in args.methods.split(",") if m.strip()]
    if n_lo > n_hi or k_lo > k_hi:
        raise _UsageError("empty range")
    if n_lo < 1:
        raise _UsageError("dimension range must start at 1 or above")
    if k_lo < 0:
        raise _UsageError("order range must start at 0 or above")
    if args.norm == "ell" and k_lo < 1:
        raise _UsageError("ell tables need k >= 1")
    if args.norm == "gamma" and not s_values:
        raise _UsageError("gamma tables need at least one s value")
    if args.norm == "ell" and s_values:
        raise _UsageError("ell tables take no s values")
    bad = [m for m in requested if m not in METHODS]
    if bad:
        raise _UsageError(f"unknown methods: {', '.join(bad)}")
    if not requested:
        raise _UsageError("at least one method is required")
    methods = [m for m in METHODS if m in requested]
    kinds = [NormKind.power(s) for s in s_values] if args.norm == "gamma" else [NormKind.logarithm()]
    ns, ks = range(n_lo, n_hi + 1), range(k_lo, k_hi + 1)
    if k_hi > MAX_FORMULA_ORDER:
        raise CapacityError(f"order k={k_hi} exceeds the table cap of {MAX_FORMULA_ORDER}")
    cells = len(methods) * len(kinds) * (n_hi - n_lo + 1) * (k_hi - k_lo + 1)
    if cells > MAX_TABLE_CELLS:
        raise CapacityError(f"{cells} table cells exceed the cap of {MAX_TABLE_CELLS}")
    if "oracle" in methods:
        # Every oracle cell is checked against the box before any row is computed,
        # in row order, so the error names the first cell that would raise it.
        for n in ns:
            for k in ks:
                _check_scale(n, k)
    columns = ["N", "k", "s", *methods] + (["decimal"] if args.decimal else [])
    rows = []  # cell texts, "" where a cell is blank
    for n in ns:
        for k in ks:
            for kind in kinds:
                values = [_table_cell(m, n, k, kind, args.seed) for m in methods]
                texts = ["" if v is None else format_rational(v) for v in [kind.s, *values]]
                if args.decimal:
                    first = next((v for v in values if v is not None), None)
                    texts.append("" if first is None else _decimal_str(first))
                rows.append([str(n), str(k), *texts])
    payload = {
        "request": {
            "norm": args.norm,
            "N_range": [n_lo, n_hi],
            "k_range": [k_lo, k_hi],
            "s_values": [format_rational(s) for s in s_values],
            "methods": methods,
            "seed": args.seed,
        },
        "rows": [{"N": int(n), "k": int(k), **{c: t or None for c, t in zip(columns[2:], texts)}}
                 for n, k, *texts in rows],
    }
    plain = _aligned([columns] + [[t or "-" for t in row] for row in rows])
    _emit(out, args.format, payload, [columns, *rows], plain)
    return EXIT_OK


def cmd_verify(args, out: TextIO) -> int:
    """Run closed, recursive and oracle methods; exit 0 only on exact match."""
    if args.kind == "power" and args.s is None:
        raise _UsageError("power kind needs --s")
    if args.kind == "logarithm" and args.s is not None:
        raise _UsageError("logarithm kind takes no --s")
    n, k = args.n, args.k
    kind = NormKind.power(parse_rational(args.s)) if args.kind == "power" else NormKind.logarithm()
    points = None if args.points is None else _parse_points(args.points)
    _validate_norm_args(n, kind, k, points or ())  # the oracle box before any point is built
    points = default_sample_points(n, args.seed) if points is None else points
    report = verify_constancy(n, kind, k, points)
    methods = {m: format_rational(v) for m, v in report.method_values.items()}
    values = [(p, format_rational(v)) for p, v in report.point_values]
    payload = {
        "request": {
            "N": n,
            "k": k,
            "kind": kind.variant,
            "s": format_rational(kind.s) if kind.is_power else None,
        },
        "report": {
            "methods": methods,
            "points": [{"point": [format_rational(c) for c in p.coords], "value": v}
                       for p, v in values],
            "verdict": report.verdict,
            "detail": report.detail,
        },
    }
    rows = [["item", "value"], *methods.items()]
    rows += [[f"oracle@({p.text()})", v] for p, v in values] + [["verdict", report.verdict]]
    lines = [f"query: N={n} k={k} {kind}", *(f"{m}: {v}" for m, v in methods.items())]
    lines += ["oracle (rescaled):", *(f"  {p} -> {v}" for p, v in values)]
    lines.append(f"verdict: {report.verdict}")
    if report.detail:
        lines.append(f"detail: {report.detail}")
    if args.timing:
        payload["report"].update(elapsed_ms=report.elapsed_ms, stage_ms=report.stage_ms)
        stages = [("elapsed", report.elapsed_ms), *report.stage_ms.items()]
        rows += [[f"{stage}_ms", f"{ms:.3f}"] for stage, ms in stages]
        lines += [f"{stage}_ms: {ms:.3f}" for stage, ms in stages]
    _emit(out, args.format, payload, rows, lines)
    return EXIT_OK if report.exact_match else EXIT_MISMATCH


class IdentitySection(namedtuple("IdentitySection", "name status detail")):
    """One section of the identity suite; status is PASS, FAIL or SKIP."""

    __slots__ = ()


_Suite = namedtuple("_Suite", "max_m max_n max_k trials rng")
_KINDS = (NormKind.power(3), NormKind.power(Fraction(-1, 2)), NormKind.logarithm())


def _status(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _counted(cases):
    """A section from per-case booleans: SKIP when there are none, else PASS/FAIL."""

    def check(suite: _Suite) -> tuple[str, str]:
        results = list(cases(suite))
        if not results:
            return "SKIP", "requires N >= 2"
        failures = results.count(False)
        return _status(not failures), f"{len(results)} cases, {failures} failures"

    return check


def _half_identity(suite: _Suite) -> tuple[str, str]:
    """Half-shift product identity over random rational nu."""
    nus = [Fraction(0), Fraction(1, 2), Fraction(-3, 2)]
    nus += [random_rational(suite.rng) for _ in range(suite.trials)]
    failures = sum(not half_identity_check(nu, m) for nu in nus for m in range(suite.max_m + 1))
    detail = f"{len(nus)} values of nu, m <= {suite.max_m}, {failures} failures"
    return _status(not failures), detail


@_counted
def _dimension_split(suite: _Suite):
    """The oracle against the dimension recursion (the last-axis split)."""
    for n in range(2, suite.max_n + 1):
        points = _fixed_sample_points(n)[:3]  # e_1, (1,...,1), (1,...,n)
        for kind in _KINDS:
            for k in range(1, suite.max_k + 1):
                yield from _dimension_split_checks(n, kind, k, points)


@_counted
def _weighted_agreement(suite: _Suite):
    """Weighted vs. plain enumeration of the squared norm."""
    for n in range(1, min(suite.max_n, 3) + 1):
        points = []
        while len(points) < 5:
            coords = tuple(random_rational(suite.rng) for _ in range(n))
            if any(coords):
                points.append(SamplePoint(coords))
        for kind in _KINDS:
            for k in range(1, min(suite.max_k, 4) + 1):
                weighted = rescaled_grad_norms(n, kind, k, points, weighted=True)
                plain = rescaled_grad_norms(n, kind, k, points, weighted=False)
                yield from (a == b for a, b in zip(weighted, plain))


@_counted
def _laplacian_radial(suite: _Suite):
    """Laplacian of a radial power, symbolically."""
    for n in range(1, min(suite.max_n, 5) + 1):
        for _ in range(suite.trials):
            nu = random_rational(suite.rng)
            u = TermSum.single(n, nu, (0,) * n, 0, 1)
            expected = TermSum.single(n, nu, (0,) * n, -2, nu * (nu + n - 2))
            yield functions_equal(u.laplacian(), expected)


def _log_divergence(suite: _Suite) -> tuple[str, str]:
    """Divergence of the log gradient vanishes in dimension 2."""
    gradient = seed_terms(2, NormKind.logarithm())
    dx, dy = (comp.differentiate(i) for i, comp in enumerate(gradient, start=1))
    if is_zero_function(dx + dy):
        return "PASS", "divergence of the log gradient is zero on R^2"
    return "FAIL", "nonzero"


@_counted
def _laplacian_recursion(suite: _Suite):
    """One-step recursion at the fundamental-solution exponent."""
    for n in range(2, min(suite.max_n, 4) + 1):
        for k in range(1, suite.max_k + 1):
            yield laplacian_recursion_check(n, k)


def _tilde_nonconstancy(suite: _Suite) -> tuple[str, str]:
    """Non-constancy of the unweighted nondecreasing-tuple norm."""
    kind = NormKind.logarithm()
    v1, v2 = (tilde_norm_sq(2, kind, 2, SamplePoint(p), rescaled=True) for p in ((1, 0), (1, 1)))
    values = f"({format_rational(v1)}, {format_rational(v2)})"
    return _status((v1, v2) == (2, 1)), f"rescaled values {values} at (1,0) and (1,1)"


# In run order, which fixes what each section draws from the seeded generator.
_SECTIONS = (
    ("half-identity", _half_identity),
    ("dimension-split", _dimension_split),
    ("weighted-agreement", _weighted_agreement),
    ("laplacian-radial", _laplacian_radial),
    ("log-divergence", _log_divergence),
    ("laplacian-recursion", _laplacian_recursion),
    ("tilde-nonconstancy", _tilde_nonconstancy),
)


def _run_identities(
    max_m: int, max_n: int, max_k: int, trials: int, seed: int
) -> list[IdentitySection]:
    if max_m < 0 or max_n < 1 or max_k < 1 or trials < 1:
        raise _UsageError("identity bounds must be positive")
    if max_m > MAX_IDENTITY_M:
        raise CapacityError(f"--max-m {max_m} exceeds the cap of {MAX_IDENTITY_M}")
    if trials > MAX_IDENTITY_TRIALS:
        raise CapacityError(f"--trials {trials} exceeds the cap of {MAX_IDENTITY_TRIALS}")
    if max_n >= 2:  # the split section walks to (max_n, max_k)
        _check_scale(max_n, max_k)
    suite = _Suite(max_m, max_n, max_k, trials, random.Random(seed))
    return [IdentitySection(name, *check(suite)) for name, check in _SECTIONS]


def cmd_identities(args, out: TextIO) -> int:
    """Run the identity suite; exit 0 only if every section passes."""
    sections = _run_identities(args.max_m, args.max_n, args.max_k, args.trials, args.seed)
    result = _status(all(s.status != "FAIL" for s in sections))
    payload = {
        "request": {"max_m": args.max_m, "max_N": args.max_n, "max_k": args.max_k,
                    "trials": args.trials, "seed": args.seed},
        "report": {"sections": [s._asdict() for s in sections], "result": result},
    }
    rows = [["section", "status", "detail"], *sections, ["result", result, ""]]
    _emit(out, args.format, payload, rows, _aligned(sections) + [f"result: {result}"])
    return EXIT_OK if result == "PASS" else EXIT_MISMATCH


_INT_RE = re.compile(r"[+-]?[0-9]+")  # int() alone also takes non-ASCII digits, "_" and blanks


def _int(text: str) -> int:
    # Every integer option: ASCII digits, as --s is read, and argparse's wording for type=int.
    try:
        if _INT_RE.fullmatch(text):
            return int(text)
    except ValueError:  # past int()'s digit limit
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_span(text: str) -> tuple[int, int]:
    lo, dots, hi = text.partition("..")
    try:
        return _int(lo), _int(hi if dots else lo)
    except argparse.ArgumentTypeError:
        raise _UsageError(f"not a range: {text!r}") from None


def _parse_points(text: str) -> list[SamplePoint]:
    chunks = [chunk.strip() for chunk in text.split(";") if chunk.strip()]
    if not chunks:
        raise _UsageError("--points names no point")
    return [SamplePoint(parse_rational(c.strip()) for c in chunk.split(",")) for chunk in chunks]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def exit(self, status=0, message=None):
        sys.stdout.flush()  # --help and --version fail here on a closed pipe, not at exit
        super().exit(status, message)

    def _get_values(self, action, arg_strings):
        # Python 3.11 drops the value of `--opt=--` and stores [] unchecked; later
        # releases give the option the text "--", which is what this does.
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def _one_of(choices: Sequence[str]):
    # A type check worded as argparse 3.11 words a failed choices check, which
    # later releases reword; ``choices=`` stays for usage and --help.
    def check(text: str) -> str:
        if text not in choices:
            allowed = ", ".join(map(repr, choices))
            raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {allowed})")
        return text

    return check


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="radnorm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"radnorm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", type=_one_of(FORMATS), choices=FORMATS, default="plain")
        p.add_argument("--seed", type=_int, default=0)
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    t = sub.add_parser("table", help="tabulate constants over an (N, k[, s]) grid")
    t.add_argument("--norm", type=_one_of(NORMS), choices=NORMS, required=True)
    t.add_argument("--N", dest="n_span", required=True, help="dimension range, e.g. 1..4 or 3")
    t.add_argument("--k", dest="k_span", required=True, help="order range, e.g. 0..6 or 2")
    t.add_argument("--s", dest="s_list", default=None, help="comma-separated rationals (gamma only)")
    t.add_argument("--methods", default="closed", help=f"subset of {','.join(METHODS)}")
    t.add_argument("--decimal", action="store_true", help="append a 12-significant-digit column")
    common(t)
    t.set_defaults(run=cmd_table)

    v = sub.add_parser("verify", help="cross-check closed, recursive and oracle values")
    v.add_argument("--N", dest="n", type=_int, required=True)
    v.add_argument("--kind", type=_one_of(VARIANTS), choices=VARIANTS, required=True)
    v.add_argument("--s", default=None, help="exponent (power kind only)")
    v.add_argument("--k", type=_int, required=True)
    v.add_argument("--points", default=None, help="semicolon-separated rational vectors")
    v.add_argument("--timing", action="store_true", help="include total and per-stage times in the report")
    common(v)
    v.set_defaults(run=cmd_verify)

    i = sub.add_parser("identities", help="run the combinatorial identity suite")
    i.add_argument("--max-m", type=_int, default=10)
    i.add_argument("--max-N", dest="max_n", type=_int, default=3)
    i.add_argument("--max-k", type=_int, default=4)
    i.add_argument("--trials", type=_int, default=20)
    common(i)
    i.set_defaults(run=cmd_identities)
    return parser


def _dispatch(args) -> int:
    if not args.out:
        code = args.run(args, sys.stdout)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    # Open the target only once the report is complete, so a run that stops
    # with an error leaves it as it was.
    report = io.StringIO()
    code = args.run(args, report)
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report.getvalue())
    except OSError as exc:
        raise _UsageError(f"cannot write --out {args.out}: {exc.strerror}") from exc
    return code


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return _dispatch(_build_parser().parse_args(argv))
    except SystemExit as exc:  # --help exits 0; usage errors exit 1 via _Parser
        return int(exc.code or 0)
    except BrokenPipeError:
        # The reader is gone: point stdout at devnull so the final flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"radnorm: capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except _OracleMismatch as exc:
        print(f"radnorm: mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (ValueError, ZeroDivisionError) as exc:
        print(f"radnorm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
