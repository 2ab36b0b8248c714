"""Command-line front end: constant tables, verification runs, identity suites.

Exit status contract: 0 success, 1 usage error, 2 verification mismatch
(or a failed identity), 3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from collections import namedtuple
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence, TextIO

from . import __version__
from .constants import (
    METHODS,
    NormKind,
    ell2_special,
    ell_closed,
    ell_recursive,
    gamma_closed,
    gamma_recursive,
    gamma_special,
    half_identity_check,
)
from .exactnum import format_rational, parse_rational
from .symdiff import (
    CapacityError,
    SamplePoint,
    VerifyReport,
    default_sample_points,
    dimension_split_check,
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
ORACLE_TABLE_MAX_K = 5  # above this, table rows skip the oracle unless forced


class _UsageError(ValueError):
    pass


class TableRequest:
    def __init__(
        self,
        norm: str,
        n_range: tuple[int, int],
        k_range: tuple[int, int],
        s_values: list[Fraction] | None,
        methods: Sequence[str] = ("closed",),
        fmt: str = "plain",
        seed: int = 0,
        decimal: bool = False,
        force_oracle: bool = False,
    ):
        if norm not in ("gamma", "ell"):
            raise _UsageError(f"unknown norm {norm!r}")
        for lo, hi in (n_range, k_range):
            if lo > hi:
                raise _UsageError("empty range")
        if n_range[0] < 1:
            raise _UsageError("dimension range must start at 1 or above")
        if k_range[0] < 0:
            raise _UsageError("order range must start at 0 or above")
        if norm == "ell" and k_range[0] < 1:
            raise _UsageError("ell tables need k >= 1")
        if norm == "gamma" and not s_values:
            raise _UsageError("gamma tables need at least one s value")
        if norm == "ell" and s_values:
            raise _UsageError("ell tables take no s values")
        if fmt not in FORMATS:
            raise _UsageError(f"unknown format {fmt!r}")
        bad = [m for m in methods if m not in METHODS]
        if bad:
            raise _UsageError(f"unknown methods: {', '.join(bad)}")
        if not methods:
            raise _UsageError("at least one method is required")
        self.norm, self.n_range, self.k_range, self.s_values = norm, n_range, k_range, s_values
        self.methods = [m for m in METHODS if m in methods]
        self.fmt, self.seed, self.decimal, self.force_oracle = fmt, seed, decimal, force_oracle


class _OracleMismatch(Exception):
    pass


def _decimal_str(value: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def _oracle_constant(n: int, kind: NormKind, k: int, seed: int) -> Fraction:
    values = rescaled_grad_norms(n, kind, k, default_sample_points(n, seed), weighted=True)
    if len(set(values)) > 1:
        raise _OracleMismatch(
            f"oracle values differ across sample points for n={n}, k={k}, {kind}"
        )
    return values[0]


def _table_cell(request: TableRequest, method: str, n: int, k: int, s: Fraction | None):
    if request.norm == "gamma":
        kind = NormKind.power(s)
        if method == "closed":
            return gamma_closed(n, s, k)
        if method == "recursive":
            return gamma_recursive(n, s, k)
        if method == "special":
            return gamma_special(n, k) if s == Fraction(-(n - 2)) else None
    else:
        kind = NormKind.logarithm()
        if method == "closed":
            return ell_closed(n, k)
        if method == "recursive":
            return ell_recursive(n, k)
        if method == "special":
            return ell2_special(k) if n == 2 else None
    # method == "oracle"
    if k > ORACLE_TABLE_MAX_K and not request.force_oracle:
        return None
    if request.norm == "ell" and k == 0:
        return None
    return _oracle_constant(n, kind, k, request.seed)


def cmd_table(request: TableRequest, out: TextIO | None = None) -> int:
    """Render one row per (N, k[, s]) with one column per requested method."""
    out = out or sys.stdout
    rows = []
    for n in range(request.n_range[0], request.n_range[1] + 1):
        for k in range(request.k_range[0], request.k_range[1] + 1):
            for s in request.s_values or [None]:
                row: dict[str, object] = {"N": n, "k": k, "s": s}
                for method in request.methods:
                    row[method] = _table_cell(request, method, n, k, s)
                rows.append(row)
    columns = ["N", "k", "s"] + list(request.methods)
    if request.decimal:
        columns.append("decimal")
        for row in rows:
            first = next((row[m] for m in request.methods if row[m] is not None), None)
            row["decimal"] = first

    def cell_text(row, column):
        value = row[column]
        if value is None:
            return ""
        if column in ("N", "k"):
            return str(value)
        if column == "decimal":
            return _decimal_str(value)
        return format_rational(value)

    if request.fmt == "json":
        json_rows = []
        for row in rows:
            entry: dict[str, object] = {"N": row["N"], "k": row["k"]}
            for column in columns[2:]:
                entry[column] = cell_text(row, column) or None
            json_rows.append(entry)
        payload = {
            "request": {
                "norm": request.norm,
                "N_range": list(request.n_range),
                "k_range": list(request.k_range),
                "s_values": [format_rational(s) for s in request.s_values or []],
                "methods": list(request.methods),
                "seed": request.seed,
            },
            "rows": json_rows,
            "version": __version__,
        }
        json.dump(payload, out, indent=2)
        out.write("\n")
    elif request.fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([cell_text(row, c) for c in columns])
    else:
        texts = [columns] + [[cell_text(row, c) or "-" for c in columns] for row in rows]
        widths = [max(len(r[i]) for r in texts) for i in range(len(columns))]
        for r in texts:
            out.write("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() + "\n")
    return EXIT_OK


def _render_verify(report: VerifyReport, fmt: str, out: TextIO, timing: bool) -> None:
    kind = report.query.kind
    if fmt == "json":
        payload = {
            "request": {
                "N": report.query.dimension,
                "k": report.query.order,
                "kind": kind.variant,
                "s": format_rational(kind.s) if kind.is_power else None,
            },
            "report": {
                "methods": {m: format_rational(v) for m, v in report.method_values.items()},
                "points": [
                    {"point": [format_rational(c) for c in p.coords], "value": format_rational(v)}
                    for p, v in report.point_values
                ],
                "verdict": report.verdict,
                "detail": report.detail,
            },
            "version": __version__,
        }
        if timing:
            payload["report"]["elapsed_ms"] = report.elapsed_ms
            payload["report"]["stage_ms"] = report.stage_ms
        json.dump(payload, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["item", "value"])
        for m, v in report.method_values.items():
            writer.writerow([m, format_rational(v)])
        for p, v in report.point_values:
            writer.writerow([f"oracle@({p.text()})", format_rational(v)])
        writer.writerow(["verdict", report.verdict])
        if timing:
            writer.writerow(["elapsed_ms", f"{report.elapsed_ms:.3f}"])
            for stage, ms in report.stage_ms.items():
                writer.writerow([f"{stage}_ms", f"{ms:.3f}"])
    else:
        out.write(f"query: N={report.query.dimension} k={report.query.order} {kind}\n")
        for m, v in report.method_values.items():
            out.write(f"{m}: {format_rational(v)}\n")
        out.write("oracle (rescaled):\n")
        for p, v in report.point_values:
            out.write(f"  {p} -> {format_rational(v)}\n")
        out.write(f"verdict: {report.verdict}\n")
        if report.detail:
            out.write(f"detail: {report.detail}\n")
        if timing:
            out.write(f"elapsed_ms: {report.elapsed_ms:.3f}\n")
            for stage, ms in report.stage_ms.items():
                out.write(f"{stage}_ms: {ms:.3f}\n")


def cmd_verify(
    n: int,
    kind: NormKind,
    k: int,
    points: Sequence[SamplePoint] | None = None,
    seed: int = 0,
    fmt: str = "plain",
    out: TextIO | None = None,
    timing: bool = False,
) -> int:
    """Run closed, recursive and oracle methods; exit 0 only on exact match."""
    out = out or sys.stdout
    if points is None or not points:
        points = default_sample_points(n, seed)
    report = verify_constancy(n, kind, k, list(points))
    _render_verify(report, fmt, out, timing)
    return EXIT_OK if report.exact_match else EXIT_MISMATCH


class IdentitySection(namedtuple("IdentitySection", "name status detail", defaults=("",))):
    """One section of the identity suite; status is PASS, FAIL or SKIP."""

    __slots__ = ()


def _run_identities(max_m: int, max_n: int, max_k: int, trials: int, seed: int) -> list[IdentitySection]:
    if max_m < 0 or max_n < 1 or max_k < 1 or trials < 1:
        raise _UsageError("identity bounds must be positive")
    rng = random.Random(seed)
    sections: list[IdentitySection] = []
    power_set = [Fraction(3), Fraction(-1, 2)]

    # Half-shift product identity over random rational nu.
    nus = [Fraction(0), Fraction(1, 2), Fraction(-3, 2)]
    nus += [random_rational(rng) for _ in range(trials)]
    failures = sum(
        not half_identity_check(nu, m) for nu in nus for m in range(max_m + 1)
    )
    sections.append(
        IdentitySection(
            "half-identity",
            "PASS" if failures == 0 else "FAIL",
            f"{len(nus)} values of nu, m <= {max_m}, {failures} failures",
        )
    )

    # Last-axis splitting of the squared norm.
    if max_n < 2:
        sections.append(IdentitySection("dimension-split", "SKIP", "requires N >= 2"))
    else:
        checked = failures = 0
        for n in range(2, max_n + 1):
            points = default_sample_points(n, seed, extra=1)[:3]
            kinds = [NormKind.power(s) for s in power_set] + [NormKind.logarithm()]
            for kind in kinds:
                for k in range(1, max_k + 1):
                    for point in points:
                        checked += 1
                        if not dimension_split_check(n, kind, k, point):
                            failures += 1
        sections.append(
            IdentitySection(
                "dimension-split",
                "PASS" if failures == 0 else "FAIL",
                f"{checked} cases, {failures} failures",
            )
        )

    # Weighted vs. plain enumeration of the squared norm.
    checked = failures = 0
    for n in range(1, min(max_n, 3) + 1):
        kinds = [NormKind.power(s) for s in power_set] + [NormKind.logarithm()]
        points = []
        while len(points) < 5:
            coords = tuple(random_rational(rng) for _ in range(n))
            if any(coords):
                points.append(SamplePoint(coords))
        for kind in kinds:
            for k in range(1, min(max_k, 4) + 1):
                a = rescaled_grad_norms(n, kind, k, points, weighted=True)
                b = rescaled_grad_norms(n, kind, k, points, weighted=False)
                checked += len(points)
                failures += sum(x != y for x, y in zip(a, b))
    sections.append(
        IdentitySection(
            "weighted-agreement",
            "PASS" if failures == 0 else "FAIL",
            f"{checked} cases, {failures} failures",
        )
    )

    # Laplacian of a radial power, symbolically.
    checked = failures = 0
    for n in range(1, min(max_n, 5) + 1):
        for _ in range(trials):
            nu = random_rational(rng)
            u = TermSum.single(n, nu, (0,) * n, 0, 1)
            expected = TermSum.single(n, nu, (0,) * n, -2, nu * (nu + n - 2))
            checked += 1
            if not functions_equal(u.laplacian(), expected):
                failures += 1
    sections.append(
        IdentitySection(
            "laplacian-radial",
            "PASS" if failures == 0 else "FAIL",
            f"{checked} cases, {failures} failures",
        )
    )

    # Divergence of the log gradient vanishes in dimension 2.
    divergence = None
    for i, comp in enumerate(seed_terms(2, NormKind.logarithm()), start=1):
        d = comp.differentiate(i)
        divergence = d if divergence is None else divergence + d
    div_zero = is_zero_function(divergence)
    sections.append(
        IdentitySection(
            "log-divergence",
            "PASS" if div_zero else "FAIL",
            "divergence of the log gradient is zero on R^2" if div_zero else "nonzero",
        )
    )

    # One-step recursion at the fundamental-solution exponent.
    checked = failures = 0
    for n in range(2, min(max_n, 4) + 1):
        for k in range(1, max_k + 1):
            checked += 1
            if not laplacian_recursion_check(n, k):
                failures += 1
    if checked:
        sections.append(
            IdentitySection(
                "laplacian-recursion",
                "PASS" if failures == 0 else "FAIL",
                f"{checked} cases, {failures} failures",
            )
        )
    else:
        sections.append(IdentitySection("laplacian-recursion", "SKIP", "requires N >= 2"))

    # Non-constancy of the unweighted nondecreasing-tuple norm.
    kind = NormKind.logarithm()
    v1 = tilde_norm_sq(2, kind, 2, SamplePoint((Fraction(1), Fraction(0))), rescaled=True)
    v2 = tilde_norm_sq(2, kind, 2, SamplePoint((Fraction(1), Fraction(1))), rescaled=True)
    ok = v1 != v2 and (v1, v2) == (Fraction(2), Fraction(1))
    sections.append(
        IdentitySection(
            "tilde-nonconstancy",
            "PASS" if ok else "FAIL",
            f"rescaled values ({format_rational(v1)}, {format_rational(v2)}) at (1,0) and (1,1)",
        )
    )
    return sections


def cmd_identities(
    max_m: int = 10,
    max_n: int = 3,
    max_k: int = 4,
    trials: int = 20,
    seed: int = 0,
    fmt: str = "plain",
    out: TextIO | None = None,
) -> int:
    """Run the identity suite; exit 0 only if every section passes."""
    out = out or sys.stdout
    sections = _run_identities(max_m, max_n, max_k, trials, seed)
    ok = all(s.status != "FAIL" for s in sections)
    if fmt == "json":
        payload = {
            "request": {
                "max_m": max_m,
                "max_N": max_n,
                "max_k": max_k,
                "trials": trials,
                "seed": seed,
            },
            "report": {
                "sections": [
                    {"name": s.name, "status": s.status, "detail": s.detail} for s in sections
                ],
                "result": "PASS" if ok else "FAIL",
            },
            "version": __version__,
        }
        json.dump(payload, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["section", "status", "detail"])
        for s in sections:
            writer.writerow([s.name, s.status, s.detail])
        writer.writerow(["result", "PASS" if ok else "FAIL", ""])
    else:
        width = max(len(s.name) for s in sections)
        for s in sections:
            out.write(f"{s.name.ljust(width)}  {s.status}  {s.detail}\n")
        out.write(f"result: {'PASS' if ok else 'FAIL'}\n")
    return EXIT_OK if ok else EXIT_MISMATCH


def _parse_span(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, _, hi = text.partition("..")
        return int(lo), int(hi)
    value = int(text)
    return value, value


def _parse_points(text: str) -> list[SamplePoint]:
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coords = tuple(parse_rational(c.strip()) for c in chunk.split(","))
        points.append(SamplePoint(coords))
    return points


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="radnorm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"radnorm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=FORMATS, default="plain")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    t = sub.add_parser("table", help="tabulate constants over an (N, k[, s]) grid")
    t.add_argument("--norm", choices=("gamma", "ell"), required=True)
    t.add_argument("--N", dest="n_span", required=True, help="dimension range, e.g. 1..4 or 3")
    t.add_argument("--k", dest="k_span", required=True, help="order range, e.g. 0..6 or 2")
    t.add_argument("--s", dest="s_list", default=None, help="comma-separated rationals (gamma only)")
    t.add_argument("--methods", default="closed", help="subset of closed,recursive,special,oracle")
    t.add_argument("--decimal", action="store_true", help="append a 12-significant-digit column")
    t.add_argument(
        "--force-oracle",
        action="store_true",
        help=f"run the oracle even for k > {ORACLE_TABLE_MAX_K}",
    )
    common(t)

    v = sub.add_parser("verify", help="cross-check closed, recursive and oracle values")
    v.add_argument("--N", dest="n", type=int, required=True)
    v.add_argument("--kind", choices=("power", "logarithm"), required=True)
    v.add_argument("--s", default=None, help="exponent (power kind only)")
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--points", default=None, help="semicolon-separated rational vectors")
    v.add_argument("--timing", action="store_true", help="include total and per-stage times in the report")
    common(v)

    i = sub.add_parser("identities", help="run the combinatorial identity suite")
    i.add_argument("--max-m", type=int, default=10)
    i.add_argument("--max-N", dest="max_n", type=int, default=3)
    i.add_argument("--max-k", type=int, default=4)
    i.add_argument("--trials", type=int, default=20)
    common(i)
    return parser


def _dispatch(args) -> int:
    if not args.out:
        return _dispatch_to(args, sys.stdout)
    # Open the target only once the report is complete, so a run that stops
    # with an error leaves it as it was.
    report = io.StringIO()
    code = _dispatch_to(args, report)
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report.getvalue())
    except OSError as exc:
        raise _UsageError(f"cannot write --out {args.out}: {exc.strerror}") from exc
    return code


def _dispatch_to(args, out: TextIO) -> int:
    if args.command == "table":
        request = TableRequest(
            norm=args.norm,
            n_range=_parse_span(args.n_span),
            k_range=_parse_span(args.k_span),
            s_values=[parse_rational(c.strip()) for c in args.s_list.split(",")]
            if args.s_list
            else None,
            methods=[m.strip() for m in args.methods.split(",") if m.strip()],
            fmt=args.format,
            seed=args.seed,
            decimal=args.decimal,
            force_oracle=args.force_oracle,
        )
        return cmd_table(request, out)
    if args.command == "verify":
        if args.kind == "power":
            if args.s is None:
                raise _UsageError("power kind needs --s")
            kind = NormKind.power(parse_rational(args.s))
        else:
            if args.s is not None:
                raise _UsageError("logarithm kind takes no --s")
            kind = NormKind.logarithm()
        points = _parse_points(args.points) if args.points else None
        return cmd_verify(
            args.n, kind, args.k, points, args.seed, args.format, out, args.timing
        )
    if args.command == "identities":
        return cmd_identities(
            args.max_m, args.max_n, args.max_k, args.trials, args.seed, args.format, out
        )
    raise _UsageError(f"unknown command {args.command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0; usage errors exit 1 via _Parser
        return int(exc.code or 0)
    try:
        return _dispatch(args)
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
