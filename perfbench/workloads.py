"""The three seeded workloads: input generation, execution and checking.

Each workload yields its inputs in blocks.  A block is a fixed multiset of
operation shapes (which routine, which size); the seed only draws the free
parameters (s, dimension, sample points, order of the block), so every seed
gives the same mix of work and a run always ends on a block boundary.  See
README.md for why each workload is shaped the way it is.

``run(op)`` performs one operation and returns what it produced;
``check(op, result)`` compares that result with an independent route and is
called after the timed loop.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import count
from pathlib import Path

import radnorm

CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"
# What the installed `radnorm` console script runs.
CLI_ENTRY = "import sys; from radnorm.cli import main; sys.exit(main())"


def fresh_s(rng: random.Random) -> Fraction:
    """A non-integer rational in (-4, 4); integers would make some
    derivatives vanish and the operation unrepresentatively cheap."""
    while True:
        q = rng.randint(2, 9)
        p = rng.randint(-4 * q + 1, 4 * q - 1)
        if math.gcd(p, q) == 1:
            return Fraction(p, q)


class KernelSweep:
    """Certify one constant by the closed form and by dimension recursion."""

    name = "kernel_sweep"
    # Twelve orders from 8 to 127, one per stratum, then three at k = 160:
    # the median falls inside the 8th stratum and p90 inside the k = 160 group.
    STRATA = ((8, 9), (10, 12), (13, 15), (16, 19), (20, 24), (25, 30),
              (31, 38), (39, 48), (49, 61), (62, 78), (79, 99), (100, 127))
    TAIL_K = 160
    TAIL_OPS = 3
    # Every fourth stratum uses the logarithm family, rotating from block to
    # block, so each run holds the same share of cheaper logarithm operations
    # in every stratum and the median does not move with the seed.
    ELL_EVERY = 4

    def blocks(self, seed: int):
        rng = random.Random(seed)
        for index in count():
            ells = set(range(index % self.ELL_EVERY, len(self.STRATA), self.ELL_EVERY))
            block = []
            for i, (lo, hi) in enumerate(self.STRATA):
                n, k = rng.randint(2, 12), rng.randint(lo, hi)
                block.append(("ell", n, k, None) if i in ells else ("gamma", n, k, fresh_s(rng)))
            for _ in range(self.TAIL_OPS):
                block.append(("gamma", rng.randint(2, 12), self.TAIL_K, fresh_s(rng)))
            rng.shuffle(block)
            yield block

    def run(self, op):
        family, n, k, s = op
        if family == "gamma":
            return radnorm.gamma_closed(n, s, k), radnorm.gamma_recursive(n, s, k)
        return radnorm.ell_closed(n, k), radnorm.ell_recursive(n, k)

    def check(self, op, result) -> bool:
        closed, recursive = result
        return closed == recursive


_WARM_LOG_MIDDLE = [(3, 10), (4, 7), (5, 5), (6, 4)]


class OracleVerify:
    """verify_constancy over the desk-scale (n, k) grid."""

    name = "oracle_verify"
    # Twelve strata of (n, k) cells whose operations cost about the same,
    # cheapest first, alternating logarithm kind (repeated cells, so the
    # derivative cache is hit) and power kind (fresh s, so it is missed);
    # then three cold power operations at cells of equal cost.  As in
    # KernelSweep the median falls inside the 8th stratum and p90 inside the
    # tail group; strata 7 to 9 cost about the same, so the median does not
    # depend on how they interleave.
    STRATA = (
        ("logarithm", [(n, k) for n in range(2, 7) for k in (1, 2, 3)]),
        ("power", [(n, k) for n in range(2, 7) for k in (1, 2, 3)]),
        ("logarithm", [(2, 6), (2, 7), (2, 8), (2, 9), (2, 10), (3, 4), (3, 5), (4, 4)]),
        ("power", [(2, 6), (2, 7), (2, 8), (2, 9), (3, 4), (3, 5), (4, 4), (5, 3), (6, 3)]),
        ("logarithm", [(3, 6), (3, 7), (3, 8), (4, 5)]),
        ("power", [(3, 6), (3, 7), (3, 8), (4, 5), (5, 4)]),
        ("logarithm", _WARM_LOG_MIDDLE),
        ("power", [(3, 9), (4, 6), (6, 4)]),
        ("logarithm", _WARM_LOG_MIDDLE),
        ("power", [(4, 7), (5, 5)]),
        ("logarithm", [(4, 8), (5, 6), (6, 5)]),
        ("power", [(4, 8), (5, 6), (6, 5)]),
    )
    TAIL = ("power", [(4, 10), (5, 8)])
    TAIL_OPS = 3

    def blocks(self, seed: int):
        rng = random.Random(seed)
        while True:
            block = []
            for variant, cells in self.STRATA + (self.TAIL,) * self.TAIL_OPS:
                n, k = rng.choice(cells)
                s = fresh_s(rng) if variant == "power" else None
                block.append((variant, n, k, s, rng.randrange(1000)))
            rng.shuffle(block)
            yield block

    def run(self, op):
        variant, n, k, s, point_seed = op
        kind = radnorm.NormKind.power(s) if variant == "power" else radnorm.NormKind.logarithm()
        return radnorm.verify_constancy(n, kind, k, radnorm.default_sample_points(n, point_seed))

    def check(self, op, report) -> bool:
        return report.verdict == "exact-match"


IDENTITY_SECTIONS = (
    "half-identity", "dimension-split", "weighted-agreement", "laplacian-radial",
    "log-divergence", "laplacian-recursion", "tilde-nonconstancy",
)


class CliMix:
    """One `radnorm` subprocess at a time: table, verify and identities."""

    name = "cli_mix"
    FORMATS = ("json", "csv", "plain")

    def __init__(self):
        self.trace_dir: Path | None = None
        self.process_s = 0.0
        self.output_bytes = 0
        self._ops = 0

    def blocks(self, seed: int):
        rng = random.Random(seed)
        while True:
            shapes = [self._grid_table, self._oracle_table, self._ell_table,
                      self._verify_power, self._verify_log, self._identities]
            block = [shape(rng) + ["--format", fmt] for shape in shapes for fmt in self.FORMATS]
            rng.shuffle(block)
            yield [tuple(argv) for argv in block]

    # Tables over grids that share their s values across all rows.
    @staticmethod
    def _grid_table(rng):
        n = rng.randint(2, 6)
        k = rng.randint(4, 16)
        s = ",".join(str(v) for v in (Fraction(2 - n), fresh_s(rng)))
        return ["table", "--norm", "gamma", "--N", f"{n}..{n + 1}", "--k", f"{k}..{k + 3}",
                f"--s={s}", "--methods", "closed,recursive,special"]

    @staticmethod
    def _oracle_table(rng):
        if rng.random() < 0.5:
            return ["table", "--norm", "ell", "--N", "2..3", "--k", "1..4",
                    "--methods", "closed,special,oracle"]
        return ["table", "--norm", "gamma", "--N", "2..3", "--k", "1..4",
                f"--s={fresh_s(rng)}", "--methods", "closed,recursive,oracle"]

    @staticmethod
    def _ell_table(rng):
        return ["table", "--norm", "ell", "--N", f"2..{rng.randint(3, 5)}",
                "--k", f"1..{rng.randint(8, 14)}", "--methods", "closed,recursive,special"]

    @staticmethod
    def _verify_power(rng):
        return ["verify", "--N", str(rng.randint(2, 4)), "--kind", "power",
                f"--s={fresh_s(rng)}", "--k", str(rng.randint(2, 5))]

    @staticmethod
    def _verify_log(rng):
        return ["verify", "--N", str(rng.randint(2, 4)), "--kind", "logarithm",
                "--k", str(rng.randint(2, 5))]

    # The same suite size every time, so that this heaviest shape forms a
    # tail group of uniform cost; the seed draws its random rationals.
    @staticmethod
    def _identities(rng):
        return ["identities", "--max-m", "10", "--max-N", "3", "--max-k", "4",
                "--trials", "20", "--seed", str(rng.randrange(10**6))]

    def run(self, argv):
        if self.trace_dir is None:
            command = [sys.executable, "-c", CLI_ENTRY, *argv]
        else:
            span_file = self.trace_dir / f"op-{self._ops:05d}.spans"
            command = [sys.executable, str(CLI_CHILD), str(span_file), *argv]
        self._ops += 1
        start = time.perf_counter()
        proc = subprocess.run(command, capture_output=True, timeout=120)
        self.process_s += time.perf_counter() - start
        self.output_bytes += len(proc.stdout)
        return proc.returncode, proc.stdout.decode()

    def check(self, argv, result) -> bool:
        code, stdout = result
        if code != 0:
            return False
        fmt = argv[argv.index("--format") + 1]
        command = argv[0]
        if command == "table":
            return _table_rows(stdout, fmt) == _expected_table(argv)
        if command == "verify":
            return _check_verify(stdout, fmt, argv)
        return _identity_sections(stdout, fmt) == _expected_identities()


def _option(argv, flag):
    for i, arg in enumerate(argv):
        if arg == flag:
            return argv[i + 1]
        if arg.startswith(flag + "="):
            return arg[len(flag) + 1:]
    return None


def _span(text):
    lo, _, hi = text.partition("..")
    return range(int(lo), int(hi or lo) + 1)


def _expected_table(argv):
    """Rows (N, k, s, {method: value}) computed in-process by the library."""
    norm = _option(argv, "--norm")
    methods = _option(argv, "--methods").split(",")
    s_values = [Fraction(v) for v in _option(argv, "--s").split(",")] if norm == "gamma" else [None]
    fmt = radnorm.format_rational
    rows = []
    for n in _span(_option(argv, "--N")):
        for k in _span(_option(argv, "--k")):
            for s in s_values:
                if norm == "gamma":
                    closed, recursive = radnorm.gamma_closed(n, s, k), radnorm.gamma_recursive(n, s, k)
                    special = radnorm.gamma_special(n, k) if s == 2 - n else None
                else:
                    closed, recursive = radnorm.ell_closed(n, k), radnorm.ell_recursive(n, k)
                    special = radnorm.ell2_special(k) if n == 2 else None
                # The CLI runs the oracle only up to k = 5 unless forced.
                oracle = closed if k <= 5 else None
                values = {"closed": closed, "recursive": recursive, "special": special, "oracle": oracle}
                cells = {m: fmt(values[m]) if values[m] is not None else None for m in methods}
                rows.append((str(n), str(k), fmt(s) if s is not None else None, cells))
    return rows


def _table_rows(stdout, fmt):
    """Rows (N, k, s, {method: text}) parsed from a table in any format."""
    if fmt == "json":
        records = json.loads(stdout)["rows"]
        return [
            (str(r.pop("N")), str(r.pop("k")), r.pop("s"), r) for r in records
        ]
    if fmt == "csv":
        lines = list(csv.reader(io.StringIO(stdout)))
        blank = ""
    else:
        lines = [line.split() for line in stdout.splitlines()]
        blank = "-"
    header, body = lines[0], lines[1:]
    rows = []
    for line in body:
        cells = {c: (v if v != blank else None) for c, v in zip(header, line)}
        rows.append((cells.pop("N"), cells.pop("k"), cells.pop("s"), cells))
    return rows


def _check_verify(stdout, fmt, argv) -> bool:
    n, k = int(_option(argv, "--N")), int(_option(argv, "--k"))
    if _option(argv, "--kind") == "power":
        expected = radnorm.gamma_closed(n, Fraction(_option(argv, "--s")), k)
    else:
        expected = radnorm.ell_closed(n, k)
    text = radnorm.format_rational(expected)
    points = [p.text() for p in radnorm.default_sample_points(n, 0)]
    if fmt == "json":
        report = json.loads(stdout)["report"]
        methods = report["methods"]
        got_points = [(",".join(p["point"]), p["value"]) for p in report["points"]]
        verdict = report["verdict"]
    elif fmt == "csv":
        items = list(csv.reader(io.StringIO(stdout)))[1:]
        methods = {item: value for item, value in items if item in ("closed", "recursive")}
        got_points = [(item[len("oracle@("):-1], value) for item, value in items
                      if item.startswith("oracle@")]
        verdict = dict(items)["verdict"]
    else:
        lines = stdout.splitlines()
        methods = dict(line.split(": ", 1) for line in lines
                       if line.startswith(("closed: ", "recursive: ")))
        got_points = [tuple(line.strip()[1:].split(") -> ")) for line in lines if " -> " in line]
        verdict = lines[-1].split(": ", 1)[1]
    return (
        verdict == "exact-match"
        and methods == {"closed": text, "recursive": text}
        and got_points == [(p, text) for p in points]
    )


def _expected_identities():
    """Every section passes; the tilde section quotes two library values."""
    kind = radnorm.NormKind.logarithm()
    v1, v2 = (
        radnorm.tilde_norm_sq(2, kind, 2, radnorm.SamplePoint(p), rescaled=True)
        for p in ((1, 0), (1, 1))
    )
    fmt = radnorm.format_rational
    tilde = f"rescaled values ({fmt(v1)}, {fmt(v2)}) at (1,0) and (1,1)"
    return [(name, "PASS", tilde if name == "tilde-nonconstancy" else None)
            for name in IDENTITY_SECTIONS] + [("result", "PASS", None)]


def _identity_sections(stdout, fmt):
    """(name, status, detail-or-None) per section, failure counts checked."""
    if fmt == "json":
        report = json.loads(stdout)["report"]
        rows = [(s["name"], s["status"], s["detail"]) for s in report["sections"]]
        rows.append(("result", report["result"], ""))
    elif fmt == "csv":
        rows = [tuple(r) for r in csv.reader(io.StringIO(stdout))][1:]
    else:
        lines = stdout.splitlines()
        rows = [tuple(line.split(None, 2)) for line in lines[:-1]]
        rows.append(("result", lines[-1].split(": ", 1)[1], ""))
    parsed = []
    for name, status, detail in rows:
        if name == "tilde-nonconstancy":
            parsed.append((name, status, detail))
            continue
        if "failures" in detail and not detail.endswith(" 0 failures"):
            status = "FAIL"
        parsed.append((name, status, None))
    return parsed


WORKLOADS = {w.name: w for w in (KernelSweep, OracleVerify, CliMix)}
