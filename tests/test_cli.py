import contextlib
import io
import json
import os
import stat
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radnorm
from radnorm import cli
from radnorm.cli import (
    EXIT_CAPACITY,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    MAX_FORMULA_ORDER,
    MAX_IDENTITY_M,
    MAX_IDENTITY_TRIALS,
    MAX_TABLE_CELLS,
    TableRequest,
    _run_identities,
    main,
)
from radnorm.constants import FORMULAS, NormKind, gamma_closed
from radnorm.exactnum import format_rational, parse_rational
from radnorm.symdiff import (
    MAX_ORDERED_TUPLES,
    CapacityError,
    SamplePoint,
    default_sample_points,
    rescaled_grad_norms,
    verify_constancy,
)

SRC = str(Path(radnorm.__file__).resolve().parents[1])
PAST_DIGIT_LIMIT = "9" * (sys.get_int_max_str_digits() + 1)  # int() refuses this text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# table


def test_table_gamma_plain(capsys):
    code, out, _ = run(
        capsys, "table", "--norm", "gamma", "--N", "1..3", "--k", "2", "--s", "3",
        "--methods", "closed,recursive,oracle",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].split() == ["N", "k", "s", "closed", "recursive", "oracle"]
    assert lines[1].split() == ["1", "2", "3", "36", "36", "36"]
    assert lines[2].split() == ["2", "2", "3", "45", "45", "45"]
    assert lines[3].split() == ["3", "2", "3", "54", "54", "54"]


def test_table_ell_csv_header_and_order(capsys):
    code, out, _ = run(
        capsys, "table", "--norm", "ell", "--N", "2..4", "--k", "2",
        "--methods", "recursive,closed", "--format", "csv",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    # header mandatory; method columns in the fixed order closed, recursive
    assert lines[0] == "N,k,s,closed,recursive"
    assert lines[1:] == ["2,2,,2,2", "3,2,,3,3", "4,2,,4,4"]


def test_table_gamma_zero_order(capsys):
    code, out, _ = run(capsys, "table", "--norm", "gamma", "--N", "2", "--k", "0", "--s", "5")
    assert code == EXIT_OK
    assert out.strip().splitlines()[1].split() == ["2", "0", "5", "1"]


def test_table_special_cells_only_where_defined(capsys):
    # values starting with "-" need the --s=... form, as usual with argparse
    code, out, _ = run(
        capsys, "table", "--norm", "gamma", "--N", "4", "--k", "2", "--s=-2,1",
        "--methods", "closed,special", "--format", "csv",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[1] == "4,2,-2,48,48"  # s = -(n-2): special defined
    assert lines[2] == "4,2,1,3,"  # otherwise empty


def test_table_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "table", "--norm", "gamma", "--N", "1..2", "--k", "0..3",
        "--s", "1/2,-3", "--methods", "closed,recursive", "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["version"] == radnorm.__version__
    assert payload["request"]["norm"] == "gamma"
    for row in payload["rows"]:
        s = parse_rational(row["s"])
        value = parse_rational(row["closed"])
        assert value == radnorm.gamma_closed(row["N"], s, row["k"])
        assert parse_rational(row["recursive"]) == value


def test_table_oracle_skipped_above_cap_unless_forced(capsys):
    code, out, _ = run(
        capsys, "table", "--norm", "gamma", "--N", "1", "--k", "6", "--s", "2",
        "--methods", "closed,oracle", "--format", "csv",
    )
    assert code == EXIT_OK
    assert out.strip().splitlines()[1] == "1,6,2,0,"
    code, out, _ = run(
        capsys, "table", "--norm", "gamma", "--N", "1", "--k", "6", "--s", "2",
        "--methods", "closed,oracle", "--format", "csv", "--force-oracle",
    )
    assert code == EXIT_OK
    assert out.strip().splitlines()[1] == "1,6,2,0,0"


@pytest.mark.parametrize("argv, first_failing", [
    (["--N", "1..7", "--k", "1..3", "--s", "1", "--methods", "closed,oracle"], "n=7, k=1"),
    (["--N", "1..2", "--k", "9..11", "--s", "1,2", "--methods", "oracle", "--force-oracle"],
     "n=1, k=11"),
], ids=["dimension", "forced order"])
def test_table_checks_the_oracle_box_before_any_walk(capsys, monkeypatch, argv, first_failing):
    walks = []
    real = cli.rescaled_grad_norms

    def counted(*args, **kwargs):
        walks.append(args[:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "rescaled_grad_norms", counted)
    code, out, err = run(capsys, "table", "--norm", "gamma", *argv)
    assert (code, out, walks) == (EXIT_CAPACITY, "", [])
    assert err == (f"radnorm: capacity exceeded: {first_failing} exceeds the desk-scale caps "
                   "(n <= 6, k <= 10)\n")


def test_table_outside_the_oracle_box_runs_where_the_oracle_does_not(capsys):
    # Above ORACLE_TABLE_MAX_K the oracle column stays blank unless forced, so N = 7 is fine.
    code, out, _ = run(capsys, "table", "--norm", "ell", "--N", "7", "--k", "6..7",
                       "--methods", "closed,oracle", "--format", "csv")
    assert code == EXIT_OK
    assert [line.endswith(",") for line in out.splitlines()[1:]] == [True, True]


def test_table_decimal_column(capsys):
    code, out, _ = run(
        capsys, "table", "--norm", "gamma", "--N", "1", "--k", "2", "--s", "1/2",
        "--format", "csv", "--decimal",
    )
    assert code == EXIT_OK
    assert out.strip().splitlines()[1] == "1,2,1/2,1/16,0.0625"


def test_table_request_validation():
    # methods, format, seed, decimal, force_oracle as the parser's defaults give them
    rest = (["closed"], "plain", 0, False, False)
    with pytest.raises(ValueError):
        TableRequest("gamma", (2, 1), (0, 2), [Fraction(1)], *rest)
    with pytest.raises(ValueError):
        TableRequest("gamma", (1, 2), (0, 2), None, *rest)
    with pytest.raises(ValueError):
        TableRequest("ell", (1, 2), (0, 2), None, *rest)
    with pytest.raises(ValueError):
        TableRequest("ell", (1, 2), (1, 2), [Fraction(1)], *rest)
    with pytest.raises(ValueError):
        TableRequest("gamma", (1, 2), (1, 2), [Fraction(1)], ["magic"], *rest[1:])
    with pytest.raises(ValueError, match="^unknown norm 'delta'$"):
        TableRequest("delta", (1, 2), (1, 2), [Fraction(1)], *rest)
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        TableRequest("gamma", (1, 2), (1, 2), [Fraction(1)], ["closed"], "xml", *rest[2:])
    request = TableRequest("gamma", (1, 2), (1, 2), [Fraction(1)], ["oracle", "closed"], *rest[1:])
    assert request.methods == ["closed", "oracle"]


@pytest.mark.parametrize("norm", ["gamma", "ell"])
def test_table_special_column_is_blank_exactly_where_the_registry_has_no_form(capsys, norm):
    s_values = [Fraction(2 - n) for n in range(1, 7)] + [Fraction(1, 3)]
    argv = ["table", "--norm", norm, "--N", "1..6", "--methods", "special", "--format", "csv"]
    if norm == "gamma":
        argv += ["--k", "0..8", "--s=" + ",".join(map(format_rational, s_values))]
    else:
        argv += ["--k", "1..8"]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == (6 * 9 * len(s_values) if norm == "gamma" else 6 * 8)
    for n, k, s, special in rows:
        kind = NormKind.power(parse_rational(s)) if s else NormKind.logarithm()
        value = FORMULAS["special"](int(n), kind, int(k))
        assert special == ("" if value is None else format_rational(value))


def test_a_value_past_the_int_digit_limit_is_written_in_full(capsys):
    code, out, err = run(capsys, "table", "--norm", "gamma", "--N", "2", "--k", "400", "--s=1000001/3")
    assert (code, err) == (EXIT_OK, "")
    text = out.splitlines()[1].split()[-1]
    assert len(text) > sys.get_int_max_str_digits()
    # Decimal converts without the digit limit that int() applies to text.
    value = Fraction(*(int(Decimal(part)) for part in text.split("/")))
    assert value == gamma_closed(2, Fraction(1000001, 3), 400)


def test_an_exponent_past_the_int_digit_limit_is_one_usage_line(capsys):
    limit = sys.get_int_max_str_digits()
    argv = ["table", "--norm", "gamma", "--N", "2", "--k", "2", "--s=1/" + "3" * (limit + 1)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"radnorm: error: numerator or denominator over {limit} digits\n"


# ---------------------------------------------------------------------------
# verify


def test_verify_log_example(capsys):
    code, out, _ = run(capsys, "verify", "--N", "3", "--kind", "logarithm", "--k", "3")
    assert code == EXIT_OK
    assert "closed: 28" in out
    assert "recursive: 28" in out
    assert "verdict: exact-match" in out


def test_verify_with_explicit_points(capsys):
    code, out, _ = run(
        capsys, "verify", "--N", "2", "--kind", "power", "--s", "0", "--k", "1",
        "--points", "1,0;1,2",
    )
    assert code == EXIT_OK
    assert "closed: 0" in out
    assert "verdict: exact-match" in out


def test_verify_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "verify", "--N", "1", "--kind", "power", "--s", "1/2", "--k", "2",
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["report"]["verdict"] == "exact-match"
    assert parse_rational(payload["report"]["methods"]["closed"]) == Fraction(1, 16)
    for entry in payload["report"]["points"]:
        assert parse_rational(entry["value"]) == Fraction(1, 16)
        for c in entry["point"]:
            parse_rational(c)


def test_verify_csv(capsys):
    code, out, _ = run(
        capsys, "verify", "--N", "2", "--kind", "logarithm", "--k", "2", "--format", "csv",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "item,value"
    assert "closed,2" in lines
    assert lines[-1] == "verdict,exact-match"


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_verify_timing_adds_stages_and_nothing_else(capsys, fmt):
    argv = ["verify", "--N", "3", "--kind", "power", "--s", "1/2", "--k", "3", "--format", fmt]
    code, plain_out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert "_ms" not in plain_out
    code, timed_out, _ = run(capsys, *argv, "--timing")
    assert code == EXIT_OK
    stages = ["oracle", "closed", "recursive"]
    if fmt == "json":
        timed = json.loads(timed_out)
        report = timed["report"]
        assert list(report.pop("stage_ms")) == stages
        assert report.pop("elapsed_ms") >= 0
        assert timed == json.loads(plain_out)
    else:
        sep = "," if fmt == "csv" else ": "
        lines = timed_out.splitlines()
        timing = [line for line in lines if "_ms" in line]
        assert [line.split(sep)[0] for line in timing] == ["elapsed_ms"] + [f"{s}_ms" for s in stages]
        assert all(float(line.split(sep)[1]) >= 0 for line in timing)
        assert [line for line in lines if "_ms" not in line] == plain_out.splitlines()


# ---------------------------------------------------------------------------
# identities


def test_identities_defaults_pass(capsys):
    code, out, _ = run(capsys, "identities", "--max-m", "6", "--trials", "5")
    assert code == EXIT_OK
    assert "result: PASS" in out
    assert "tilde-nonconstancy" in out
    assert "(2, 1)" in out


def test_identities_skips_split_in_dimension_one(capsys):
    code, out, _ = run(capsys, "identities", "--max-N", "1", "--max-m", "3", "--trials", "3")
    assert code == EXIT_OK
    assert "dimension-split      SKIP" in out


def test_identities_log_divergence_fails_when_the_divergence_is_nonzero(capsys, monkeypatch):
    monkeypatch.setattr(cli, "is_zero_function", lambda terms: False)
    code, out, _ = run(capsys, "identities", "--max-m", "1", "--max-k", "1", "--trials", "1",
                       "--format", "json")
    assert code == EXIT_MISMATCH
    report = json.loads(out)["report"]
    sections = {s["name"]: s for s in report["sections"]}
    assert sections["log-divergence"] == {"name": "log-divergence", "status": "FAIL", "detail": "nonzero"}
    assert report["result"] == "FAIL"


def test_identities_json(capsys):
    code, out, _ = run(
        capsys, "identities", "--max-m", "3", "--max-k", "2", "--trials", "3",
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["report"]["result"] == "PASS"
    names = {s["name"] for s in payload["report"]["sections"]}
    assert "half-identity" in names and "tilde-nonconstancy" in names


# ---------------------------------------------------------------------------
# exit statuses, determinism, output file


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "table", "--norm", "gamma", "--N", "1..2")[0] == EXIT_USAGE
    assert run(capsys, "table", "--norm", "ell", "--N", "2", "--k", "0..2")[0] == EXIT_USAGE
    assert run(capsys, "table", "--norm", "ell", "--N", "2", "--k", "1", "--s", "3")[0] == EXIT_USAGE
    assert run(capsys, "table", "--norm", "gamma", "--N", "3..1", "--k", "1", "--s", "3")[0] == EXIT_USAGE
    assert run(capsys, "verify", "--N", "2", "--kind", "power", "--k", "1")[0] == EXIT_USAGE
    assert run(capsys, "verify", "--N", "2", "--kind", "logarithm", "--k", "0")[0] == EXIT_USAGE
    assert run(capsys, "verify", "--N", "2", "--kind", "logarithm", "--k", "1",
               "--points", "0,0;1,1")[0] == EXIT_USAGE
    assert run(capsys, "verify", "--N", "2", "--kind", "logarithm", "--k", "1",
               "--points", "1/0,1")[0] == EXIT_USAGE
    # points of the wrong or of mixed dimension, and a list that names no point
    assert run(capsys, "verify", "--N", "2", "--kind", "logarithm", "--k", "2",
               "--points", "1,1,1;2,2")[0] == EXIT_USAGE
    code, _, err = run(capsys, "verify", "--N", "2", "--kind", "logarithm", "--k", "2",
                       "--points", "1,1;2,2,2")
    assert (code, err) == (EXIT_USAGE, "radnorm: error: point dimension mismatch\n")
    for points in (";", ""):
        code, _, err = run(capsys, "verify", "--N", "2", "--kind", "logarithm", "--k", "2",
                           "--points", points)
        assert code == EXIT_USAGE and err.startswith("radnorm: error:")
    assert run(capsys, "nonsense")[0] == EXIT_USAGE


@pytest.mark.parametrize(
    "span, message",
    [
        ("1..2..3", "radnorm: error: not a range: '1..2..3'\n"),
        ("1..", "radnorm: error: not a range: '1..'\n"),
        ("a", "radnorm: error: not a range: 'a'\n"),
        # ASCII digits only, as --s reads them: int() alone takes all four
        ("\u0663", "radnorm: error: not a range: '\u0663'\n"),
        ("1_0", "radnorm: error: not a range: '1_0'\n"),
        ("1..\uff13", "radnorm: error: not a range: '1..\uff13'\n"),
        (" 2", "radnorm: error: not a range: ' 2'\n"),
        pytest.param(f"1..{PAST_DIGIT_LIMIT}", f"radnorm: error: not a range: '1..{PAST_DIGIT_LIMIT}'\n",
                     id="past-the-int-digit-limit"),
    ],
)
def test_a_malformed_range_is_one_usage_line(capsys, span, message):
    for spans in (["--N", span, "--k", "2"], ["--N", "2", "--k", span]):
        code, out, err = run(capsys, "table", "--norm", "gamma", "--s", "1", *spans)
        assert (code, out, err) == (EXIT_USAGE, "", message)


@pytest.mark.parametrize("value", ["\u0663", "\uff13", "1_0", " 2", "2.0", "0x2",
                                   pytest.param(PAST_DIGIT_LIMIT, id="past-the-int-digit-limit")])
@pytest.mark.parametrize("argv, option", [
    (["verify", "--kind", "logarithm", "--k", "2"], "--N"),
    (["verify", "--kind", "logarithm", "--N", "2"], "--k"),
    (["verify", "--kind", "logarithm", "--N", "2", "--k", "2"], "--seed"),
    (["table", "--norm", "ell", "--N", "2", "--k", "2"], "--seed"),
    (["identities"], "--seed"),
    (["identities"], "--max-m"),
    (["identities"], "--max-N"),
    (["identities"], "--max-k"),
    (["identities"], "--trials"),
])
def test_integer_options_take_ascii_digits_only(capsys, argv, option, value):
    code, out, err = run(capsys, *argv, option, value)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"usage: radnorm {argv[0]} ")
    assert err.endswith(f"radnorm {argv[0]}: error: argument {option}: invalid int value: {value!r}\n")


def test_integer_options_keep_their_sign_and_leading_zeros(capsys):
    code, out, _ = run(capsys, "verify", "--kind", "logarithm", "--N", "+02", "--k", "002",
                       "--seed", "-0", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["request"] == {"N": 2, "k": 2, "kind": "logarithm", "s": None}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["table", "--norm", "gamma", "--N", "0..2", "--k", "2", "--s", "1"],
         "dimension range must start at 1 or above"),
        (["table", "--norm", "gamma", "--N", "2", "--k=-1..2", "--s", "1"],
         "order range must start at 0 or above"),
        (["table", "--norm", "gamma", "--N", "2", "--k", "2", "--s", "1", "--methods", ","],
         "at least one method is required"),
        (["verify", "--N", "2", "--kind", "logarithm", "--s", "1", "--k", "2"],
         "logarithm kind takes no --s"),
    ],
)
def test_request_checks_are_one_usage_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (EXIT_USAGE, "", f"radnorm: error: {message}\n")


def test_verify_constancy_rejects_an_empty_point_list():
    # --points cannot name no point, so this rule is the library's alone.
    with pytest.raises(ValueError, match="at least one sample point is required"):
        verify_constancy(2, NormKind.logarithm(), 2, [])


def test_default_identities_walk_once_per_split_shape(monkeypatch):
    from radnorm import symdiff

    walks = []
    real = symdiff._walk

    def counted(*args):
        walks.append(args[:3])
        return real(*args)

    monkeypatch.setattr(symdiff, "_walk", counted)
    sections = _run_identities(10, 3, 4, 20, 0)
    assert all(section.status == "PASS" for section in sections)
    # One walk per split shape (n 2..3, three kinds, k 1..4) covers its three
    # points; weighted-agreement makes 72 walks and tilde-nonconstancy 2.
    assert sections[1].detail == "72 cases, 0 failures"
    assert len(walks) == 98


def test_capacity_exit_three(capsys):
    code, _, err = run(capsys, "verify", "--N", "7", "--kind", "logarithm", "--k", "2")
    assert code == EXIT_CAPACITY
    assert "capacity" in err


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ["table", "--norm", "ell", "--N", "1..6", "--k", "1..10", "--methods", "closed"],
    ["identities", "--max-m", "2", "--trials", "1"],
    ["table", "--help"],
], ids=["table", "identities", "help"])
def test_closed_stdout_exits_one_without_a_traceback(argv, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": unbuffered}
    command = [sys.executable, "-c", "import sys; from radnorm.cli import main; sys.exit(main())"]
    try:
        proc = subprocess.run(command + argv, stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=60)
    finally:
        os.close(write_end)
    # argparse itself drops a failed --help write; buffered, it fails at the flush
    expected = EXIT_OK if argv[-1] == "--help" and unbuffered else EXIT_USAGE
    assert (proc.returncode, proc.stderr) == (expected, b"")


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_output_is_deterministic(capsys):
    argv = ["verify", "--N", "2", "--kind", "logarithm", "--k", "3", "--seed", "42"]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    argv = ["table", "--norm", "ell", "--N", "1..3", "--k", "1..4",
            "--methods", "closed,recursive,oracle", "--format", "json", "--seed", "7"]
    assert run(capsys, *argv) == run(capsys, *argv)


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(
        capsys, "table", "--norm", "ell", "--N", "2", "--k", "2", "--format", "csv",
        "--out", str(target),
    )
    assert code == EXIT_OK
    assert out == ""
    assert target.read_text() == "N,k,s,closed\n2,2,,2\n"


def test_out_directory_is_a_usage_error(tmp_path, capsys):
    code, out, err = run(
        capsys, "table", "--norm", "ell", "--N", "2", "--k", "2", "--out", str(tmp_path),
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("radnorm: error:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_failed_run_leaves_out_target_untouched(tmp_path, capsys):
    existing = tmp_path / "report.txt"
    existing.write_text("previous\n")
    absent = tmp_path / "absent.txt"
    for target in (existing, absent):
        code, _, err = run(
            capsys, "verify", "--N", "7", "--kind", "logarithm", "--k", "2", "--out", str(target),
        )
        assert code == EXIT_CAPACITY
        assert "capacity" in err
    assert existing.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]  # no partial file left


def test_out_to_a_device_writes_through_it(capsys):
    code, out, err = run(
        capsys, "table", "--norm", "ell", "--N", "2", "--k", "2", "--out", os.devnull,
    )
    assert (code, out, err) == (EXIT_OK, "", "")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)  # still the device, not a file


def test_out_through_a_symlink_keeps_the_link_and_the_mode(tmp_path, capsys):
    real = tmp_path / "real.csv"
    real.write_text("previous\n")
    real.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    code, _, _ = run(
        capsys, "table", "--norm", "ell", "--N", "2", "--k", "2", "--format", "csv",
        "--out", str(link),
    )
    assert code == EXIT_OK
    assert link.is_symlink()
    assert real.read_text() == "N,k,s,closed\n2,2,,2\n"
    assert stat.S_IMODE(real.stat().st_mode) == 0o640


# ---------------------------------------------------------------------------
# capacity caps, checked before any work


@pytest.mark.parametrize("argv", [
    ["identities", "--max-N", "7", "--max-k", "11"],
    ["identities", "--max-N", "6", "--max-k", "7"],
    ["identities", "--max-N", "4", "--max-k", "9"],
    ["identities", "--max-m", "100000", "--trials", "1"],
    ["identities", "--max-m", str(MAX_IDENTITY_M + 1)],
    ["identities", "--trials", str(MAX_IDENTITY_TRIALS + 1)],
    ["table", "--norm", "gamma", "--N", "1..3", "--k", "5000", "--s", "1/3"],
    ["table", "--norm", "ell", "--N", "2", "--k", f"1..{MAX_FORMULA_ORDER + 1}",
     "--methods", "special"],
    ["table", "--norm", "ell", "--N", "3..28", "--k", "1..400", "--methods", "special"],
    ["table", "--norm", "gamma", "--N", "1..100", "--k", "1..20", "--s=1,2,3",
     "--methods", "closed,recursive"],
], ids=lambda argv: " ".join(argv))
def test_capacity_is_checked_before_any_work(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("computed before the capacity check")

    for name in ("half_identity_check", "_dimension_split_checks", "_table_cell"):
        monkeypatch.setattr(cli, name, no_work)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_CAPACITY, "")
    assert err.startswith("radnorm: capacity exceeded: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--N", "7"],
    ["--N", "3000"],
    ["--N", "7", "--points", "1,0,0,0,0,0,0;2,0,0,0,0,0,0"],  # over the box and on one ray
], ids=lambda argv: " ".join(argv))
def test_verify_checks_the_oracle_box_before_building_or_comparing_points(capsys, monkeypatch, argv):
    from radnorm import symdiff

    def no_work(*args, **kwargs):
        raise AssertionError("points built or compared before the capacity check")

    monkeypatch.setattr(cli, "default_sample_points", no_work)
    monkeypatch.setattr(symdiff, "_proportional", no_work)
    code, out, err = run(capsys, "verify", "--kind", "logarithm", "--k", "1", *argv)
    assert (code, out) == (EXIT_CAPACITY, "")
    assert err.startswith("radnorm: capacity exceeded: ") and err.count("\n") == 1


def test_requests_at_the_caps_run(capsys):
    code, out, _ = run(capsys, "table", "--norm", "gamma", "--N", "2", "--k", str(MAX_FORMULA_ORDER),
                       "--s", "0", "--methods", "special", "--format", "csv")
    assert code == EXIT_OK
    assert parse_rational(out.splitlines()[1].split(",")[3]) == FORMULAS["special"](
        2, NormKind.power(0), MAX_FORMULA_ORDER)
    # 25 dimensions x 400 orders x one method, all blank (special needs N = 2)
    code, out, _ = run(capsys, "table", "--norm", "ell", "--N", "3..27", "--k", "1..400",
                       "--methods", "special", "--format", "csv")
    assert code == EXIT_OK and len(out.splitlines()) == MAX_TABLE_CELLS + 1
    sections = _run_identities(MAX_IDENTITY_M, 1, 1, 1, 0)
    assert sections[0].detail == f"4 values of nu, m <= {MAX_IDENTITY_M}, 0 failures"
    sections = _run_identities(0, 1, 1, MAX_IDENTITY_TRIALS, 0)
    assert all(section.status != "FAIL" for section in sections)
    # 5^7 = 78,125 ordered tuples is inside the enumeration cap, 6^7 is not
    with pytest.raises(CapacityError):
        _run_identities(0, 6, 7, 1, 0)
    assert 5 ** 7 <= MAX_ORDERED_TUPLES < 6 ** 7


def test_identities_with_one_dimension_need_no_oracle_capacity(capsys):
    # only the dimension-split and recursion sections reach (max_N, max_k), and
    # both are skipped in dimension one
    code, out, _ = run(capsys, "identities", "--max-N", "1", "--max-k", "11", "--format", "csv")
    assert code == EXIT_OK
    assert "dimension-split,SKIP" in out


# ---------------------------------------------------------------------------
# JSON output parses back to the library's values

exponents = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9))


def _main_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", "json"])
    assert code == EXIT_OK
    return json.loads(out.getvalue())


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 6), k=st.integers(1, 12), s_values=st.lists(exponents, min_size=1, max_size=3),
       norm=st.sampled_from(["gamma", "ell"]))
def test_table_json_parses_back_to_the_library_values(n, k, s_values, norm):
    argv = ["table", "--norm", norm, "--N", f"1..{n}", "--k", f"{k}..{k + 2}",
            "--methods", "closed,recursive,special"]
    if norm == "gamma":
        argv.append("--s=" + ",".join(map(format_rational, s_values)))
    for row in _main_json(argv)["rows"]:
        kind = NormKind.power(parse_rational(row["s"])) if norm == "gamma" else NormKind.logarithm()
        for method, formula in FORMULAS.items():
            value = formula(row["N"], kind, row["k"])
            assert (None if value is None else parse_rational(row[method])) == value
            assert row[method] is None or value is not None


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 3), k=st.integers(1, 4), s=st.one_of(st.none(), exponents))
def test_verify_json_parses_back_to_the_library_values(n, k, s):
    kind = NormKind.logarithm() if s is None else NormKind.power(s)
    argv = ["verify", "--N", str(n), "--kind", kind.variant, "--k", str(k)]
    if s is not None:
        argv.append(f"--s={format_rational(s)}")
    report = _main_json(argv)["report"]
    points = [SamplePoint(map(parse_rational, entry["point"])) for entry in report["points"]]
    assert points == default_sample_points(n, 0)
    oracle = rescaled_grad_norms(n, kind, k, points, weighted=True)
    assert [parse_rational(entry["value"]) for entry in report["points"]] == oracle
    for method in ("closed", "recursive"):
        assert parse_rational(report["methods"][method]) == FORMULAS[method](n, kind, k)
