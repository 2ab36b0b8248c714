"""Golden CLI corpus: stdout, stderr and exit code of fixed commands, byte for byte.

The expected outputs in ``cli_golden.json`` were captured from the CLI before
its records and identity checks were rewritten, and any refactor must keep
them.  The entries with a ``fault`` were captured before the method registry
and the report emitter replaced the hand-written renderers: each runs with one
library name replaced (see ``FAULTS``), to reach the mismatch and FAIL paths
that a correct library never takes.  To recapture after a deliberate output
change:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.json

To compare every entry (fault entries included) on an interpreter without
pytest, exiting 1 on any difference:

    PYTHONPATH=src python tests/test_cli_golden.py --check

The test suite runs that check under every python3.10 ... python3.13 on the
PATH that starts, because argparse rewords its messages between releases.
"""

import contextlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

try:
    import pytest
except ImportError:  # the script below needs only the standard library
    pytest = None

import radnorm
from radnorm.cli import main

CORPUS = Path(__file__).with_name("cli_golden.json")

# argparse wraps usage lines to the terminal width; COLUMNS fixes it.
COLUMNS = "80"

COMMANDS = [
    # table, all three formats, with and without the oracle and --decimal
    ["table", "--norm", "gamma", "--N", "1..3", "--k", "2", "--s", "3",
     "--methods", "closed,recursive,oracle"],
    ["table", "--norm", "gamma", "--N", "1..3", "--k", "2", "--s", "3",
     "--methods", "closed,recursive,oracle", "--format", "csv"],
    ["table", "--norm", "gamma", "--N", "1..3", "--k", "2", "--s", "3",
     "--methods", "closed,recursive,oracle", "--format", "json"],
    ["table", "--norm", "ell", "--N", "2..4", "--k", "1..8", "--format", "csv",
     "--methods", "closed,recursive,special"],
    ["table", "--norm", "gamma", "--N", "4", "--k", "0..4", "--s=-2,1/2",
     "--methods", "closed,special", "--decimal"],
    ["table", "--norm", "gamma", "--N", "2..3", "--k", "3..5", "--s=-1,7/3",
     "--methods", "special,recursive,closed", "--decimal", "--format", "json"],
    ["table", "--norm", "ell", "--N", "2..3", "--k", "1..4",
     "--methods", "closed,special,oracle", "--format", "json"],
    ["table", "--norm", "gamma", "--N", "2..3", "--k", "1..4", "--s=-5/3",
     "--methods", "oracle,closed", "--seed", "7"],
    ["table", "--norm", "ell", "--N", "2", "--k", "5..7", "--methods", "oracle",
     "--force-oracle", "--format", "csv"],
    # verify
    ["verify", "--N", "3", "--kind", "logarithm", "--k", "3"],
    ["verify", "--N", "2", "--kind", "power", "--s", "1/2", "--k", "2",
     "--points", "3,4;1,2", "--format", "json"],
    ["verify", "--N", "3", "--kind", "power", "--s=-5/3", "--k", "4", "--format", "csv"],
    ["verify", "--N", "4", "--kind", "logarithm", "--k", "2", "--seed", "3", "--format", "json"],
    ["verify", "--N", "1", "--kind", "power", "--s", "7/2", "--k", "5", "--format", "plain"],
    # identities
    ["identities"],
    ["identities", "--seed", "5", "--format", "json"],
    ["identities", "--max-N", "1", "--max-m", "4", "--format", "csv"],
    ["identities", "--max-m", "3", "--max-N", "4", "--max-k", "2", "--trials", "3",
     "--seed", "11"],
    # usage errors (exit 1)
    [],
    ["table", "--norm", "gamma", "--N", "1", "--k", "2"],
    ["table", "--norm", "gamma", "--N", "1..2", "--k", "1", "--s", "1", "--methods", "bogus"],
    ["table", "--norm", "gamma", "--N", "1", "--k", "1", "--s", "1", "--format", "xml"],
    ["verify", "--N", "2", "--kind", "power", "--k", "2"],
    ["identities", "--max-N", "0"],
    # float rejection (exit 1)
    ["verify", "--N", "2", "--kind", "power", "--s", "0.5", "--k", "2"],
    ["table", "--norm", "gamma", "--N", "1", "--k", "1", "--s", "0.1"],
    ["verify", "--N", "2", "--kind", "logarithm", "--k", "2", "--points", "1.5,2;1,1"],
    # capacity (exit 3)
    ["verify", "--N", "7", "--kind", "logarithm", "--k", "2"],
    ["verify", "--N", "2", "--kind", "power", "--s", "1/2", "--k", "11", "--format", "json"],
]



def _bump_all(real):
    return lambda *args, **kwargs: [v + 1 for v in real(*args, **kwargs)]


def _bump_last(real):
    def fake(*args, **kwargs):
        values = real(*args, **kwargs)
        return values[:-1] + [values[-1] + 1]
    return fake


def _fail_at_m2(real):
    return lambda nu, m: m != 2 and real(nu, m)


def _fail_at_k1(real):
    return lambda n, k: k != 1 and real(n, k)


def _shift_dimension(real):
    return lambda n, k: real(n + 1, k)


# fault name -> (dotted name replaced while the command runs, wrapper of the real object)
FAULTS = {
    "oracle-off-by-one": ("radnorm.symdiff.rescaled_grad_norms", _bump_all),
    "oracle-uneven": ("radnorm.symdiff.rescaled_grad_norms", _bump_last),
    "table-oracle-uneven": ("radnorm.cli.rescaled_grad_norms", _bump_last),
    "half-identity-fails-at-m2": ("radnorm.cli.half_identity_check", _fail_at_m2),
    "laplacian-recursion-fails-at-k1": ("radnorm.cli.laplacian_recursion_check", _fail_at_k1),
    # the recursion reads E(n, l) in place of E(n - 1, l)
    "dimension-split-recursion-shifted": ("radnorm.constants._evens", _shift_dimension),
}

FAULT_COMMANDS = [
    # verify mismatch (exit 2): oracle disagrees with both formulas, all three formats
    ("oracle-off-by-one", ["verify", "--N", "3", "--kind", "logarithm", "--k", "3"]),
    ("oracle-off-by-one", ["verify", "--N", "2", "--kind", "power", "--s", "1/2", "--k", "2",
                           "--points", "3,4;1,2", "--format", "json"]),
    ("oracle-off-by-one", ["verify", "--N", "3", "--kind", "power", "--s=-5/3", "--k", "4",
                           "--format", "csv"]),
    # verify mismatch (exit 2): oracle values differ across points
    ("oracle-uneven", ["verify", "--N", "2", "--kind", "logarithm", "--k", "2"]),
    ("oracle-uneven", ["verify", "--N", "2", "--kind", "logarithm", "--k", "2",
                       "--format", "csv", "--points", "1,0;1,1"]),
    # table oracle mismatch (exit 2, message on stderr)
    ("table-oracle-uneven", ["table", "--norm", "gamma", "--N", "1..3", "--k", "2", "--s", "3",
                             "--methods", "closed,oracle"]),
    # identities with one FAIL section (exit 2), all three formats
    ("half-identity-fails-at-m2", ["identities", "--max-m", "4", "--trials", "3"]),
    ("half-identity-fails-at-m2", ["identities", "--max-m", "3", "--max-N", "2", "--max-k", "2",
                                   "--trials", "2", "--format", "json"]),
    ("half-identity-fails-at-m2", ["identities", "--max-N", "1", "--max-m", "2", "--trials", "1",
                                   "--format", "csv"]),
    # a counted section failing (exit 2)
    ("laplacian-recursion-fails-at-k1", ["identities", "--max-m", "2", "--max-k", "2",
                                         "--trials", "1"]),
    # the dimension-split section failing at k = 2 (exit 2)
    ("dimension-split-recursion-shifted", ["identities", "--max-m", "2", "--max-k", "2",
                                           "--trials", "1"]),
]


@contextlib.contextmanager
def _fault(name):
    if name is None:
        yield
        return
    target, wrap = FAULTS[name]
    module_name, _, attr = target.rpartition(".")
    module = importlib.import_module(module_name)
    real = getattr(module, attr)
    setattr(module, attr, wrap(real))
    try:
        yield
    finally:
        setattr(module, attr, real)


def run_cli(argv, fault=None):
    stdout, stderr = io.StringIO(), io.StringIO()
    with _fault(fault), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    entry = {"argv": list(argv), "fault": fault} if fault else {"argv": list(argv)}
    return {**entry, "code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def _corpus():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def _entry_id(entry):
    argv = " ".join(entry["argv"]) or "<no args>"
    return f"{entry['fault']}: {argv}" if "fault" in entry else argv


def test_corpus_covers_the_commands():
    expected = [(None, argv) for argv in COMMANDS] + FAULT_COMMANDS
    assert [(entry.get("fault"), entry["argv"]) for entry in _corpus()] == expected


if pytest is not None:
    @pytest.mark.parametrize("entry", _corpus(), ids=_entry_id)
    def test_cli_output_is_byte_identical(entry, monkeypatch):
        monkeypatch.setenv("COLUMNS", COLUMNS)
        got = run_cli(entry["argv"], entry.get("fault"))
        assert got["code"] == entry["code"]
        assert got["stdout"].encode() == entry["stdout"].encode()
        assert got["stderr"].encode() == entry["stderr"].encode()

    @pytest.mark.parametrize("interpreter", [f"python3.{minor}" for minor in range(10, 14)])
    def test_check_passes_on_each_interpreter_that_starts(interpreter):
        path = shutil.which(interpreter)
        if path is None or subprocess.run([path, "-c", "pass"], capture_output=True,
                                          timeout=60).returncode:
            pytest.skip(f"{interpreter} is not available")
        env = {**os.environ, "PYTHONPATH": str(Path(radnorm.__file__).resolve().parents[1])}
        proc = subprocess.run([path, __file__, "--check"], capture_output=True, text=True,
                              env=env, timeout=120)
        entries = len(_corpus())
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.endswith(f": {entries} of {entries} entries match\n")


def _check() -> int:
    corpus = _corpus()
    failed = 0
    for entry in corpus:
        got = run_cli(entry["argv"], entry.get("fault"))
        differences = [field for field in ("code", "stdout", "stderr") if got[field] != entry[field]]
        if differences:
            failed += 1
            print(f"DIFF {_entry_id(entry)}: {', '.join(differences)}")
    print(f"python {sys.version.split()[0]}: {len(corpus) - failed} of {len(corpus)} entries match")
    return 1 if failed else 0


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    if sys.argv[1:] == ["--check"]:
        sys.exit(_check())
    entries = [run_cli(argv) for argv in COMMANDS]
    entries += [run_cli(argv, fault) for fault, argv in FAULT_COMMANDS]
    json.dump(entries, sys.stdout, indent=1, ensure_ascii=False)
    sys.stdout.write("\n")
