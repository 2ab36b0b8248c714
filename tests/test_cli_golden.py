"""Golden CLI corpus: stdout, stderr and exit code of fixed commands, byte for byte.

The expected outputs in ``cli_golden.json`` were captured from the CLI before
its records and identity checks were rewritten, and any refactor must keep
them.  To recapture after a deliberate output change:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.json
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

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


def run_cli(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def _corpus():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_covers_the_commands():
    assert [entry["argv"] for entry in _corpus()] == COMMANDS


@pytest.mark.parametrize("entry", _corpus(), ids=lambda e: " ".join(e["argv"]) or "<no args>")
def test_cli_output_is_byte_identical(entry, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    got = run_cli(entry["argv"])
    assert got["code"] == entry["code"]
    assert got["stdout"].encode() == entry["stdout"].encode()
    assert got["stderr"].encode() == entry["stderr"].encode()


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    json.dump([run_cli(argv) for argv in COMMANDS], sys.stdout, indent=1, ensure_ascii=False)
    sys.stdout.write("\n")
