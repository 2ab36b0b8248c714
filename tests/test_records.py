"""Value records are immutable tuples; the CLI imports without dataclasses."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import radnorm
from radnorm.cli import IdentitySection
from radnorm.constants import ConstantQuery, ConstantValue, NormKind
from radnorm.symdiff import SamplePoint, Term, TermSum, VerifyReport, default_sample_points, verify_constancy

RECORDS = {
    "NormKind": (
        lambda: NormKind.power(Fraction(1, 2)),
        "NormKind(variant='power', s=Fraction(1, 2))",
    ),
    "ConstantQuery": (
        lambda: ConstantQuery(3, 2, NormKind.logarithm()),
        "ConstantQuery(dimension=3, order=2, kind=NormKind(variant='logarithm', s=None))",
    ),
    "ConstantValue": (
        lambda: ConstantValue(ConstantQuery(2, 1, NormKind.power(2)), Fraction(4), "closed"),
        "ConstantValue(query=ConstantQuery(dimension=2, order=1, "
        "kind=NormKind(variant='power', s=Fraction(2, 1))), value=Fraction(4, 1), method='closed')",
    ),
    "Term": (
        lambda: Term(Fraction(3, 2), (1, 0), -2),
        "Term(coeff=Fraction(3, 2), monomial=(1, 0), radial_offset=-2)",
    ),
    "TermSum": (
        lambda: TermSum.single(2, Fraction(1, 2), (1, 0), -2, 3),
        "TermSum(n_vars=2, radial_base=Fraction(1, 2), "
        "terms=(Term(coeff=Fraction(3, 1), monomial=(1, 0), radial_offset=-2),))",
    ),
    "SamplePoint": (
        lambda: SamplePoint((1, 2)),
        "SamplePoint(coords=(Fraction(1, 1), Fraction(2, 1)))",
    ),
    "IdentitySection": (
        lambda: IdentitySection("half-identity", "PASS", "3 values"),
        "IdentitySection(name='half-identity', status='PASS', detail='3 values')",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_an_immutable_value(name):
    make, expected_repr = RECORDS[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    # The hash is the hash of the field tuple, as it was for the frozen dataclasses.
    assert hash(a) == hash(tuple(getattr(a, f) for f in a._fields))
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], None)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert repr(a) == expected_repr


def test_verify_report_is_an_immutable_record():
    # Its dict fields cannot be hashed, so unlike the records above it has no hash check.
    report = verify_constancy(2, NormKind.logarithm(), 2, default_sample_points(2))
    assert report._fields == (
        "query", "method_values", "point_values", "verdict", "detail", "elapsed_ms", "stage_ms"
    )
    for field in report._fields:
        with pytest.raises(AttributeError):
            setattr(report, field, None)
    with pytest.raises(AttributeError):
        report.extra = 1
    assert (report.verdict, report.detail, report.exact_match) == ("exact-match", None, True)
    mismatch = report._replace(verdict="mismatch", detail="closed=1")
    assert not mismatch.exact_match
    assert VerifyReport(**report._asdict()) == report
    assert VerifyReport(**mismatch._asdict()) == mismatch


def test_cli_import_loads_no_dataclasses():
    src = str(Path(radnorm.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, radnorm.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    assert result.stdout.strip() == "[]"
