"""VerificationReport: the verdict is read off the residual."""

import dataclasses

import pytest

from winfty.report import ReportDocument, VerificationReport


def test_passed_exactly_when_residual_is_none():
    assert VerificationReport("x").passed
    assert not VerificationReport("x", "r").passed
    assert not VerificationReport("x", "").passed


def test_to_dict_keeps_its_four_keys():
    assert VerificationReport("x").to_dict() == {
        "name": "x", "passed": True, "residual": None, "details": {}}
    assert VerificationReport("x", "r", {"k": 1}).to_dict() == {
        "name": "x", "passed": False, "residual": "r", "details": {"k": 1}}


def test_verdict_is_not_a_field():
    assert [f.name for f in dataclasses.fields(VerificationReport)] == [
        "name", "residual", "details"]
    with pytest.raises(AttributeError):
        VerificationReport("x").passed = False


def test_summary_prints_the_residual_of_each_failing_check():
    doc = ReportDocument("s", [VerificationReport("b", "t^(1)*D"), VerificationReport("a")])
    assert doc.summary().splitlines() == [
        "suite s: FAIL", "  [ok] a", "  [FAIL] b", "         residual: t^(1)*D"]
