"""Check results and reports."""

import pytest

from corrkit.report import FAIL, PASS, RESOURCE_LIMIT, CheckResult, VerificationReport


def test_a_check_result_rejects_an_unknown_status_and_a_fail_without_a_witness():
    with pytest.raises(ValueError, match="unknown status 'maybe'"):
        CheckResult("x", "maybe", {"at": 1})
    for witness in (None, {}):
        with pytest.raises(ValueError, match="fail result 'x' must carry a witness"):
            CheckResult("x", FAIL, witness)
    assert CheckResult("x", FAIL, {"at": 1}).witness == {"at": 1}
    assert CheckResult("x", RESOURCE_LIMIT).status == RESOURCE_LIMIT


def test_check_results_are_equal_by_value_and_print_their_fields():
    # differential tests compare the checks of two routines, and read a
    # witness off their printed results
    a, b = CheckResult("x", PASS), CheckResult("x", PASS, {}, "")
    assert a == b and a.witness is not b.witness
    assert a != CheckResult("x", PASS, {}, "anchor") and a != CheckResult("y", PASS)
    assert repr(CheckResult("x", FAIL, {"at": 1}, "a")) == "CheckResult(name='x', status='fail', witness={'at': 1}, anchor='a')"


def test_reports_start_with_their_own_check_list():
    one, two = VerificationReport("one"), VerificationReport("two")
    one.add("check", True)
    assert (one.checks, two.checks) == ([CheckResult("check", PASS)], [])
