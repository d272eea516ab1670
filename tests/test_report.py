"""Check results and reports."""

import pytest
from hypothesis import given, settings, strategies as st

from corrkit.report import FAIL, PASS, RESOURCE_LIMIT, CheckResult, ResourceLimitError, VerificationReport


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 9), max_size=12), st.frozensets(st.integers(0, 9)), st.frozensets(st.integers(0, 9)))
def test_a_sweep_reports_its_first_witness_or_its_counts(cases, failing, gaps):
    tested = []

    def test(case):
        tested.append(case)
        if case in gaps:
            raise ResourceLimitError(f"gap at {case}")
        return {"case": case} if case in failing else None

    def counts(scanned, covered):
        return {"scanned": scanned, "covered": covered}

    plain = VerificationReport("s")
    found = plain.sweep("check", iter(cases), test, anchor="a", counts=counts)
    # the witness is the first failing case in order; a gap never fails
    first = next((k for k in cases if k in failing and k not in gaps), None)
    assert found == (None if first is None else {"case": first})
    # the scan stops at the witness; a pass counts every case, covered or not
    assert tested == (cases if first is None else cases[: cases.index(first) + 1])
    if first is None:
        covered = sum(k not in gaps for k in cases)
        assert plain.checks == [CheckResult("check", PASS, {"scanned": len(cases), "covered": covered}, "a")]
    else:
        assert plain.checks == [CheckResult("check", FAIL, {"case": first}, "a")]
    # a fast verdict that holds exactly when no case fails reports the same
    fast = VerificationReport("s")
    fast.sweep("check", cases, test, anchor="a", counts={"cases": len(cases)}, fast=lambda: first is None)
    plain = VerificationReport("s")
    plain.sweep("check", cases, test, anchor="a", counts={"cases": len(cases)})
    assert fast.checks == plain.checks


def test_a_fast_pass_scans_no_case():
    rep = VerificationReport("s")
    assert rep.sweep("check", [1], lambda case: {"case": case}, fast=lambda: True) is None
    assert rep.checks == [CheckResult("check", PASS)]
