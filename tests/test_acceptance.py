"""Acceptance suite: one test per entry of howechar.verify.CHECKS at the full
tier, each printing a pass line with its stated tolerance.  Run with
`pytest -s tests/test_acceptance.py` to see the per-criterion lines; the
ranges, seeds and tolerances are pinned in the table, nothing is
calibrated at runtime."""

import pytest

from howechar.verify import CHECKS


@pytest.mark.parametrize("check", CHECKS, ids=[c.label for c in CHECKS])
def test_criterion(check):
    detail = check.fn(quick=False)
    print(f"\nACCEPTANCE {check.label}: PASS - {detail}")
