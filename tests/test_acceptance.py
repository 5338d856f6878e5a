"""Acceptance gate: every published criterion must pass, within budget.

Each criterion prints one PASS/FAIL line so a verbose run reads as a
checklist; the assertions then hold the line to PASS.
"""

from __future__ import annotations

import pytest

from ratsurf import acceptance

EXPECTED_ORDER = [
    "f-table",
    "shuffle-closed-forms",
    "harrison-oracle",
    "fatpoint-tdims",
    "zero-map-lemma",
    "direct-summand",
    "cone-graphs",
    "recursion-fixtures",
    "obstruction-family",
    "rejection-paths",
    "recursion-flat-sum",
]


def test_criteria_roster_is_complete_and_ordered():
    assert [name for name, _, _ in acceptance.CRITERIA] == EXPECTED_ORDER


@pytest.mark.parametrize("name", EXPECTED_ORDER)
def test_criterion(name):
    result = acceptance.run_one(name)
    print("%s %s (%s, %.2f s)" % ("PASS" if result.passed else "FAIL",
                                  result.name, result.detail, result.elapsed))
    assert result.passed, "%s: %s" % (result.name, result.detail)


def test_unknown_criterion_is_rejected():
    with pytest.raises(ValueError):
        acceptance.run_one("no-such-criterion")
