"""Acceptance gate: every criterion runs at its pinned tolerance and prints a
pass/fail line (run with ``pytest -s`` to see them all, or ``entlab verify``)."""

import pytest

from entlab import acceptance


@pytest.mark.parametrize("name", list(acceptance.CRITERIA))
def test_acceptance_criterion(name):
    result = acceptance.run_one(name)
    print(f"[{'PASS' if result.passed else 'FAIL'}] {name} ({result.seconds:.1f}s): {result.detail}")
    assert result.passed, result.detail


def test_a_failed_expectation_fails_the_criterion_and_names_every_failure(monkeypatch):
    def criterion(c):
        c.note("notes are dropped once a check fails")
        c.expect(True, "a check that holds is not reported")
        c.expect(False, "first failure")
        c.expect(False, "second failure")

    monkeypatch.setitem(acceptance.CRITERIA, "stub", criterion)
    result = acceptance.run_one("stub")
    assert not result.passed
    assert result.detail == "first failure; second failure"


def test_a_criterion_that_raises_fails_with_the_exception(monkeypatch):
    def criterion(c):
        c.expect(True, "a check before the crash")
        raise ValueError("broken input")

    monkeypatch.setitem(acceptance.CRITERIA, "stub", criterion)
    result = acceptance.run_one("stub")
    assert not result.passed
    assert result.detail == "exception: ValueError('broken input')"


def test_a_criterion_over_its_runtime_budget_fails_with_the_budget(monkeypatch):
    def criterion(c):
        c.note("the checks themselves pass")

    monkeypatch.setitem(acceptance.CRITERIA, "stub", criterion)
    monkeypatch.setitem(acceptance.RUNTIME_BUDGETS, "stub", 0.0)
    result = acceptance.run_one("stub")
    assert not result.passed
    assert result.detail == f"runtime {result.seconds:.1f}s over the 0 s budget"


def test_every_runtime_budget_names_a_criterion():
    assert set(acceptance.RUNTIME_BUDGETS) <= set(acceptance.CRITERIA)
