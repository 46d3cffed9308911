"""Each acceptance criterion must fail when the engine function it checks is
plausibly wrong: a criterion that passes a broken engine checks nothing.

Every mutant here is a monkeypatch of one engine function, and each test
asserts that the criterion fails on the check that should catch it, not on
an exception.
"""

import pytest

from entlab import acceptance, entropy, qcore


def _scaled(fn, factor):
    def mutant(*args, **kwargs):
        return factor * fn(*args, **kwargs)

    return mutant


@pytest.mark.parametrize(
    "name, failed_check",
    [("gershgorin", "!= log2 lambda_max(G)"), ("entropy-engine", "H_min(C1R|R)")],
)
def test_min_entropy_scaled_by_one_percent_fails_the_criterion(monkeypatch, name, failed_check):
    monkeypatch.setattr(entropy, "min_entropy_relative", _scaled(entropy.min_entropy_relative, 1.01))
    result = acceptance.run_one(name)
    assert not result.passed
    assert failed_check in result.detail, result.detail


def test_support_that_drops_its_last_row_fails_gershgorin(monkeypatch):
    support_rows = qcore.support_rows

    def mutant(matrix):
        rows = support_rows(matrix)
        return rows if rows is None else rows[:-1]

    monkeypatch.setattr(qcore, "support_rows", mutant)
    result = acceptance.run_one("gershgorin")
    assert not result.passed
    assert "!= log2 lambda_max(G)" in result.detail, result.detail


def test_distance_replaced_by_two_minus_it_fails_decoupling_bound(monkeypatch):
    # At (4, 4) the mutant reads Q = 1.5533 against a bound of 1.8048 and
    # passes; only the (8, 8) case, with a bound near 1, catches it.
    trace_norm = qcore.trace_norm
    monkeypatch.setattr(qcore, "trace_norm", lambda matrix: 2.0 - trace_norm(matrix))
    result = acceptance.run_one("decoupling-bound")
    assert not result.passed
    assert "two-sender (8,8): 1.6979+2*" in result.detail, result.detail
    assert "two-sender (4,4): " not in result.detail, result.detail
