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
