"""The recorded draws of known defects, replayed through the suites' own checks.

Each fixture of replay_fixtures.json (see conftest.py) holds what one check
consumed at a (q, seed): a known failure of the acceptance sweep, or a draw
that another test reaches.  Its verdict and error class must hold when its
draws are replayed, whatever draws the streams give that check today.
"""

import math

import pytest

from conftest import REPLAY_FIXTURES
from qtaylor.errors import QTaylorError


def _names(cls) -> set:
    return {cls.__name__}.union(*map(_names, cls.__subclasses__()))


ERRORS = _names(QTaylorError) | _names(ArithmeticError)


def error_class(rec):
    kind = rec.detail.split(":")[0]
    return kind if math.isinf(rec.residual) and kind in ERRORS else None


@pytest.mark.parametrize("fixture", REPLAY_FIXTURES, ids=lambda f: "{q}-{seed}-{suite}-{check}"
                         .format(**f))
def test_replayed_draws_keep_the_verdict(replay, fixture):
    records = replay(fixture)
    rec = records[fixture["check"]]
    assert "suite-abort" not in records
    assert (rec.passed, error_class(rec)) == (fixture["passed"], fixture["error"])
