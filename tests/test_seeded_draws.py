"""The verify board's seeded draws: the stream they come from, and how the
seeded criteria fare on seeds other than the board's own."""

import pytest

from plap import verify


def test_stream_is_pinned():
    # The first draws of criterion 2's stream, as literals: a Python release
    # that moved random.Random's stream would move the board's cases, and
    # fails here first.
    rng = verify._stream(0)
    assert rng.randrange(2, 9) == 7
    assert rng.uniform(1.05, 4.0) == 2.053480119484842
    assert rng.random() == 0.6024295279594263
    assert rng.randrange(0, 4) == 0
    assert rng.uniform(0.5, 2.0) == 1.042252762348447


# Criteria 2 and 10 check the paper's optimality claim and the FD oracle on
# seeded draws.  At some seeds other than _SEED criterion 10 fails, through
# rounding in its FD check rather than a refuted claim; the failures are
# pinned here so that a fix shows up as an XPASS.
_C10_POWER = "criterion 10: FD rounding eps |V| / h^2 swamps a fundamental c2 r^lam + c1"
_SEED_FAILURES = {
    5: _C10_POWER + " (PowerBarrier mismatch at r=11.15, N=5, p=1.6922: fd rel 1.40e-06)",
    8: _C10_POWER + " (PowerBarrier mismatch at r=18.23, N=6, p=1.4640: fd rel 1.00e+00)",
    9: _C10_POWER + " (PowerBarrier mismatch at r=10.47, N=6, p=1.5626: fd rel 1.87e-05)",
    12: _C10_POWER + " (PowerBarrier mismatch at r=6.456, N=5, p=1.5102: fd rel 2.30e-06)",
    13: _C10_POWER + " (PowerBarrier mismatch at r=7.416, N=6, p=1.6313: fd rel 8.66e-06)",
}


@pytest.mark.parametrize("seed", [
    pytest.param(seed, marks=pytest.mark.xfail(strict=True, reason=_SEED_FAILURES[seed]))
    if seed in _SEED_FAILURES else seed
    for seed in range(16)
])
def test_seeded_criteria_across_seeds(seed, monkeypatch):
    monkeypatch.setattr(verify, "_SEED", seed)
    for index in (2, 10):
        res = verify.run_one(index)
        assert res.passed, res.line()
