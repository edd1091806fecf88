"""Acceptance gate: one test per verification criterion, at the stated tolerances.

Each test prints its board line, so `pytest -v tests/test_acceptance.py` (or the
terminal summary of any full run) shows the PASS/FAIL verdict per criterion.

Criterion 9 asserts FAIL on purpose: the recursion bound it tests is false for
growth constants c < 1, and the grid includes c = 0.5.  The check reports the
first violating triple honestly rather than shrinking the grid to hide it; this
suite pins that behaviour down so a silent "fix" of the red cell would itself
fail the tests.  `plap verify` exits 3 for the same reason.
"""

import pytest

EXPECTED_RED = {9}

CRITERION_IDS = [
    "01-exponent_exactness",
    "02-counterexample_soundness",
    "03-pohozaev_coefficient_root",
    "04-shooting_vs_exact_critical",
    "05-subcritical_crossing",
    "06-pohozaev_residual",
    "07-hadamard_three_sphere",
    "08-comparison_principle",
    "09-moser_recursion_grid",
    "10-fd_oracle_and_cutoff_bound",
    "11-plus_blowup_and_power_transform",
    "12-scaling_covariance",
]


@pytest.mark.parametrize("index", range(1, 13), ids=CRITERION_IDS)
def test_criterion(index, acceptance_board):
    res = acceptance_board[index - 1]
    assert res.index == index
    print(res.line())
    if index in EXPECTED_RED:
        assert not res.passed, (
            "criterion 9 unexpectedly went green: the recursion grid includes "
            "c = 0.5 where the bound is false -- if the grid or the bound "
            "changed, re-derive before accepting this"
        )
        assert "c=0.5" in res.detail
    else:
        assert res.passed, res.line()


def test_board_is_complete(acceptance_board):
    assert [r.index for r in acceptance_board] == list(range(1, 13))
    names = [r.name for r in acceptance_board]
    assert len(set(names)) == 12


def test_fd_oracle_failure_names_the_family(monkeypatch):
    # A log-barrier formula off by 1e-9 relative must fail criterion 10 with a
    # message naming the family and the radius, not only the summary line.
    from plap import barriers, verify

    exact = barriers.log_barrier_plap
    monkeypatch.setattr(
        barriers, "log_barrier_plap", lambda spec, params, r: exact(spec, params, r) * (1.0 + 1e-9)
    )
    res = verify.run_one(10)
    assert not res.passed
    assert "LogBarrier" in res.detail and "r=" in res.detail


@pytest.fixture
def forty_step_board(monkeypatch):
    """``verify`` with a budget of 40 rk45 steps, so no shot reaches its event
    or r_max.  The shot caches are cleared on both sides, so no other test
    reuses a truncated shot."""
    from plap import rk45, verify

    verify._at_shot.cache_clear()
    verify._subcritical_shot.cache_clear()
    monkeypatch.setattr(rk45, "_MAX_STEPS", 40)
    yield verify
    verify._at_shot.cache_clear()
    verify._subcritical_shot.cache_clear()


def test_truncated_shots_fail_with_their_reason(forty_step_board):
    # Criteria 4, 5 and 11 compare an event or r_max of their shots: they
    # must fail with the outcome's label and reason, not raise.
    for res in forty_step_board.run_all([4, 5, 11]):
        assert not res.passed
        assert "raised" not in res.detail, res.line()
        assert "outcome indeterminate: integrator status max_steps at r=" in res.detail


def test_shots_short_of_the_radii_read_fail_with_their_reason(forty_step_board):
    # Criteria 6, 7 and 12 read their shots at fixed radii (r_eval, r_max and
    # the rescaled overlap): a shot cut short must fail them with its label
    # and reason, not pass on the part it reached.
    for res in forty_step_board.run_all([6, 7, 12]):
        assert not res.passed, res.line()
        assert "raised" not in res.detail, res.line()
        assert "outcome indeterminate: integrator status max_steps at r=" in res.detail
