"""Settings invariance: a number plap reports must not move with a setting the
problem does not fix, beyond the bound the setting itself allows.

r_max is covered in test_shooting.py (``TestLabelsIndependentOfRMax``); this
module varies the integrator tolerance.  Each bound is derived from the
tolerance, not read off today's results.
"""

import itertools
import math
from dataclasses import replace

import pytest

from plap import IvpSpec, OutcomeKind, ProblemParams, classify_outcome, integrate_ivp
from plap.rk45 import _EVENT_REL_TOL
from test_shooting import R_MAX_CASES, fit_gain

RTOLS = (1e-9, 1e-10, 1e-11)

# (N, p, q, gamma, u0): point 43 of each minus-sign line of the benchmark's
# seed-1 sweep deck, the first point of every line with q >= q_E (q/q_E =
# 1.007-1.028), where the tail decays slowest.  N = 3-6, two with p < 2,
# every gamma != 0.
TAIL_POINTS = [
    (3, 1.809673682385518, 6.116671876709056, 1.5774467022710263, 0.6407893801613523),
    (3, 2.4067059569849754, 15.094749567559148, 0.8655341358101067, 1.643420123686913),
    (4, 2.2641834981421254, 6.143886825852354, 1.4430800646815651, 0.8431433319056789),
    (4, 3.344196080503589, 20.03182810206184, 0.06117996606710707, 0.5381687914901911),
    (5, 1.9108777587155985, 2.599842918954711, 0.7624084753764249, 0.8248990956959201),
    (5, 4.137705344564004, 25.551475509264307, 0.4433833325460701, 1.156831390475858),
    (6, 3.3186100032698844, 7.093145365931612, 0.4617330830819686, 0.8281715560065329),
    (6, 5.600502158207148, 85.15618638547791, 0.04297941053181775, 1.7563669634938592),
]


def global_error(traj):
    """Bound on a minus shot's global error in u: the sum of its steps' local
    errors, each at most sqrt(2) (atol + rtol |y|) per component under
    rk45's RMS norm, with |y| <= u0 on a shot that decreases from u0.  A
    decaying solution does not amplify them."""
    spec = traj.spec
    return math.sqrt(2.0) * traj.result.n_steps * (spec.atol + spec.rtol * spec.u0)


@pytest.mark.parametrize("point", TAIL_POINTS, ids=lambda pt: f"N{pt[0]}-p{pt[1]:.3f}")
def test_tail_slope_does_not_depend_on_rtol(point):
    # Relative to u >= u(r_max) on the final decade, each run's error in log u
    # is at most global_error / u(r_max); two runs differ by at most the sum
    # of theirs, and the fit by fit_gain times that.
    n, p, q, gamma, u0 = point
    spec = IvpSpec(params=ProblemParams(n, p, q, gamma), u0=u0, r_max=1e3)
    slopes, errors = [], []
    for rtol in RTOLS:
        traj = integrate_ivp(replace(spec, rtol=rtol))
        out = classify_outcome(traj)
        assert out.kind is OutcomeKind.POSITIVE_DECAYING, out.reason
        slopes.append(out.tail_slope)
        errors.append(global_error(traj) / float(traj.sample(spec.r_max)[0][0]))
    gain = fit_gain(spec.r_max)
    for (s_a, e_a), (s_b, e_b) in itertools.combinations(zip(slopes, errors), 2):
        assert abs(s_a - s_b) <= gain * (e_a + e_b), (slopes, errors)


def test_crossing_radius_moves_within_its_conditioning():
    # An error e in u moves a crossing by e / |u'| there, relative e / |r u'|,
    # and the refinement adds _EVENT_REL_TOL.  This crossing, at r ~ 5e12,
    # has |r u'| ~ 2e-11, so an atol-sized error in u moves it by percents:
    # it moves 4% between the default tolerances and (1e-13, 1e-16), which
    # these bounds (~8e3 and ~40 relative) allow.  ROADMAP item 24: such a
    # radius needs an error bar, not a tighter tolerance.
    params, u0, sign, _ = R_MAX_CASES["minus_small_series_exponent"]
    spec = IvpSpec(params=params, u0=u0, sign=sign, r_max=1e3)
    radii, bounds = [], []
    for rtol, atol in ((1e-10, 1e-12), (1e-13, 1e-16)):
        traj = integrate_ivp(replace(spec, rtol=rtol, atol=atol))
        r_cross = classify_outcome(traj).r_event
        r_du = abs(r_cross * float(traj.du(r_cross)[0]))
        radii.append(r_cross)
        bounds.append(global_error(traj) / r_du + _EVENT_REL_TOL)
    assert abs(radii[1] - radii[0]) <= sum(bounds) * max(radii), (radii, bounds)
