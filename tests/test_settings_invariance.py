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
from test_shooting import R_MAX_CASES

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
    # and the supercritical (3, 2, 6) from u0 = 1, q/q_E = 1.2
    (3, 2.0, 6.0, 0.0, 1.0),
]


def state_error(traj):
    """Bound on the error of a shot's state in the relative error model: each
    step's local error is at most sqrt(2) rtol in log u and in log|w| (rk45's
    RMS norm with atol = rtol and no |y| term), and the errors add over the
    steps.  Through log xi = log u - log(r|u'|), |u'| = (|w|/r^{N-1})^{1/(p-1)},
    they move log xi by at most that times 1 + 1/(p-1)."""
    spec = traj.spec
    return math.sqrt(2.0) * traj.result.n_steps * spec.rtol * (1.0 + 1.0 / (spec.params.p - 1.0))


@pytest.mark.parametrize("point", TAIL_POINTS, ids=lambda pt: f"N{pt[0]}-p{pt[1]:.3f}")
def test_tail_slope_does_not_depend_on_rtol(point):
    # The tail slope is a mean of d log u / d log r = -1/xi with positive
    # weights (shooting._fit_slope), so an error e in log xi moves it by at
    # most expm1(e) of itself; two runs differ by at most the sum of theirs.
    n, p, q, gamma, u0 = point
    spec = IvpSpec(params=ProblemParams(n, p, q, gamma), u0=u0, r_max=1e3)
    slopes, errors = [], []
    for rtol in RTOLS:
        traj = integrate_ivp(replace(spec, rtol=rtol))
        out = classify_outcome(traj)
        assert out.kind is OutcomeKind.POSITIVE_DECAYING, out.reason
        slopes.append(out.tail_slope)
        errors.append(math.expm1(state_error(traj)))
    for (s_a, e_a), (s_b, e_b) in itertools.combinations(zip(slopes, errors), 2):
        assert abs(s_a - s_b) <= max(abs(s_a), abs(s_b)) * (e_a + e_b), (slopes, errors)
    # and within a fixed 1e-5 of the finest from the coarsest
    assert abs(slopes[0] - slopes[-1]) <= 1e-5 * abs(slopes[-1]), slopes


def test_crossing_radius_moves_within_its_conditioning():
    # The crossing is closed from the stop in the p-harmonic profile, whose
    # radius R = r (1 + (1-m) xi)^{1/(1-m)} moves by d log R / d log xi =
    # xi / (1 + (1-m) xi) times an error in log xi, and the closure itself
    # errs by at most rtol.  This crossing, at r ~ 5.2e12 with |r u'| ~
    # 2e-11, moved 4% with an absolute tolerance on u; in the relative model
    # each run's bound is below 5e-8, so the radius is settled to 1e-7 from
    # rtol = 1e-10 on.
    params, u0, sign, _ = R_MAX_CASES["minus_small_series_exponent"]
    spec = IvpSpec(params=params, u0=u0, sign=sign, r_max=1e3)
    one_m = 1.0 - (params.n_dim - 1.0) / (params.p - 1.0)
    radii, bounds = [], []
    for rtol in (1e-10, 1e-12, 1e-13):
        traj = integrate_ivp(replace(spec, rtol=rtol))
        r, u = float(traj.r[-1]), float(traj.u[-1])
        xi = u / (r * abs(float(traj.du()[-1])))
        out = classify_outcome(traj)
        assert out.kind is OutcomeKind.CROSSES_ZERO, out.reason
        radii.append(out.r_event)
        bounds.append(xi / (1.0 + one_m * xi) * state_error(traj) + rtol)
    assert max(bounds) <= 5e-8, bounds
    for (r_a, b_a), (r_b, b_b) in itertools.combinations(zip(radii, bounds), 2):
        assert abs(r_a - r_b) <= (b_a + b_b) * max(r_a, r_b), (radii, bounds)
    assert abs(radii[0] - radii[1]) <= 1e-7 * radii[1], radii
