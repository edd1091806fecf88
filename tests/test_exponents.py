"""Critical exponents, regime classification, and parameter validation."""

import math

import numpy as np
import pytest

from plap import (
    PlapError,
    ProblemParams,
    classify_regime,
    equation_critical,
    lambda_exponent,
    pohozaev_coefficient,
    serrin_critical,
)
from plap.exponents import pohozaev_sign


def params(n=3, p=2.0, q=5.0, gamma=0.0, a=1.0):
    return ProblemParams(n_dim=n, p=p, q=q, gamma=gamma, amplitude=a)


class TestFormulas:
    def test_reference_values(self):
        # (N, p, gamma) = (3, 2, 0): the classical pair (3, 5).
        pr = params()
        assert serrin_critical(pr) == 3.0
        assert equation_critical(pr) == 5.0
        assert lambda_exponent(pr) == -1.0

    def test_sobolev_identity_for_p_two(self):
        # q_E collapses to (N + 2)/(N - 2) when p = 2, gamma = 0.
        for n in range(3, 31):
            pr = params(n=n, q=float(n))
            assert equation_critical(pr) == pytest.approx(
                (n + 2.0) / (n - 2.0), abs=1e-12
            )

    def test_general_formulas(self):
        pr = params(n=5, p=2.5, q=4.0, gamma=1.25)
        n, p, g = 5.0, 2.5, 1.25
        assert serrin_critical(pr) == pytest.approx((n + g) * (p - 1) / (n - p), rel=1e-15)
        assert equation_critical(pr) == pytest.approx(
            ((n + g) * (p - 1) + p + g) / (n - p), rel=1e-15
        )
        assert lambda_exponent(pr) == pytest.approx((p - n) / (p - 1), rel=1e-15)

    def test_exponent_ordering(self):
        # p - 1 < q_S < q_E whenever N > p and gamma > -p.
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            p = float(rng.uniform(1.05, n - 0.05)) if n > 1 else 1.5
            if n <= p:
                continue
            g = float(rng.uniform(-p + 0.01, 6.0))
            pr = params(n=n, p=p, q=max(p, 2.0), gamma=g)
            assert p - 1.0 < serrin_critical(pr) < equation_critical(pr)

    def test_lambda_sign_tracks_dimension(self):
        assert lambda_exponent(params(n=5, p=2.0, q=3.0)) < 0
        assert lambda_exponent(params(n=2, p=3.0, q=3.0)) > 0
        assert lambda_exponent(params(n=3, p=3.0, q=3.0)) == 0.0


class TestPohozaevCoefficient:
    def test_vanishes_exactly_at_equation_critical(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            p = float(rng.uniform(1.1, n - 0.1)) if n >= 2 else 1.5
            if n <= p:
                continue
            g = float(rng.uniform(-p + 0.2, 4.0))
            q_e = equation_critical(params(n=n, p=p, q=max(p, 2.0), gamma=g))
            pr = params(n=n, p=p, q=q_e, gamma=g)
            assert abs(pohozaev_coefficient(pr)) <= 1e-12
            assert pohozaev_sign(pr) == 0

    def test_sign_change_across_critical(self):
        base = params()
        q_e = equation_critical(base)
        below = pohozaev_coefficient(params(q=q_e - 0.5))
        above = pohozaev_coefficient(params(q=q_e + 0.5))
        assert below < 0 < above
        assert pohozaev_sign(params(q=q_e - 0.5)) == -1
        assert pohozaev_sign(params(q=q_e + 0.5)) == 1

    @pytest.mark.parametrize("n,p,q,gamma", [
        (2, 3.0, 4.0, 0.0), (3, 3.0, 5.0, 0.0), (1, 2.0, 3.0, 0.0), (2, 2.5, 2.0, 1.0),
        (3, 4.0, 3.5, 0.5), (1, 1.5, 2.0, -0.5), (1, 3.0, 2.001, -2.9), (2, 3.0, 1e6, 0.0),
    ])
    def test_negative_for_every_q_when_n_at_most_p(self, n, p, q, gamma):
        # N - p <= 0 and (gamma+N) p/(q+1) > (N-p) p/(q+1) >= N - p, as q + 1 > p
        pr = params(n=n, p=p, q=q, gamma=gamma)
        assert pohozaev_coefficient(pr) < 0
        assert pohozaev_sign(pr) == -1

    def test_closed_form(self):
        pr = params(n=4, p=1.75, q=3.0, gamma=0.5)
        expected = 4 - 1.75 - (0.5 + 4) * 1.75 / (3.0 + 1)
        assert pohozaev_coefficient(pr) == pytest.approx(expected, rel=1e-15)


class TestRegime:
    def test_low_dimension_has_no_thresholds(self):
        reg = classify_regime(params(n=2, p=3.0, q=4.0))
        assert reg.low_dimension
        assert reg.q_serrin is None and reg.q_equation is None
        assert not reg.inequality_nonexistence
        assert not reg.counterexample_exists
        assert not reg.equation_radial_nonexistence

    def test_boundary_n_equals_p(self):
        assert classify_regime(params(n=3, p=3.0, q=4.0)).low_dimension

    def test_supercritical_counterexample_flag(self):
        reg = classify_regime(params(q=4.0))
        assert reg.counterexample_exists
        assert not reg.inequality_nonexistence
        assert reg.equation_radial_nonexistence  # 4 < q_E = 5

    def test_flags_mutually_exclusive(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            p = float(rng.uniform(1.1, 4.0))
            g = float(rng.uniform(-p + 0.2, 3.0))
            q = float(rng.uniform(p - 0.9, 12.0))
            if q <= p - 1 or q <= 0:
                continue
            reg = classify_regime(params(n=n, p=p, q=q, gamma=g))
            assert not (reg.inequality_nonexistence and reg.counterexample_exists)

    def test_negative_gamma_blocks_counterexample(self):
        reg = classify_regime(params(q=4.0, gamma=-0.5))
        assert not reg.counterexample_exists

    def test_thresholds_raise_below_dimension(self):
        pr = params(n=2, p=2.5, q=4.0)
        for fn, what in ((serrin_critical, "q_serrin"), (equation_critical, "q_equation")):
            with pytest.raises(PlapError, match=rf"^{what} undefined for N <= p \(N=2, p=2\.5\); "):
                fn(pr)


class TestParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0),
            dict(p=1.0),
            dict(p=0.5),
            dict(q=0.9, p=2.0),  # q <= p - 1
            dict(gamma=-2.0, p=2.0),  # gamma <= -p
            dict(a=0.0),
            dict(a=-1.0),
            dict(q=math.inf),
            dict(gamma=math.inf),
            dict(a=math.inf),
        ],
    )
    def test_rejects_out_of_domain(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            params(**kwargs)

    def test_frozen(self):
        pr = params()
        with pytest.raises(AttributeError):
            pr.q = 4.0
        with pytest.raises(AttributeError):
            pr.extra = 1.0
        assert pr == params()

    def test_repr(self):
        assert repr(params(n=4, p=2.5, q=3.0, gamma=0.5, a=2.0)) == (
            "ProblemParams(n_dim=4, p=2.5, q=3.0, gamma=0.5, amplitude=2.0)")

    def test_equal_parameters_hash_equal(self):
        assert ProblemParams(3, 2.0, 5.0) == params()
        assert hash(ProblemParams(3, 2.0, 5.0)) == hash(params())
        assert len({params(), params(), params(q=4.0)}) == 2

    def test_replace_changes_only_the_named_fields(self):
        base = params(n=5, p=2.5, q=4.0, gamma=1.25, a=2.0)
        assert base.replace(q=6.0) == params(n=5, p=2.5, q=6.0, gamma=1.25, a=2.0)
        assert base.replace(gamma=0.5, amplitude=3.0) == params(
            n=5, p=2.5, q=4.0, gamma=0.5, a=3.0)
        assert type(base.replace(q=6.0)) is ProblemParams
        assert base.q == 4.0
        with pytest.raises(TypeError):
            base.replace(r_max=1.0)

    @pytest.mark.parametrize(
        "changes",
        [
            dict(q=1.0),  # q <= p - 1
            dict(gamma=-2.0),  # gamma <= -p
            dict(amplitude=0.0),
            dict(q=math.inf),
            dict(gamma=math.inf),
            dict(amplitude=math.inf),
            dict(q=math.nan),
            dict(n_dim=2.5),
            dict(n_dim=3.0),
        ],
    )
    def test_replace_raises_the_constructors_error(self, changes):
        fields = dict(n_dim=3, p=2.0, q=5.0, gamma=0.0, amplitude=1.0)
        with pytest.raises(ValueError) as direct:
            ProblemParams(**{**fields, **changes})
        with pytest.raises(ValueError) as replaced:
            ProblemParams(**fields).replace(**changes)
        assert str(replaced.value) == str(direct.value)

    def test_fractional_dimension_rejected(self):
        with pytest.raises((ValueError, TypeError)):
            ProblemParams(n_dim=2.5, p=2.0, q=3.0, gamma=0.0)
