"""Threshold arithmetic against a frozen hand-computed table, plus the
test-only decay certifier (tests/helpers.py) on analytically known series."""

import math

import numpy as np
import pytest

from benard_da.bounds import (
    estimate_ladyzhenskaya_constant,
    max_observation_spacing,
    mu_threshold_type1,
    mu_threshold_type2,
    uniform_bounds,
    with_thresholds,
)
from benard_da.spectral import Grid
from helpers import cap_decay_coefficient, decay_coefficient_series, gronwall_certify

E2 = math.exp(2.0)
REL = 1e-14


def close(a, b):
    if math.isinf(b):
        return math.isinf(a)
    return abs(a - b) <= REL * max(abs(b), 1.0)


class TestHandTable:
    """Five frozen parameter points, worked out independently by direct
    substitution into the printed constants."""

    def test_point_all_ones(self):
        r = uniform_bounds(1.0, 1.0, 1.0, 1.0, 1.0)
        assert r.a2 == 1.0 and r.b2 == 1.0
        assert r.a3 == 2.0 and r.b3 == 2.0
        assert r.a1 == 2.0 and r.b1 == 2.0
        assert close(r.J0, 3.0 * E2)
        assert close(r.J1, 3.0 * E2)
        assert close(mu_threshold_type1(r, 1.0), 24.0 + 48.0 * E2)
        thr2 = mu_threshold_type2(r, 1.0, 3.0 * E2, 3.0 * E2, 1.0)
        assert close(thr2, 576.0 * E2 + 12.0 * E2 + 16.0)

    def test_point_pi_squared_eigenvalue(self):
        pi2 = math.pi**2
        r = uniform_bounds(1.0, 1.0, 1.0, pi2, 1.0)
        assert close(r.a2, 1.0 / math.pi)
        assert close(r.a3, (1.0 + math.pi) / pi2)
        assert close(r.b3, (1.0 + math.pi) / math.pi)
        assert close(r.a1, (1.0 + math.pi) / math.pi**4)
        assert close(mu_threshold_type1(r, 0.5), 1.7638830255325506)

    def test_point_doubled_viscosity(self):
        r = uniform_bounds(2.0, 1.0, 1.0, 1.0, 1.0)
        assert close(r.a2, 0.5)
        assert close(r.a3, 0.5)
        assert close(r.b3, 1.5)
        assert close(r.a1, 0.015625)
        assert close(r.b1, 0.125)
        assert close(r.J0, 1.0157477085866857)
        assert close(r.J1, 2.2662969061336526)
        assert close(mu_threshold_type1(r, 1.3), 50.21662356164996)

    def test_point_mixed(self):
        r = uniform_bounds(1.25, 0.75, 1.5, 4.0, 1.1)
        assert close(r.a2, 0.66)
        assert close(r.a3, 0.792)
        assert close(r.b3, 3.08)
        assert close(r.a1, 0.10705305600000002)
        assert close(r.b1, 0.49561600000000006)
        assert close(r.J0, 1.6160662772418624)
        assert close(r.J1, 6.139244023844676)
        assert close(mu_threshold_type1(r, 0.9), 42.060887189211115)
        thr2 = mu_threshold_type2(r, 0.9, 2.0 * r.J0, 1.5 * r.J1, 3.2)
        assert close(thr2, 790.3738905147369)

    def test_point_supercritical_overflows_to_inf(self):
        r = uniform_bounds(0.03, 0.03, 2.0, math.pi**2, 1.0)
        assert close(r.a2, 21.22065907891938)
        assert close(r.a3, 932.5134885025076)
        assert close(r.b3, 774.0219692973126)
        assert math.isinf(r.J0) and math.isinf(r.J1)
        assert math.isinf(mu_threshold_type1(r, 0.4))


class TestThresholdProperties:
    def test_doubling_nu_decreases_a3(self):
        lo = uniform_bounds(1.0, 1.0, 1.0, 1.0)
        hi = uniform_bounds(2.0, 1.0, 1.0, 1.0)
        assert hi.a3 < lo.a3

    def test_threshold_increasing_in_J1(self):
        import dataclasses

        r = uniform_bounds(1.0, 1.0, 1.0, 1.0)
        bigger = dataclasses.replace(r, J1=2.0 * r.J1)
        assert mu_threshold_type1(bigger, 1.0) > mu_threshold_type1(r, 1.0)

    def test_threshold_diverges_as_kappa_vanishes(self):
        a = mu_threshold_type1(uniform_bounds(1.0, 0.5, 1.0, 1.0), 1.0)
        b = mu_threshold_type1(uniform_bounds(1.0, 0.25, 1.0, 1.0), 1.0)
        assert b > a > mu_threshold_type1(uniform_bounds(1.0, 1.0, 1.0, 1.0), 1.0)
        assert math.isinf(mu_threshold_type1(uniform_bounds(1.0, 0.01, 1.0, 1.0), 1.0))

    def test_beta_below_envelope_rejected(self):
        r = uniform_bounds(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            mu_threshold_type2(r, 1.0, 0.5 * r.J0, r.J1, 1.0)
        with pytest.raises(ValueError):
            mu_threshold_type2(r, 1.0, r.J0, 0.5 * r.J1, 1.0)

    def test_K3_scales_threshold_linearly(self):
        r = uniform_bounds(1.0, 1.0, 1.0, 1.0)
        t1 = mu_threshold_type2(r, 1.0, r.J0, r.J1, 1.0)
        t2 = mu_threshold_type2(r, 1.0, r.J0, r.J1, 2.0)
        t3 = mu_threshold_type2(r, 1.0, r.J0, r.J1, 3.0)
        assert close(t3 - t2, t2 - t1)

    @pytest.mark.parametrize("nu, kappa", [(1e-300, 1.0), (1.0, 1e-300)])
    def test_underflowing_powers_give_infinite_bounds(self, nu, kappa):
        # nu**5 or kappa**3 underflows to zero; the bounds are reported as inf
        r = uniform_bounds(nu, kappa, 2.0, math.pi**2)
        assert math.isinf(r.b1) and math.isinf(r.J1)
        assert math.isinf(mu_threshold_type1(r, 0.5))
        assert math.isinf(with_thresholds(r, c1=0.5, K3=1.0).mu_min_type2)
        if nu < 1.0:
            assert math.isinf(r.a3) and math.isinf(r.a1) and math.isinf(r.J0)

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ValueError):
            uniform_bounds(-1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            uniform_bounds(1.0, 1.0, 1.0, 0.0)


class TestObservationSpacing:
    def test_unit_point(self):
        assert close(max_observation_spacing(1.0, 1.0, 1.0), 1.0)

    def test_scaling(self):
        assert close(max_observation_spacing(100.0, 1.0, 1.0), 0.1)
        h1 = max_observation_spacing(25.0, 1.0, 1.0)
        h2 = max_observation_spacing(100.0, 1.0, 1.0)
        assert close(h1, 2.0 * h2)

    def test_frozen_point(self):
        assert close(max_observation_spacing(50.0, 1.25, 0.31), 0.5100447838981257)

    def test_infinite_mu_gives_zero(self):
        assert max_observation_spacing(math.inf, 1.0, 1.0) == 0.0

    def test_exact_interpolant_allows_every_spacing(self):
        # c0 = 0: mu c0^2 h^2 <= nu holds at every h
        assert max_observation_spacing(50.0, 1.0, 0.0) == math.inf
        assert max_observation_spacing(math.inf, 1.0, 0.0) == math.inf

    @pytest.mark.parametrize(
        "mu, nu, c0",
        [(-1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, -0.5),
         (math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan)],
    )
    def test_negative_or_nan_input_refused(self, mu, nu, c0):
        with pytest.raises(ValueError):
            max_observation_spacing(mu, nu, c0)

    def test_strictly_decreasing_in_mu(self):
        hs = [max_observation_spacing(mu, 0.5, 0.7) for mu in (1.0, 2.0, 5.0, 50.0)]
        assert all(b < a for a, b in zip(hs, hs[1:]))


class TestCompletedReport:
    def test_thresholds_filled(self):
        r = uniform_bounds(1.0, 1.0, 1.0, 1.0)
        full = with_thresholds(r, c1=1.0, c0=0.5, K3=1.0)
        assert close(full.mu_min_type1, 24.0 + 48.0 * E2)
        assert full.mu_min_type2 == mu_threshold_type2(r, 1.0, r.J0, r.J1, 1.0)
        assert full.mu_min_type2 is not None
        d = full.as_dict()
        assert d["c0"] == 0.5 and d["K3"] == 1.0

    def test_as_dict_holds_every_field_in_order(self):
        full = with_thresholds(uniform_bounds(1.0, 1.0, 1.0, 1.0), c1=1.0, c0=0.5, K3=1.0)
        names = (
            "nu kappa L lambda1 c a1 a2 a3 b1 b2 b3 J0 J1 "
            "c1 c0 K3 mu_min_type1 mu_min_type2"
        ).split()
        d = full.as_dict()
        assert list(d) == names
        assert d == {k: getattr(full, k) for k in names}

    def test_infinite_envelopes_give_infinite_type2(self):
        r = uniform_bounds(0.03, 0.03, 2.0, math.pi**2)
        full = with_thresholds(r, c1=0.4, K3=5.0)
        assert math.isinf(full.mu_min_type2)


class TestLadyzhenskaya:
    def test_estimate_is_positive_and_moderate(self):
        g = Grid(2.0, 32, 16)
        c1 = estimate_ladyzhenskaya_constant(g, 60, rng=np.random.default_rng(1))
        assert 0.05 < c1 < 2.0

    def test_deterministic_under_seed(self):
        g = Grid(2.0, 32, 16)
        a = estimate_ladyzhenskaya_constant(g, 30, rng=np.random.default_rng(2))
        b = estimate_ladyzhenskaya_constant(g, 30, rng=np.random.default_rng(2))
        assert a == b


class TestGronwallCertifier:
    def test_constant_alpha_certifies_with_exact_gamma(self):
        t = np.linspace(0.0, 3.0, 31)
        cert = gronwall_certify(t, np.full_like(t, 2.0), tau=1.0)
        assert cert.certified
        assert abs(cert.gamma - 2.0) < 1e-12
        assert abs(cert.rate - 2.0) < 1e-12
        assert cert.max_negative_part == 0.0

    def test_alternating_zero_mean_not_certified(self):
        t = np.arange(0.0, 4.0 + 1e-12, 0.25)
        a = np.where(np.arange(len(t)) % 2 == 0, 1.0, -1.0)
        cert = gronwall_certify(t, a, tau=1.0)
        assert not cert.certified
        assert abs(cert.gamma) < 1e-12
        assert cert.max_negative_part > 0.0

    def test_oscillatory_positive_mean_certifies(self):
        t = np.linspace(0.0, 5.0, 501)
        a = 2.0 + 3.0 * np.sin(2.0 * np.pi * t)
        cert = gronwall_certify(t, a, tau=1.0)
        assert cert.certified
        assert abs(cert.gamma - 2.0) < 1e-4

    def test_mesh_too_coarse_raises(self):
        t = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        with pytest.raises(ValueError):
            gronwall_certify(t, np.ones_like(t), tau=1.0)

    def test_span_shorter_than_window_raises(self):
        t = np.linspace(0.0, 0.5, 10)
        with pytest.raises(ValueError):
            gronwall_certify(t, np.ones_like(t), tau=1.0)

    def test_decaying_y_is_consistent(self):
        t = np.linspace(0.0, 4.0, 401)
        a = np.full_like(t, 1.5)
        y = np.exp(-1.5 * t)
        cert = gronwall_certify(t, a, tau=1.0, y=y)
        assert cert.certified
        assert abs(cert.observed_rate - 1.5) < 1e-9
        assert cert.consistent

    def test_slow_y_is_flagged(self):
        t = np.linspace(0.0, 4.0, 401)
        a = np.full_like(t, 2.0)
        y = np.exp(-0.5 * t)
        cert = gronwall_certify(t, a, tau=1.0, y=y)
        assert cert.certified
        assert cert.consistent is False


class TestDecayCoefficient:
    def test_series_formula(self):
        alpha = decay_coefficient_series(
            mu=10.0, nu=1.0, kappa=1.0, lambda1=1.0, c1=1.0,
            u_v_norms=[1.0], theta_v_norms=[1.0],
        )
        assert close(alpha[0], 10.0 - 4.0 - 4.0 - 4.0)

    def test_cap(self):
        capped = cap_decay_coefficient([100.0, -1.0], nu=1.0, kappa=0.5, lambda1=4.0)
        assert capped[0] == 1.0
        assert capped[1] == -1.0
