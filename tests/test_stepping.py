"""Tests for the IMEX steppers: per-mode decay factors against the exact
scalar ODE, bit-exact composition, stability, and the nudging hooks."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import benard_da

from benard_da import stepping
from benard_da.model import PhysicalParams, State
from benard_da.observations import InterpolantSpec, modal_projection_mask, observe
from benard_da.spectral import (
    Grid,
    SpectralField,
    VectorField,
    norm_h,
    norm_v,
    random_scalar,
    random_solenoidal,
    solenoidality_defect,
)
from benard_da.stepping import (
    BlowUpError,
    History,
    NudgingStep,
    StepperConfig,
    integrate,
    step,
    tendency_history,
)
from helpers import real_mode


@pytest.fixture(scope="module")
def grid():
    return Grid(2.0, 32, 16)


def shear_state(grid, amplitude=1.0):
    """u = (cos(pi y), 0), theta = 0: self-advection and buoyancy vanish,
    so the trajectory is the exact per-mode diffusion ODE."""
    u1 = real_mode(grid, "cos", 0, 1, amplitude=amplitude)
    return State(VectorField(u1, SpectralField.zeros(grid, "sin")), SpectralField.zeros(grid, "sin"))


class TestConfig:
    def test_validation(self):
        for dt in (0.0, -1e-3, np.inf, np.nan):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                StepperConfig(dt=dt)

    def test_nudging_step_forms(self, grid):
        mask = np.ones(grid.coeff_shape)
        data = np.zeros(grid.coeff_shape, dtype=complex)
        force = VectorField.zeros(grid)
        NudgingStep(mu=1.0, observed_mask=mask, data1=data, data2=data)
        NudgingStep(mu=1.0, force=force)
        with pytest.raises(ValueError):
            NudgingStep(mu=1.0)
        with pytest.raises(ValueError):
            NudgingStep(mu=1.0, observed_mask=mask, data1=data, data2=data, force=force)
        with pytest.raises(ValueError):
            NudgingStep(mu=1.0, observed_mask=mask)
        for mu in (-1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="mu must be non-negative and finite"):
                NudgingStep(mu=mu, force=force)


class TestDiffusionFactors:
    def test_startup_factor_is_crank_nicolson(self, grid):
        # A step without history is CNAB2 too: trapezoidal diffusion.
        p = PhysicalParams(nu=0.5, kappa=0.25)
        dt = 0.005
        s0 = shear_state(grid)
        s1, _ = step(s0, p, StepperConfig(dt=dt))
        x = p.nu * np.pi**2 * dt
        got = s1.velocity.u1.coeffs[0, 1] / s0.velocity.u1.coeffs[0, 1]
        assert abs(got - (1.0 - 0.5 * x) / (1.0 + 0.5 * x)) < 1e-15

    def test_crank_nicolson_factor_exact(self, grid):
        p = PhysicalParams(nu=0.5, kappa=0.25)
        dt = 0.005
        cfg = StepperConfig(dt=dt)
        s0 = shear_state(grid)
        s1, h = step(s0, p, cfg)
        s2, _ = step(s1, p, cfg, history=h)
        x = p.nu * np.pi**2 * dt
        got = s2.velocity.u1.coeffs[0, 1] / s1.velocity.u1.coeffs[0, 1]
        assert abs(got - (1.0 - 0.5 * x) / (1.0 + 0.5 * x)) < 1e-15

    def test_decay_second_order_locally(self, grid):
        # CN factor differs from exp(-x) by x^3/12 to leading order, on
        # the first step as on later ones; assert with measured margins.
        p = PhysicalParams(nu=0.5, kappa=0.25)
        dt = 0.005
        x = p.nu * np.pi**2 * dt
        cfg = StepperConfig(dt=dt)
        s0 = shear_state(grid)
        s1, h = step(s0, p, cfg)
        s2, _ = step(s1, p, cfg, history=h)
        cn = s2.velocity.u1.coeffs[0, 1] / s1.velocity.u1.coeffs[0, 1]
        assert abs(cn - np.exp(-x)) < x**3 / 6.0
        eu = s1.velocity.u1.coeffs[0, 1] / s0.velocity.u1.coeffs[0, 1]
        assert abs(eu - np.exp(-x)) < x**2

    def test_theta_conduction_matches_exact_decay(self, grid):
        p = PhysicalParams(nu=1.0, kappa=0.25)
        th = real_mode(grid, "sin", 0, 1)
        s = State(VectorField.zeros(grid), th)
        dt = 0.002
        final, _ = integrate(s, p, StepperConfig(dt=dt), 1.0)
        got = final.temperature.coeffs[0, 1].real
        want = np.exp(-p.kappa * np.pi**2 * 1.0)
        assert abs(got - want) / want < 1e-4
        assert abs(final.time - 1.0) < 1e-12

    def test_unconditional_stability(self, grid):
        p = PhysicalParams(nu=0.5, kappa=0.25)
        for dt in (0.1, 10.0, 1e4):
            s = shear_state(grid)
            e0 = norm_h(s.velocity)
            hist = None
            cfg = StepperConfig(dt=dt)
            for _ in range(5):
                s, hist = step(s, p, cfg, history=hist)
                e1 = norm_h(s.velocity)
                assert e1 <= e0 * (1.0 + 1e-14)
                e0 = e1


class TestIntegrate:
    def test_zero_state_stays_zero(self, grid):
        p = PhysicalParams(nu=0.5, kappa=0.25)
        s, _ = integrate(State.zeros(grid), p, StepperConfig(dt=0.01), 0.5)
        assert norm_h(s.velocity) == 0.0
        assert norm_h(s.temperature) == 0.0

    def test_t_end_equal_returns_same_state(self, grid):
        p = PhysicalParams(nu=0.5, kappa=0.25)
        s0 = shear_state(grid)
        s, _ = integrate(s0, p, StepperConfig(dt=0.01), 0.0)
        assert s is s0

    def test_t_end_in_past_rejected(self, grid):
        p = PhysicalParams(nu=0.5, kappa=0.25)
        rng = np.random.default_rng(0)
        s0 = State(random_solenoidal(grid, rng), random_scalar(grid, rng, "sin"))
        s1, _ = integrate(s0, p, StepperConfig(dt=0.01), 0.1)
        with pytest.raises(ValueError):
            integrate(s1, p, StepperConfig(dt=0.01), 0.05)

    @pytest.mark.parametrize(
        "t0, half", [(0.0, 0.35), (3e4, 0.1)], ids=["t0=0", "t0=3e4"]
    )
    def test_composition_bit_exact(self, grid, t0, half):
        # Far from t = 0 the rounded times t0 + k dt miss t0 + 2 half by a
        # few ulps; every run still takes whole steps of exactly dt.
        p = PhysicalParams(nu=0.05, kappa=0.05)
        rng = np.random.default_rng(3)
        s0 = State(
            random_solenoidal(grid, rng, norm=0.5),
            random_scalar(grid, rng, "sin", norm=0.5),
            t0,
        )
        cfg = StepperConfig(dt=0.01)
        split, straight = [], []
        sa, ha = integrate(s0, p, cfg, t0 + half, observers=[(1, split.append)])
        sb, hb = integrate(
            sa, p, cfg, t0 + 2 * half, observers=[(1, split.append)], history=ha
        )
        sc, hc = integrate(s0, p, cfg, t0 + 2 * half, observers=[(1, straight.append)])
        assert len(split) == len(straight) == round(2 * half / cfg.dt)
        assert ha.dt == hb.dt == hc.dt == cfg.dt
        assert sb.time == sc.time
        assert np.array_equal(sb.velocity.u1.coeffs, sc.velocity.u1.coeffs)
        assert np.array_equal(sb.velocity.u2.coeffs, sc.velocity.u2.coeffs)
        assert np.array_equal(sb.temperature.coeffs, sc.temperature.coeffs)
        assert np.array_equal(hb.tendencies, hc.tendencies)

    def test_determinism(self, grid):
        p = PhysicalParams(nu=0.05, kappa=0.05)
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(11)
            s0 = State(
                random_solenoidal(grid, rng, norm=0.5),
                random_scalar(grid, rng, "sin", norm=0.5),
            )
            s, _ = integrate(s0, p, StepperConfig(dt=0.01), 0.3)
            outs.append(s)
        assert np.array_equal(outs[0].velocity.u1.coeffs, outs[1].velocity.u1.coeffs)
        assert np.array_equal(outs[0].temperature.coeffs, outs[1].temperature.coeffs)

    def test_later_steps_leave_earlier_results_unchanged(self, grid):
        # a new state's fields are views of one array step fills, and the
        # history is one stack; neither may be reused by a later step
        p = PhysicalParams(nu=0.05, kappa=0.05)
        rng = np.random.default_rng(17)
        s0 = State(
            random_solenoidal(grid, rng, norm=0.5),
            random_scalar(grid, rng, "sin", norm=0.5),
        )
        cfg = StepperConfig(dt=0.01)
        s1, h1 = step(s0, p, cfg)
        s2, h2 = step(s1, p, cfg, history=h1)
        kept = [h1.tendencies, h2.tendencies] + [
            f.coeffs
            for s in (s1, s2)
            for f in (s.velocity.u1, s.velocity.u2, s.temperature)
        ]
        before = [a.tobytes() for a in kept]
        s, h = s2, h2
        for _ in range(5):
            s, h = step(s, p, cfg, history=h)
        assert [a.tobytes() for a in kept] == before
        assert not any(a.flags.writeable for a in kept)

    def test_observer_cadence(self, grid):
        p = PhysicalParams(nu=0.5, kappa=0.25)
        s0 = shear_state(grid)
        seen = []
        integrate(s0, p, StepperConfig(dt=0.01), 0.1, observers=[(2, seen.append)])
        assert len(seen) == 5
        assert all(b.time > a.time for a, b in zip(seen, seen[1:]))

    @pytest.mark.parametrize("t_end", [0.0031, np.inf, np.nan])
    def test_length_not_whole_steps_rejected_before_stepping(self, grid, t_end):
        p = PhysicalParams(nu=0.5, kappa=0.25)
        seen = []
        with pytest.raises(ValueError, match="whole multiple"):
            integrate(
                shear_state(grid), p, StepperConfig(dt=1e-3), t_end,
                observers=[(1, seen.append)],
            )
        assert seen == []

    @pytest.mark.parametrize("every", [0, -2])
    def test_non_positive_observer_period_rejected_before_stepping(self, grid, every):
        p = PhysicalParams(nu=0.5, kappa=0.25)
        seen = []
        with pytest.raises(ValueError, match="observer period"):
            integrate(
                shear_state(grid), p, StepperConfig(dt=0.01), 0.1,
                observers=[(1, seen.append), (every, seen.append)],
            )
        assert seen == []

    def test_divergence_free_preserved(self, grid):
        p = PhysicalParams(nu=0.05, kappa=0.05)
        rng = np.random.default_rng(12)
        s0 = State(
            random_solenoidal(grid, rng, norm=0.8),
            random_scalar(grid, rng, "sin", norm=0.5),
        )
        s, _ = integrate(s0, p, StepperConfig(dt=0.005), 2.0)
        assert solenoidality_defect(s.velocity) < 1e-12


class TestBlowUp:
    def test_blow_up_detected_with_time(self, grid):
        p = PhysicalParams(nu=1e-8, kappa=1e-8)
        rng = np.random.default_rng(13)
        s0 = State(
            random_solenoidal(grid, rng, norm=1e11),
            random_scalar(grid, rng, "sin", norm=1e11),
        )
        with pytest.raises(BlowUpError) as ei:
            integrate(s0, p, StepperConfig(dt=1.0), 10.0, label="truth")
        e = ei.value
        assert e.time > 0.0
        assert e.label == "truth"
        # the report names the worst coefficient of the failing update, by
        # its stored row n (standing for n and -n) and column m
        assert e.field in ("u1", "u2", "theta")
        n, m = e.mode
        assert 0 <= n <= grid.nx // 2 and 0 <= m <= grid.ny
        assert not e.magnitude <= 1e12
        assert e.last_finite_time == e.time - 1.0
        for part in (e.field, f"(n, m) = ({n}, {m})", f"t = {e.last_finite_time:.6g}"):
            assert part in str(e)


class TestFiniteCheck:
    """The cheap bound max(|re|, |im|) <= 1e12 / 1.5 only skips the exact
    check; every update it does not pass gets the complex magnitudes, so a
    blow-up is reported at the same field, mode and magnitude."""

    @pytest.mark.parametrize(
        "entries, report",
        [
            # on the diagonal: the bound fails, |c| = 0.99e12 does not raise
            ({(1, 2, 3): 0.7e12 * (1 + 1j)}, None),
            ({(1, 2, 3): 0.71e12 * (1 + 1j)}, ("u2", (2, 3), 1004091629284.8976)),
            (
                {(1, 2, 3): 0.7e12 * (1 + 1j), (0, 4, 8): -1.0000001e12},
                ("u1", (4, 8), 1000000100000.0),
            ),
            ({(0, 2, 2): 1e12}, None),
            ({(2, 1, 4): complex(np.nan, 0.0)}, ("theta", (1, 4), np.nan)),
            ({(0, 3, 0): complex(np.inf, 0.0)}, ("u1", (3, 0), np.inf)),
            ({(3, 0, 1): complex(0.0, -np.inf)}, ("passenger 0", (0, 1), np.inf)),
            # the first nan wins over an earlier inf, as np.argmax has it
            (
                {(0, 0, 1): complex(np.inf, 0.0), (1, 0, 0): complex(np.nan, 1.0)},
                ("u2", (0, 0), np.nan),
            ),
        ],
        ids=[
            "below-diagonal", "above-diagonal", "above-real", "at-threshold",
            "nan", "inf", "minus-inf-imag", "nan-after-inf",
        ],
    )
    def test_report_at_the_boundaries(self, entries, report):
        c = np.zeros((4, 5, 9), dtype=complex)
        for where, value in entries.items():
            c[where] = value
        if report is None:
            stepping._check_finite(c, 1.5, 2.0, "truth")
            return
        with pytest.raises(BlowUpError) as ei:
            stepping._check_finite(c, 1.5, 2.0, "truth")
        e = ei.value
        assert (e.field, e.mode) == report[:2]
        assert np.array_equal(e.magnitude, report[2], equal_nan=True)
        assert (e.time, e.last_finite_time, e.label) == (2.0, 1.5, "truth")


def _clear_step_caches():
    stepping._diffusion_factors.cache_clear()
    stepping._nudged_denominator.cache_clear()


class TestCaches:
    """Per-step constants are cached per configuration and read-only."""

    def test_interleaved_configurations_match_lone_runs(self, grid):
        rng = np.random.default_rng(21)
        s0 = State(
            random_solenoidal(grid, rng, norm=0.5), random_scalar(grid, rng, "sin", norm=0.5)
        )
        target = random_solenoidal(grid, rng, norm=0.5)
        slow, fast = PhysicalParams(0.03, 0.03), PhysicalParams(0.05, 0.02)
        runs = [
            (slow, StepperConfig(5e-3), None),
            (fast, StepperConfig(2.5e-3), None),
            (slow, StepperConfig(5e-3), (10.0, 0.2)),
            (slow, StepperConfig(5e-3), (50.0, 0.4)),
            (fast, StepperConfig(2.5e-3), (50.0, 0.2)),
        ]

        def nudging(modal):
            if modal is None:
                return None
            mu, h = modal
            spec = InterpolantSpec("modal", h, grid)
            obs = observe(target, spec)
            return NudgingStep(
                mu=mu,
                observed_mask=modal_projection_mask(spec),
                data1=obs.u1.coeffs,
                data2=obs.u2.coeffs,
            )

        def advance(run, s, h):
            p, cfg, modal = run
            return step(s, p, cfg, nudging=nudging(modal), history=h)

        def coefficients(s):
            return [f.coeffs.tobytes() for f in (s.velocity.u1, s.velocity.u2, s.temperature)]

        alone = []
        for run in runs:
            _clear_step_caches()
            s, h, seen = s0, None, []
            for _ in range(4):
                s, h = advance(run, s, h)
                seen.append(coefficients(s))
            alone.append(seen)
        _clear_step_caches()
        pairs = [(s0, None)] * len(runs)
        together = [[] for _ in runs]
        for _ in range(4):
            for i, run in enumerate(runs):
                pairs[i] = advance(run, *pairs[i])
                together[i].append(coefficients(pairs[i][0]))
        assert together == alone

    def test_cached_factors_are_read_only(self, grid):
        num, den = stepping._diffusion_factors(grid, 0.03, 5e-3)
        mask = modal_projection_mask(InterpolantSpec("modal", 0.2, grid))
        nudged = stepping._nudged_denominator(
            grid, 0.03, 5e-3, 10.0, (mask.dtype.str, mask.shape, mask.tobytes())
        )
        for a in (num, den, nudged):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1.0


class TestNudgingHooks:
    def test_explicit_force_dt_guard(self, grid):
        p = PhysicalParams(nu=0.5, kappa=0.25)
        s = shear_state(grid)
        nd = NudgingStep(mu=100.0, force=VectorField.zeros(grid))
        with pytest.raises(ValueError):
            step(s, p, StepperConfig(dt=0.1), nudging=nd)
        step(s, p, StepperConfig(dt=0.004), nudging=nd)

    def test_history_of_another_dt_refused(self, grid):
        # a saved history can meet a stepper of another dt; AB2 with the
        # constant weights would silently be wrong there
        p = PhysicalParams(nu=0.5, kappa=0.25)
        s = shear_state(grid)
        _, hist = step(s, p, StepperConfig(dt=0.01))
        assert hist.dt == 0.01
        other = History(hist.tendencies, 0.02)
        with pytest.raises(ValueError, match="dt=0.02"):
            step(s, p, StepperConfig(dt=0.01), history=other)
        step(s, p, StepperConfig(dt=0.02), history=other)

    def test_implicit_nudging_damps_observed_mode(self, grid):
        # Truth zero, observations zero: observed modes feel the
        # Crank-Nicolson factor with mu dt added to its denominator.
        p = PhysicalParams(nu=0.5, kappa=0.25)
        s = shear_state(grid)
        mu, dt = 200.0, 0.01
        mask = np.ones(grid.coeff_shape)
        zero = np.zeros(grid.coeff_shape, dtype=complex)
        nd = NudgingStep(mu=mu, observed_mask=mask, data1=zero, data2=zero)
        s1, _ = step(s, p, StepperConfig(dt=dt), nudging=nd)
        x = p.nu * np.pi**2 * dt
        want = (1.0 - 0.5 * x) / (1.0 + 0.5 * x + mu * dt)
        got = s1.velocity.u1.coeffs[0, 1].real
        assert abs(got - want) < 1e-14

    def test_implicit_nudging_keeps_synchronized_twin(self, grid):
        # Assimilated state equal to truth, fed end-of-step truth
        # observations: the pair stays synchronized to round-off.
        p = PhysicalParams(nu=0.05, kappa=0.05)
        rng = np.random.default_rng(14)
        truth = State(
            random_solenoidal(grid, rng, norm=0.8),
            random_scalar(grid, rng, "sin", norm=0.5),
        )
        assim = truth
        cfg = StepperConfig(dt=0.01)
        mu = 50.0
        mask = grid.dealias_mask.astype(float)
        ht = ha = None
        for _ in range(50):
            truth_next, ht = step(truth, p, cfg, history=ht)
            data1 = mask * truth_next.velocity.u1.coeffs
            data2 = mask * truth_next.velocity.u2.coeffs
            nd = NudgingStep(mu=mu, observed_mask=mask, data1=data1, data2=data2)
            assim, ha = step(assim, p, cfg, nudging=nd, history=ha)
            truth = truth_next
        err = norm_h(
            VectorField(
                SpectralField(grid, "cos", truth.velocity.u1.coeffs - assim.velocity.u1.coeffs),
                SpectralField(grid, "sin", truth.velocity.u2.coeffs - assim.velocity.u2.coeffs),
            )
        )
        assert err < 1e-12


class TestRealityPreservation:
    """Reality is a property of the half layout: the stepper holds no
    projection, yet the self-conjugate rows stay real and the Nyquist row,
    outside the dealiased band, only diffuses."""

    def test_self_conjugate_rows_stay_real(self, grid):
        # A supercritical run from a state that also carries real Nyquist
        # temperature content: every step leaves rows 0 and nx/2 exactly
        # real.  The explicit tendencies are dealiased away from the
        # Nyquist row, so it follows its own linear per-mode dynamics
        # (diffusion and buoyancy) and matches a run of it alone.
        p = PhysicalParams(nu=0.005, kappa=0.005)
        rng = np.random.default_rng(7)
        s = State(
            random_solenoidal(grid, rng, norm=0.01),
            random_scalar(grid, rng, "sin", norm=0.01),
        )
        nyq = np.zeros(grid.coeff_shape)
        nyq[-1, 1:-1] = 1e-3 * rng.standard_normal(grid.ny - 1)
        theta_nyq = SpectralField(grid, "sin", nyq)
        s = State(s.velocity, s.temperature + theta_nyq)
        cfg, t_end = StepperConfig(dt=1e-3), 1.0
        seen = []
        s, _ = integrate(s, p, cfg, t_end, observers=[(1, seen.append)])
        assert len(seen) == 1000
        for st in seen:
            for f in (st.velocity.u1, st.velocity.u2, st.temperature):
                assert not f.coeffs[0].imag.any() and not f.coeffs[-1].imag.any()
        alone, _ = integrate(State(VectorField.zeros(grid), theta_nyq), p, cfg, t_end)
        for f, ref in (
            (s.velocity.u1, alone.velocity.u1),
            (s.velocity.u2, alone.velocity.u2),
            (s.temperature, alone.temperature),
        ):
            assert np.array_equal(f.coeffs[-1], ref.coeffs[-1])
        assert np.abs(s.velocity.u2.coeffs[-1]).max() > 0.0
        assert 0.0 < np.abs(s.temperature.coeffs[-1]).max() < np.abs(nyq).max()
        assert norm_v(s.velocity) < 10.0

    def test_imaginary_self_conjugate_input_is_dropped_in_one_step(self, grid):
        # Coefficient arrays with imaginary parts in rows 0 and nx/2 carry
        # no real-field content: the fields drop them on construction, so
        # one step from them is bit for bit the step from the real rows.
        p = PhysicalParams(nu=0.1, kappa=0.1)
        rng = np.random.default_rng(11)
        s = State(
            random_solenoidal(grid, rng, norm=0.5),
            random_scalar(grid, rng, "sin", norm=0.5),
        )
        raw = np.array(s.temperature.coeffs)
        raw.imag[[0, -1]] = rng.standard_normal((2, grid.ny + 1)) * 1e-3
        t = SpectralField(grid, "sin", raw)
        assert t.coeffs.tobytes() == s.temperature.coeffs.tobytes()
        out, _ = step(State(s.velocity, t, s.time), p, StepperConfig(dt=0.01))
        ref, _ = step(s, p, StepperConfig(dt=0.01))
        for a, b in (
            (out.velocity.u1, ref.velocity.u1),
            (out.velocity.u2, ref.velocity.u2),
            (out.temperature, ref.temperature),
        ):
            assert a.coeffs.tobytes() == b.coeffs.tobytes()
            assert not a.coeffs[0].imag.any() and not a.coeffs[-1].imag.any()


class TestPassengers:
    """Passive temperatures ride in step() as extra rows of its one stack."""

    p = PhysicalParams(nu=0.5, kappa=0.25)
    cfg = StepperConfig(dt=0.01)

    def random_state(self, grid, passengers=0, seed=15):
        rng = np.random.default_rng(seed)
        return State(
            random_solenoidal(grid, rng, norm=0.7),
            random_scalar(grid, rng, "sin", norm=0.4),
            passengers=[random_scalar(grid, rng, "sin") for _ in range(passengers)],
        )

    def test_passenger_steps_like_the_temperature_row(self, grid):
        # A passenger advances bit for bit like the temperature of a state
        # whose temperature it is, given the same start-of-step velocity:
        # over the startup step and over a CNAB2 step.
        s = self.random_state(grid, passengers=2)
        s1, h1 = step(s, self.p, self.cfg)
        s2, _ = step(s1, self.p, self.cfg, history=h1)
        for k, phi in enumerate(s.passengers):
            ref1, _ = step(State(s.velocity, phi), self.p, self.cfg)
            assert s1.passengers[k].coeffs.tobytes() == ref1.temperature.coeffs.tobytes()
            # the reference resumes from s1's velocity and its own rows
            ref_hist = History(h1.tendencies[[0, 1, 3 + k]], h1.dt)
            ref = State(s1.velocity, s1.passengers[k], s1.time)
            ref2, _ = step(ref, self.p, self.cfg, history=ref_hist)
            assert s2.passengers[k].coeffs.tobytes() == ref2.temperature.coeffs.tobytes()
        # passengers feed nothing back: the velocity and theta rows are the
        # rows of the same state without them
        bare = State(s.velocity, s.temperature)
        b1, bh = step(bare, self.p, self.cfg)
        assert np.array_equal(h1.tendencies[:3], bh.tendencies)
        for a, b in (
            (s1.velocity.u1, b1.velocity.u1),
            (s1.velocity.u2, b1.velocity.u2),
            (s1.temperature, b1.temperature),
        ):
            assert a.coeffs.tobytes() == b.coeffs.tobytes()

    def test_passenger_equal_to_theta_stays_equal_under_primed_start(self, grid):
        s = self.random_state(grid)
        s = State(s.velocity, s.temperature, passengers=(s.temperature,))
        hist = tendency_history(s, self.cfg)
        assert np.array_equal(hist.tendencies[2], hist.tendencies[3])
        out, _ = integrate(s, self.p, self.cfg, 0.2, history=hist)
        assert out.passengers[0].coeffs.tobytes() == out.temperature.coeffs.tobytes()
        assert norm_h(out.temperature - s.temperature) > 0.0

    def test_history_row_count_must_match_state(self, grid):
        s = self.random_state(grid, passengers=1)
        _, bare_hist = step(State(s.velocity, s.temperature), self.p, self.cfg)
        with pytest.raises(ValueError, match="history has 3 rows, the state 4"):
            step(s, self.p, self.cfg, history=bare_hist)
        _, hist = step(s, self.p, self.cfg)
        with pytest.raises(ValueError, match="history has 4 rows, the state 3"):
            step(State(s.velocity, s.temperature), self.p, self.cfg, history=hist)

    def test_blow_up_names_the_passenger(self, grid):
        s = self.random_state(grid, passengers=2)
        big = 1e15 * s.passengers[1]
        huge = State(s.velocity, s.temperature, passengers=(s.passengers[0], big))
        with pytest.raises(BlowUpError, match=r"\|passenger 1\|") as ei:
            step(huge, self.p, self.cfg, label="truth")
        assert ei.value.field == "passenger 1"


class TestBlasThreads:
    def test_spin_up_bits_do_not_depend_on_blas_threads(self):
        # the y transforms are BLAS products, which OpenBLAS splits across
        # threads at these grids; the state must keep its bits.  One fresh
        # interpreter per thread count: OpenBLAS reads it once, at load
        src = str(Path(benard_da.__file__).resolve().parents[1])
        script = f"import sys; sys.path.insert(0, {src!r})\n" + textwrap.dedent(
            """
            from benard_da.assimilation import spin_up
            from benard_da.config import RunConfig
            for nx, ny in ((128, 64), (256, 128)):
                cfg = RunConfig(nx=nx, ny=ny)
                s, _ = spin_up(cfg.physical_params(), cfg.grid(), cfg.stepper(), 0.1, seed=5)
                for f in (s.velocity.u1, s.velocity.u2, s.temperature):
                    print(f.coeffs.tobytes().hex())
            """
        )
        runs = []
        for threads in ("1", "2"):
            out = subprocess.run(
                [sys.executable, "-c", script],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert out.returncode == 0, out.stderr
            runs.append(out.stdout.split())
        assert len(runs[0]) == 6
        assert runs[0] == runs[1]
