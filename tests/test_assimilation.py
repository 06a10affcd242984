"""Twin-experiment engine tests.

The cheap configurations here run on a 32x16 grid.  Supercritical cases use
nu = kappa = 0.03, halfway past the stress-free instability threshold, so
the truth settles into convection rolls; subcritical cases use 0.05 where
everything relaxes to conduction.
"""

import dataclasses
import struct
import tracemalloc
import zipfile

import numpy as np
import pytest

from benard_da import assimilation, observations, stepping
from benard_da.assimilation import (
    CUSTOM,
    PERTURBED_TRUTH,
    ErrorSeries,
    ObservationRecord,
    SlavingSeries,
    TwinConfig,
    TwinResult,
    fit_decay_rate,
    nudging_force,
    run_from_record,
    run_temperature_slaving,
    run_twin,
    slaving_contract_margin,
    spin_up,
)
from benard_da.model import PhysicalParams, State
from benard_da.observations import (
    KINDS,
    MODAL,
    NODAL,
    VOLUME,
    InterpolantSpec,
    modal_projection_mask,
    observe,
)
from benard_da.spectral import (
    COS,
    SIN,
    Grid,
    SpectralField,
    VectorField,
    leray_project,
    norm_h,
    random_scalar,
    random_solenoidal,
)
from benard_da.stepping import BlowUpError, StepperConfig
from helpers import pairwise_contract_margin, real_mode

GRID = Grid(2.0, 32, 16)
SUPER = PhysicalParams(nu=0.03, kappa=0.03, mu=40.0)
STEP = StepperConfig(dt=2e-3)


def single_mode_solenoidal(grid: Grid, n: int, m: int) -> VectorField:
    """Divergence-free velocity occupying one conjugate mode pair (row n >= 0)."""
    c1 = np.zeros(grid.coeff_shape, dtype=complex)
    c2 = np.zeros(grid.coeff_shape, dtype=complex)
    c1[n, m] = 1j * grid.ky[m]
    c2[n, m] = grid.kx[n]
    f = VectorField(SpectralField(grid, COS, c1), SpectralField(grid, SIN, c2))
    assert norm_h(f) > 0
    return f


def twin_config(**overrides) -> TwinConfig:
    kw = dict(
        params=SUPER,
        spec=InterpolantSpec(MODAL, 0.2, GRID),
        stepper=STEP,
        run_time=0.5,
        spinup_time=2.0,
        seed=3,
    )
    kw.update(overrides)
    return TwinConfig(**kw)


class TestConfigValidation:
    def test_policy_names_checked(self):
        with pytest.raises(ValueError, match="policies"):
            twin_config(v0_policy="random")

    def test_cadence_positive(self):
        with pytest.raises(ValueError, match="cadence"):
            twin_config(sample_cadence=0)

    def test_run_time_positive(self):
        with pytest.raises(ValueError, match="run_time"):
            twin_config(run_time=0.0)

    def test_run_time_must_be_whole_steps(self):
        with pytest.raises(ValueError, match="multiple"):
            twin_config(run_time=0.0031, stepper=StepperConfig(dt=1e-3))
        with pytest.raises(ValueError, match="multiple"):
            twin_config(run_time=np.inf)
        assert twin_config(run_time=0.3).run_time == 0.3

    def test_spinup_nonnegative(self):
        with pytest.raises(ValueError, match="spinup"):
            twin_config(spinup_time=-1.0)

    def test_spinup_must_be_whole_steps(self):
        with pytest.raises(ValueError, match="spinup_time 0.0031 is not .* whole multiple"):
            twin_config(spinup_time=0.0031, stepper=StepperConfig(dt=1e-3))
        assert twin_config(spinup_time=0.0).spinup_time == 0.0

    @pytest.mark.parametrize("kind", [VOLUME, NODAL])
    def test_explicit_kinds_refuse_step_beyond_half_inverse_mu(self, kind):
        # the message is step's own, so a sweep row reads the same either way
        spec = InterpolantSpec(kind, 0.2, GRID)
        params = PhysicalParams(nu=0.03, kappa=0.03, mu=300.0)
        with pytest.raises(ValueError) as e:
            twin_config(params=params, spec=spec)
        assert str(e.value) == "explicit nudging requires dt <= 1/(2 mu): dt=0.002, mu=300.0"
        assert twin_config(params=dataclasses.replace(params, mu=250.0), spec=spec)
        assert twin_config(params=params, spec=InterpolantSpec(MODAL, 0.2, GRID))

    def test_custom_policy_needs_state(self):
        cfg = twin_config(v0_policy=CUSTOM, spinup_time=0.0)
        with pytest.raises(ValueError, match="custom"):
            run_twin(cfg)

    @pytest.mark.parametrize("policy", ["v0", "eta0"])
    def test_custom_policy_refused_before_spin_up(self, monkeypatch, policy):
        def no_spin_up(*args, **kwargs):
            raise AssertionError("spun up before refusing the policy")

        monkeypatch.setattr(assimilation, "spin_up", no_spin_up)
        cfg = twin_config(**{f"{policy}_policy": CUSTOM})
        message = f"{policy}_policy='custom' requires an explicit {policy}"
        with pytest.raises(ValueError, match=message):
            run_twin(cfg)
        with pytest.raises(ValueError, match=message):
            run_twin([twin_config(), cfg])

    def test_series_times_must_increase(self):
        t = np.array([0.0, 1.0, 1.0])
        z = np.zeros(3)
        with pytest.raises(ValueError, match="increasing"):
            ErrorSeries(t, z, z, z, z)

    def test_series_rejects_negative_norms(self):
        t = np.array([0.0, 1.0, 2.0])
        z = np.zeros(3)
        with pytest.raises(ValueError, match="nonnegative"):
            ErrorSeries(t, z, z - 1.0, z, z)


class TestSpinUp:
    @pytest.mark.parametrize("spinup_time", [0.0031, np.inf])
    def test_partial_step_refused_before_stepping(self, spinup_time):
        seen = []
        with pytest.raises(ValueError, match="whole multiple"):
            spin_up(
                SUPER, GRID, StepperConfig(dt=1e-3), spinup_time,
                observers=[(1, seen.append)],
            )
        assert seen == []


class TestNudgingForce:
    def test_zero_mu_gives_zero_force(self):
        rng = np.random.default_rng(0)
        v = random_solenoidal(GRID, rng)
        u = random_solenoidal(GRID, rng)
        spec = InterpolantSpec(VOLUME, 0.25, GRID)
        f = nudging_force(v, observe(u, spec), spec, mu=0.0)
        assert norm_h(f) == 0.0

    def test_single_observed_mode_pulled_exactly(self):
        # In-band mode, zero observations: the force is -mu times the field.
        spec = InterpolantSpec(MODAL, 0.2, GRID)
        v = single_mode_solenoidal(GRID, 1, 1)
        zero = VectorField.zeros(GRID)
        mu = 7.0
        f = nudging_force(v, zero, spec, mu)
        assert np.allclose(f.u1.coeffs, -mu * v.u1.coeffs, rtol=0, atol=1e-14)
        assert np.allclose(f.u2.coeffs, -mu * v.u2.coeffs, rtol=0, atol=1e-14)

    def test_out_of_band_mode_ignored(self):
        spec = InterpolantSpec(MODAL, 0.2, GRID)
        mask = modal_projection_mask(spec)
        assert not mask[8, 3]
        v = single_mode_solenoidal(GRID, 8, 3)
        f = nudging_force(v, VectorField.zeros(GRID), spec, mu=7.0)
        assert norm_h(f) == 0.0

    def test_force_is_solenoidal(self):
        from benard_da.spectral import solenoidality_defect

        rng = np.random.default_rng(5)
        spec = InterpolantSpec(NODAL, 0.25, GRID)
        v = random_solenoidal(GRID, rng)
        u = random_solenoidal(GRID, rng)
        f = nudging_force(v, observe(u, spec), spec, mu=12.0)
        assert solenoidality_defect(f) < 1e-12 * norm_h(f)

    def test_grid_mismatch_rejected(self):
        other = Grid(2.0, 16, 8)
        spec = InterpolantSpec(MODAL, 0.2, GRID)
        v = VectorField.zeros(other)
        with pytest.raises(ValueError, match="grid"):
            nudging_force(v, VectorField.zeros(GRID), spec, mu=1.0)

    @pytest.mark.parametrize("kind", [MODAL, VOLUME])
    @pytest.mark.parametrize("mu", [np.nan, np.inf, -np.inf, -1.0])
    def test_mu_must_be_non_negative_and_finite(self, kind, mu):
        # a nan or infinite mu used to give an all-nan force
        grid = Grid(2.0, 16, 8)
        spec = InterpolantSpec(kind, 0.25, grid)
        v = random_solenoidal(grid, np.random.default_rng(2))
        with pytest.raises(ValueError) as ei:
            nudging_force(v, VectorField.zeros(grid), spec, mu)
        assert str(ei.value) == f"mu must be non-negative and finite, got {mu}"

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shape", [(16, 8), (64, 32)], ids=["16x8", "64x32"])
    def test_force_has_the_bits_of_the_field_arithmetic(self, kind, shape):
        grid = Grid(2.0, *shape)
        rng = np.random.default_rng(17)
        spec = InterpolantSpec(kind, 0.25, grid)
        u_obs = observe(random_solenoidal(grid, rng), spec)
        # a velocity with a gradient part, so that the projection acts
        v = VectorField(random_scalar(grid, rng, COS), random_scalar(grid, rng, SIN))
        got = nudging_force(v, u_obs, spec, 35.0)
        want = -35.0 * leray_project(observe(v, spec) - u_obs)
        assert got.u1.coeffs.tobytes() == want.u1.coeffs.tobytes()
        assert got.u2.coeffs.tobytes() == want.u2.coeffs.tobytes()

    def test_force_bits_where_the_projection_leaves_a_signed_zero(self):
        # the modal disc of radius 1/h = 100 keeps the row n = nx/2, where
        # a u2 mode projects onto u1 entries of zero real and non-zero
        # imaginary part; the field expression zeroes that imaginary part
        # before the scaling, and the sign of the scaled real zero depends on it
        grid = Grid(2.0, 16, 8)
        spec = InterpolantSpec(MODAL, 0.01, grid)
        zero = VectorField.zeros(grid)
        for amplitude in (0.3, -0.3):
            c2 = np.zeros(grid.coeff_shape, dtype=complex)
            c2[-1, 1:-1] = amplitude
            v = VectorField(SpectralField.zeros(grid, COS), SpectralField(grid, SIN, c2))
            got = nudging_force(v, zero, spec, 35.0)
            want = -35.0 * leray_project(observe(v, spec) - zero)
            assert got.u1.coeffs.tobytes() == want.u1.coeffs.tobytes()
            assert got.u2.coeffs.tobytes() == want.u2.coeffs.tobytes()


@pytest.fixture(scope="module")
def attractor_state():
    """One settled supercritical truth state shared by the slow twin tests."""
    state, _ = spin_up(SUPER, GRID, STEP, 30.0, seed=3)
    return state


class TestRunTwin:
    def test_synchronized_start_stays_synchronized(self):
        truth0, _ = spin_up(SUPER, GRID, STEP, 2.0, seed=3)
        cfg = twin_config(
            v0_policy=CUSTOM, eta0_policy=CUSTOM, run_time=0.1, spinup_time=0.0
        )
        res = run_twin(
            cfg,
            truth0=truth0,
            v0=truth0.velocity,
            eta0=truth0.temperature,
        )
        assert np.all(res.errors.w_h < 1e-10)
        assert np.all(res.errors.xi_h < 1e-10)

    def test_control_run_keeps_error(self, attractor_state):
        # mu = 0 from a zero initial guess: the error IS the truth, which
        # lives on the attractor and does not decay.
        params = PhysicalParams(nu=0.03, kappa=0.03, mu=0.0)
        cfg = twin_config(params=params, run_time=1.0)
        res = run_twin(cfg, truth0=attractor_state)
        assert res.errors.w_h[-1] > 0.3 * res.errors.w_h[0]

    def test_errors_decay_with_velocity_only_nudging(self, attractor_state):
        # Qualitative check; the sharp decay thresholds live in the
        # acceptance suite at full resolution.  The temperature trails the
        # velocity since it is never observed.
        cfg = twin_config(run_time=6.0)
        res = run_twin(cfg, truth0=attractor_state)
        assert res.errors.w_h[-1] < 1e-3 * res.errors.w_h[0]
        assert res.errors.xi_h[-1] < 5e-2 * res.errors.xi_h[0]

    def test_sample_cadence_and_diagnostics(self):
        cfg = twin_config(run_time=0.1, spinup_time=0.5, sample_cadence=5)
        res = run_twin(cfg)
        n_steps = int(round(0.1 / STEP.dt))
        assert len(res.errors.times) == n_steps // 5 + 1
        assert np.all(np.diff(res.errors.times) > 0)
        d = res.truth_diagnostics
        assert np.array_equal(d.times, res.errors.times)
        assert d.k3 == np.max(d.a0u_sq)
        assert d.k3 > 0

    def test_own_spin_up_starts_the_truth_as_a_given_truth0(self):
        # the spin-up's step history is dropped, so that the truth starts
        # alike whether run_twin spins it up or is handed the state
        params = PhysicalParams(nu=0.03, kappa=0.03, mu=20.0)
        cfg = twin_config(params=params, spinup_time=0.5, run_time=0.25)
        own = run_twin(cfg)
        truth0, _ = spin_up(params, GRID, STEP, 0.5, seed=3)
        given = run_twin(cfg, truth0=truth0)
        for name in ("times", "w_h", "w_v", "xi_h", "xi_v"):
            assert getattr(own.errors, name).tobytes() == getattr(given.errors, name).tobytes()
        assert own.truth_final.temperature.coeffs.tobytes() == (
            given.truth_final.temperature.coeffs.tobytes()
        )

    def test_blow_up_labels_trajectory(self):
        rng = np.random.default_rng(1)
        big = State(
            random_solenoidal(GRID, rng, norm=1e8),
            random_scalar(GRID, rng, SIN, norm=1e8),
        )
        cfg = twin_config(run_time=10.0, spinup_time=0.0, stepper=StepperConfig(dt=1.0))
        with pytest.raises(BlowUpError) as err:
            run_twin(cfg, truth0=big)
        e = err.value
        assert e.label == "truth"
        assert e.field in ("u1", "u2", "theta")
        assert len(e.mode) == 2
        assert not e.magnitude <= 1e12
        assert e.last_finite_time == e.time - 1.0
        assert f"|{e.field}| = " in str(e)

    def test_explicit_kind_converges_too(self, attractor_state):
        params = PhysicalParams(nu=0.03, kappa=0.03, mu=20.0)
        cfg = twin_config(
            params=params,
            spec=InterpolantSpec(VOLUME, 0.2, GRID),
            run_time=2.0,
        )
        res = run_twin(cfg, truth0=attractor_state)
        assert res.errors.w_h[-1] < 0.1 * res.errors.w_h[0]


def assert_same_run(a: TwinResult, b: TwinResult) -> None:
    """Every error column and both final states agree bit for bit."""
    for name in ("times", "w_h", "w_v", "xi_h", "xi_v"):
        assert np.array_equal(getattr(a.errors, name), getattr(b.errors, name)), name
    pairs = ((a.truth_final, b.truth_final), (a.assimilated_final, b.assimilated_final))
    for s, t in pairs:
        assert s.time == t.time
        assert np.array_equal(s.velocity.u1.coeffs, t.velocity.u1.coeffs)
        assert np.array_equal(s.velocity.u2.coeffs, t.velocity.u2.coeffs)
        assert np.array_equal(s.temperature.coeffs, t.temperature.coeffs)


def row_config(kind: str, mu: float, h: float, **overrides) -> TwinConfig:
    params = PhysicalParams(nu=0.03, kappa=0.03, mu=mu)
    kw = dict(params=params, spec=InterpolantSpec(kind, h, GRID), run_time=0.1)
    kw.update(overrides)
    return twin_config(**kw)


class TestSharedTruth:
    """A sequence of configs nudges every copy against one truth."""

    @pytest.mark.parametrize("kind", [MODAL, NODAL])
    def test_entries_match_single_runs(self, kind):
        # mixed h, a mu = 0 control, a duplicated row, mixed cadences and
        # initial policies; the spin-up is shared as well
        configs = [
            row_config(kind, 40.0, 0.2, spinup_time=0.5),
            row_config(kind, 40.0, 0.25, spinup_time=0.5, sample_cadence=3),
            row_config(kind, 0.0, 0.2, spinup_time=0.5),
            row_config(kind, 40.0, 0.2, spinup_time=0.5),
            row_config(
                kind, 20.0, 0.25, spinup_time=0.5,
                v0_policy=PERTURBED_TRUTH, epsilon=0.1,
            ),
        ]
        shared = run_twin(configs)
        assert len(shared) == len(configs)
        for cfg, got in zip(configs, shared):
            assert isinstance(got, TwinResult)
            assert_same_run(got, run_twin(cfg))
        assert shared[0] is not shared[3]

    def test_mixed_kinds_match_runs_on_cleared_caches(self, attractor_state):
        # every cached factor and table is per configuration: a copy shares
        # them with the others and still gets the bits of a lone run that
        # builds its own
        configs = [
            row_config(MODAL, 10.0, 0.2),
            row_config(MODAL, 40.0, 0.25),
            row_config(VOLUME, 40.0, 0.2),
            row_config(NODAL, 20.0, 0.25),
            row_config(NODAL, 40.0, 0.2),
        ]
        shared = run_twin(configs, truth0=attractor_state)
        for cfg, got in zip(configs, shared):
            for cached in (
                stepping._diffusion_factors,
                stepping._nudged_denominator,
                observations._tables,
                observations._cell_operators,
                observations.modal_projection_mask,
            ):
                cached.cache_clear()
            assert_same_run(got, run_twin(cfg, truth0=attractor_state))

    def test_failures_stop_only_their_copy(self, attractor_state):
        # dt = 2e-3 exceeds 1/(2 mu) at mu = 1e6, and a 1e11 perturbation
        # blows the copy up; neither may touch the bits of the others.
        # TwinConfig refuses mu = 1e6 when it is built, so the stiff copy's
        # params are swapped in afterwards, for step's own check to meet
        stiff = row_config(VOLUME, 20.0, 0.2)
        object.__setattr__(stiff, "params", dataclasses.replace(stiff.params, mu=1e6))
        configs = [
            row_config(VOLUME, 20.0, 0.2),
            stiff,
            row_config(VOLUME, 20.0, 0.2, v0_policy=PERTURBED_TRUTH, epsilon=1e11),
            row_config(VOLUME, 10.0, 0.25),
        ]
        shared = run_twin(configs, truth0=attractor_state)
        assert isinstance(shared[1], ValueError)
        assert "1/(2 mu)" in str(shared[1])
        assert isinstance(shared[2], BlowUpError)
        assert shared[2].label == "assimilated"
        for i in (0, 3):
            assert_same_run(shared[i], run_twin(configs[i], truth0=attractor_state))

    def test_late_blow_up_stops_only_its_copy(self, attractor_state):
        # a 300-norm perturbation takes several good stacked steps before
        # it blows up; the step that fails is retried copy by copy, and the
        # other copies go on with the bits of their lone runs
        configs = [
            row_config(VOLUME, 20.0, 0.2),
            row_config(NODAL, 20.0, 0.2, v0_policy=PERTURBED_TRUTH, epsilon=300.0),
            row_config(MODAL, 40.0, 0.25),
        ]
        shared = run_twin(configs, truth0=attractor_state)
        assert isinstance(shared[1], BlowUpError)
        assert shared[1].label == "assimilated"
        assert shared[1].time > attractor_state.time + 3 * STEP.dt
        with pytest.raises(BlowUpError) as ei:
            run_twin(configs[1], truth0=attractor_state)
        assert str(ei.value) == str(shared[1])
        for i in (0, 2):
            assert_same_run(shared[i], run_twin(configs[i], truth0=attractor_state))

    @pytest.mark.parametrize(
        "other",
        [{"stepper": StepperConfig(dt=1e-3)}, {"run_time": 0.2}],
        ids=["dt", "run_time"],
    )
    def test_truth_disagreement_refused_before_any_step(self, monkeypatch, other):
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated before refusing the configs")

        monkeypatch.setattr(assimilation, "step", no_integration)
        monkeypatch.setattr(assimilation, "spin_up", no_integration)
        configs = [row_config(MODAL, 40.0, 0.2), row_config(MODAL, 20.0, 0.2, **other)]
        with pytest.raises(ValueError, match="agree"):
            run_twin(configs)
        with pytest.raises(ValueError, match="agree"):
            run_twin(configs, truth0=State.zeros(GRID))

    def test_record_to_takes_one_config(self, tmp_path):
        with pytest.raises(ValueError, match="single config"):
            run_twin([twin_config()], record_to=tmp_path / "obs.npz")


def _garbage(path):
    path.write_bytes(np.random.default_rng(5).bytes(160))


def _first_half(path):
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])


def _undecodable_member(path):
    # a first deflate byte of 0xff declares the reserved block type; the
    # member's data follow its local header, whose name and extra-field
    # lengths are the two little-endian shorts at offset 26
    blob = bytearray(path.read_bytes())
    at = zipfile.ZipFile(path).getinfo("times.npy").header_offset
    blob[at + 30 + sum(struct.unpack_from("<HH", blob, at + 26))] = 0xFF
    path.write_bytes(bytes(blob))


def _plain_array(path):
    with open(path, "wb") as f:
        np.save(f, np.zeros(3))


def _stored(key, value):
    """A spoiler that rewrites the record with key stored as value."""

    def rewrite(path):
        with np.load(path) as z:
            kept = {k: z[k] for k in z.files}
        np.savez_compressed(path, **{**kept, key: value})

    return rewrite


def _first_entry(key, value):
    """A spoiler that rewrites the record with the first entry of key's
    array set to value."""

    def rewrite(path):
        with np.load(path) as z:
            kept = {k: z[k] for k in z.files}
        kept[key].flat[0] = value
        np.savez_compressed(path, **kept)

    return rewrite


class TestObservationReplay:
    @pytest.mark.parametrize("kind,mu", [(MODAL, 40.0), (VOLUME, 20.0), (NODAL, 20.0)])
    def test_replay_reproduces_live_run_exactly(self, tmp_path, kind, mu):
        params = PhysicalParams(nu=0.03, kappa=0.03, mu=mu)
        spec = InterpolantSpec(kind, 0.2, GRID)
        cfg = twin_config(params=params, spec=spec, run_time=0.2, spinup_time=1.0)
        path = tmp_path / "obs.npz"
        live = run_twin(cfg, record_to=path)
        rec = ObservationRecord.load(path)
        assert rec.spec == spec and rec.dt == STEP.dt
        final, times, residuals = run_from_record(rec, params, spec, STEP)
        assert np.array_equal(
            final.velocity.u1.coeffs, live.assimilated_final.velocity.u1.coeffs
        )
        assert np.array_equal(
            final.velocity.u2.coeffs, live.assimilated_final.velocity.u2.coeffs
        )
        assert np.array_equal(
            final.temperature.coeffs, live.assimilated_final.temperature.coeffs
        )
        assert len(times) == len(residuals) == int(round(0.2 / STEP.dt))

    def test_mismatched_record_rejected(self, tmp_path):
        spec = InterpolantSpec(MODAL, 0.2, GRID)
        cfg = twin_config(run_time=0.02, spinup_time=0.0)
        path = tmp_path / "obs.npz"
        run_twin(cfg, record_to=path)
        rec = ObservationRecord.load(path)
        other = StepperConfig(dt=1e-3)
        with pytest.raises(ValueError, match="match"):
            run_from_record(rec, SUPER, spec, other)

    @pytest.mark.parametrize(
        "spoil,match",
        [
            (_garbage, "pickled"),
            (_first_half, "not a zip file"),
            (_undecodable_member, "invalid block type"),
            (_plain_array, "not an .npz archive"),
            (_stored("kind", "bogus"), "kind must be one of"),
            (_stored("h", -1.0), "h must be positive"),
            (_stored("nx", np.array([32, 16])), "arrays can be converted"),
            (_stored("dealias_fraction", 0.5), "unknown key dealias_fraction"),
            (_stored("dt", 0.0), "dt 0.0 is not positive"),
            (_stored("dt", -2e-3), "dt -0.002 is not positive"),
            (_stored("dt", np.nan), "dt nan is not positive"),
            (_first_entry("times", np.nan), "non-finite times"),
            (_first_entry("payload1", np.inf), "non-finite payload1"),
            (_first_entry("payload2", np.nan), "non-finite payload2"),
        ],
        ids=[
            "garbage", "first-half", "undecodable-member", "plain-array",
            "bogus-kind", "negative-h", "array-nx", "unknown-key",
            "zero-dt", "negative-dt", "nan-dt", "nan-time", "inf-payload1",
            "nan-payload2",
        ],
    )
    def test_malformed_record_file_refused_naming_it(self, tmp_path, spoil, match):
        path = tmp_path / "obs.npz"
        run_twin(twin_config(run_time=0.02, spinup_time=0.0), record_to=path)
        spoil(path)
        with pytest.raises(ValueError) as err:
            ObservationRecord.load(path)
        assert str(err.value).startswith(f"record {path}: ")
        assert match in str(err.value)

    def test_record_written_to_the_path_given(self, tmp_path):
        # without the ".npz" suffix, numpy would append one to a path
        params = PhysicalParams(nu=0.03, kappa=0.03, mu=20.0)
        spec = InterpolantSpec(VOLUME, 0.25, Grid(2.0, 16, 8))
        cfg = twin_config(params=params, spec=spec, run_time=0.02, spinup_time=0.1)
        path = tmp_path / "rec.bin"
        live = run_twin(cfg, record_to=path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rec.bin"]
        final, _, _ = run_from_record(ObservationRecord.load(path), params, spec, STEP)
        want = live.assimilated_final
        assert np.array_equal(final.velocity.u1.coeffs, want.velocity.u1.coeffs)
        assert np.array_equal(final.temperature.coeffs, want.temperature.coeffs)

    def test_missing_record_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ObservationRecord.load(tmp_path / "absent.npz")


    @pytest.mark.parametrize("kind", [MODAL, VOLUME, NODAL])
    def test_mu_zero_stream_is_recorded_and_replayed(self, tmp_path, kind):
        # every fed step is recorded whatever mu, so the unnudged copy's
        # replay takes every step too
        params = PhysicalParams(nu=0.03, kappa=0.03, mu=0.0)
        spec = InterpolantSpec(kind, 0.2, GRID)
        cfg = twin_config(
            params=params, spec=spec, run_time=0.04, spinup_time=0.5,
            v0_policy=CUSTOM,
        )
        v0 = random_solenoidal(GRID, np.random.default_rng(11))
        path = tmp_path / "obs.npz"
        live = run_twin(cfg, v0=v0, record_to=path)
        rec = ObservationRecord.load(path)
        assert len(rec.times) == int(round(0.04 / STEP.dt))
        final, _, residuals = run_from_record(rec, params, spec, STEP, v0=v0)
        assert len(residuals) == len(rec.times)
        got = (final.velocity.u1, final.velocity.u2, final.temperature)
        a = live.assimilated_final
        want = (a.velocity.u1, a.velocity.u2, a.temperature)
        for x, y in zip(got, want):
            assert np.array_equal(x.coeffs, y.coeffs)

    @pytest.mark.parametrize("kind", [MODAL, VOLUME, NODAL])
    def test_residuals_taken_at_the_data_time(self, tmp_path, kind):
        # A copy started on the truth stays on it, so the residual at the
        # data's own time vanishes: exactly for the explicit kinds (their
        # force is exactly zero), to round-off for the implicit modal form.
        # The wrong side of the step would see a whole step of motion.
        truth0, _ = spin_up(SUPER, GRID, STEP, 2.0, seed=3)
        params = PhysicalParams(nu=0.03, kappa=0.03, mu=30.0)
        spec = InterpolantSpec(kind, 0.25, GRID)
        cfg = twin_config(
            params=params, spec=spec, run_time=0.04, spinup_time=0.0,
            v0_policy=CUSTOM, eta0_policy=CUSTOM,
        )
        path = tmp_path / "obs.npz"
        run_twin(
            cfg, truth0=truth0, v0=truth0.velocity, eta0=truth0.temperature,
            record_to=path,
        )
        _, _, residuals = run_from_record(
            ObservationRecord.load(path), params, spec, STEP,
            v0=truth0.velocity, eta0=truth0.temperature,
        )
        assert len(residuals) == int(round(0.04 / STEP.dt))
        if kind == MODAL:
            assert residuals.max() <= 1e-14 * norm_h(truth0.velocity)
        else:
            assert np.all(residuals == 0.0)

    @pytest.mark.parametrize("kind", [MODAL, VOLUME])
    def test_malformed_record_refused_before_any_step(self, tmp_path, monkeypatch, kind):
        params = PhysicalParams(nu=0.03, kappa=0.03, mu=20.0)
        spec = InterpolantSpec(kind, 0.2, GRID)
        cfg = twin_config(params=params, spec=spec, run_time=0.02, spinup_time=0.0)
        path = tmp_path / "obs.npz"
        run_twin(cfg, record_to=path)
        rec = ObservationRecord.load(path)

        def no_step(*args, **kwargs):
            raise AssertionError("stepped before refusing the record")

        monkeypatch.setattr(assimilation, "step", no_step)
        short = dataclasses.replace(rec, payload1=rec.payload1[:-3])
        with pytest.raises(ValueError, match="payload1 has 7 rows for 10 times"):
            run_from_record(short, params, spec, STEP)
        narrow = dataclasses.replace(rec, payload2=rec.payload2[..., :-1])
        got, want = narrow.payload2.shape[1:], rec.payload2.shape[1:]
        with pytest.raises(ValueError) as err:
            run_from_record(narrow, params, spec, STEP)
        assert f"payload2 rows have shape {got}" in str(err.value)
        assert f"measure gives {want}" in str(err.value)
        if kind == MODAL:
            # a record in the full nx-row layout also holds the mirror rows
            # -n of the observed modes, so its rows are wider than measure's
            mask = modal_projection_mask(spec)
            c = np.zeros((len(rec.times),) + GRID.coeff_shape, dtype=complex)
            c[:, mask] = rec.payload1
            full = np.concatenate([c, np.conj(c[:, -2:0:-1])], axis=1)
            full_mask = np.concatenate([mask, mask[-2:0:-1]])
            wide = dataclasses.replace(rec, payload1=full[:, full_mask])
            assert wide.payload1.shape[1] > rec.payload1.shape[1]
            with pytest.raises(ValueError, match="payload1 rows have shape"):
                run_from_record(wide, params, spec, STEP)


class TestFitDecayRate:
    def make_series(self, t, energy):
        w = np.sqrt(energy)
        z = np.zeros_like(t)
        return ErrorSeries(t, w, w, z, z)

    def test_synthetic_exponential_recovered(self):
        t = np.linspace(0.0, 5.0, 101)
        s = self.make_series(t, np.exp(-2.0 * t))
        fit = fit_decay_rate(s, (0.0, 5.0))
        assert not fit.saturated
        assert abs(fit.rate - 2.0) < 1e-6
        assert fit.r_squared > 0.999999

    def test_constant_series_reports_zero_rate(self):
        t = np.linspace(0.0, 5.0, 50)
        s = self.make_series(t, np.full_like(t, 3.7))
        fit = fit_decay_rate(s, (0.0, 5.0))
        assert abs(fit.rate) < 1e-12

    def test_exact_zero_energy_means_saturation(self):
        t = np.linspace(0.0, 5.0, 50)
        e = np.exp(-2.0 * t)
        e[30:] = 0.0
        s = self.make_series(t, e)
        fit = fit_decay_rate(s, (0.0, 5.0))
        assert fit.saturated
        assert fit.rate is None

    def test_window_restricts_samples(self):
        t = np.linspace(0.0, 10.0, 201)
        e = np.where(t < 5.0, np.exp(-1.0 * t), np.exp(-5.0) * np.exp(-3.0 * (t - 5.0)))
        s = self.make_series(t, e)
        early = fit_decay_rate(s, (0.0, 4.9))
        late = fit_decay_rate(s, (5.1, 10.0))
        assert abs(early.rate - 1.0) < 1e-6
        assert abs(late.rate - 3.0) < 1e-6

    def test_too_few_samples_rejected(self):
        t = np.linspace(0.0, 5.0, 101)
        s = self.make_series(t, np.exp(-t))
        with pytest.raises(ValueError, match="at least 10"):
            fit_decay_rate(s, (0.0, 0.3))

    def test_empty_window_rejected(self):
        t = np.linspace(0.0, 5.0, 101)
        s = self.make_series(t, np.exp(-t))
        with pytest.raises(ValueError, match="positive length"):
            fit_decay_rate(s, (2.0, 2.0))


class TestTemperatureSlaving:
    def test_identical_inits_stay_identical(self):
        rng = np.random.default_rng(11)
        truth = State(
            random_solenoidal(GRID, rng, norm=0.5),
            random_scalar(GRID, rng, SIN, norm=0.5),
        )
        th = random_scalar(GRID, rng, SIN, norm=1.0)
        series = run_temperature_slaving(
            truth, SUPER, STEP, th, th, run_time=0.1
        )
        assert np.all(series.diff_sq == 0.0)

    def test_run_time_must_be_whole_steps(self):
        th = real_mode(GRID, SIN, 0, 1)
        with pytest.raises(ValueError, match="multiple"):
            run_temperature_slaving(
                State.zeros(GRID), SUPER, StepperConfig(dt=1e-3), th, th,
                run_time=0.0031,
            )

    def test_resting_carrier_decays_at_conduction_rate(self):
        # Gravest-mode gap with u = 0: the contract is an equality, and the
        # fitted rate must match 2 kappa pi^2 to the scheme's accuracy.
        params = PhysicalParams(nu=0.05, kappa=0.05, mu=0.0)
        ta = real_mode(GRID, SIN, 0, 1, amplitude=1.0)
        tb = SpectralField.zeros(GRID, SIN)
        series = run_temperature_slaving(
            State.zeros(GRID), params, STEP, ta, tb, run_time=0.5
        )
        target = 2.0 * params.kappa * np.pi**2
        slope = np.polyfit(series.times, np.log(series.diff_sq), 1)[0]
        assert abs(-slope / target - 1.0) < 1e-6
        margin = slaving_contract_margin(series, params.kappa, np.pi**2)
        assert margin <= 1.0 + 1e-12

    def test_turbulent_carrier_satisfies_contract(self):
        rng = np.random.default_rng(7)
        truth = State(
            random_solenoidal(GRID, rng, norm=0.5),
            random_scalar(GRID, rng, SIN, norm=0.5),
        )
        ta = random_scalar(GRID, rng, SIN, norm=1.0)
        tb = random_scalar(GRID, rng, SIN, norm=1.0)
        series = run_temperature_slaving(truth, SUPER, STEP, ta, tb, run_time=1.0)
        margin = slaving_contract_margin(series, SUPER.kappa, np.pi**2)
        assert margin <= 1.0 + 1e-10

    @pytest.mark.parametrize("seed", range(20))
    def test_margin_matches_the_pairwise_oracle(self, seed):
        # gaps that grow and shrink, with exact zeros at random samples
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        times = np.cumsum(rng.uniform(0.0, 0.05, n))
        gaps = np.exp(rng.normal(0.0, 3.0, n))
        gaps[rng.random(n) < 0.2] = 0.0
        series = SlavingSeries(times, gaps)
        kappa, lambda1 = rng.uniform(0.01, 0.1), np.pi**2
        want = pairwise_contract_margin(series, kappa, lambda1)
        got = slaving_contract_margin(series, kappa, lambda1)
        assert abs(got - want) <= 1e-12 * want

    def test_margin_of_all_zero_gaps_is_zero(self):
        series = SlavingSeries(np.arange(5.0), np.zeros(5))
        assert slaving_contract_margin(series, 0.03, np.pi**2) == 0.0
        assert pairwise_contract_margin(series, 0.03, np.pi**2) == 0.0

    def test_margin_memory_is_linear_in_the_samples(self):
        # the pairwise form peaks near 130 MB at 2,000 samples
        rng = np.random.default_rng(5)
        series = SlavingSeries(np.arange(2000) * 5e-3, np.exp(rng.normal(0.0, 1.0, 2000)))
        tracemalloc.start()
        try:
            slaving_contract_margin(series, 0.03, np.pi**2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_grid_mismatch_rejected(self):
        other = Grid(2.0, 16, 8)
        ta = SpectralField.zeros(other, SIN)
        with pytest.raises(ValueError, match="grid"):
            run_temperature_slaving(State.zeros(GRID), SUPER, STEP, ta, ta, 0.1)

    @pytest.mark.parametrize("cadence", [0, -2])
    def test_non_positive_cadence_rejected_before_stepping(self, cadence, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("stepped before rejecting the cadence")

        monkeypatch.setattr(stepping, "step", no_step)
        th = real_mode(GRID, SIN, 0, 1)
        with pytest.raises(ValueError, match="sample_cadence"):
            run_temperature_slaving(
                State.zeros(GRID), SUPER, STEP, th, th, 0.1, sample_cadence=cadence
            )
