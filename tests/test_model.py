"""Tests for the Boussinesq tendency terms.

The advection oracle is symbolic: sympy differentiates explicit
trigonometric mode products and the result is compared pointwise on the
collocation grid, which is exact because the product of low modes stays
inside the dealiasing band.  A second oracle is the convective form
(c.grad) f, products of synthesized derivative fields, which the package
computed before it took the divergence form; its derivatives and dealias
come from helpers.py, since the package keeps only the divergence.
"""

import numpy as np
import pytest
import sympy as sp

from benard_da import model
from benard_da.model import (
    PhysicalParams,
    State,
    advection_scalar,
    advection_velocity,
    explicit_rhs,
)
from benard_da.manufactured import rhs_truth
from benard_da.spectral import (
    Grid,
    SpectralField,
    VectorField,
    analyze,
    inner_h,
    leray_project,
    norm_h,
    norm_v,
    random_scalar,
    random_solenoidal,
    solenoidality_defect,
    synthesize,
)
from helpers import dealias, derivative_x, derivative_y, real_mode

L = 2.0


@pytest.fixture(scope="module")
def grid():
    return Grid(L, 32, 16)


@pytest.fixture(scope="module")
def params():
    return PhysicalParams(nu=0.5, kappa=0.25)


def _vector_from_stream(grid, psi_expr, x, y):
    """Exact spectral velocity from a symbolic streamfunction."""
    u1e = sp.diff(psi_expr, y)
    u2e = -sp.diff(psi_expr, x)
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    f1 = sp.lambdify((x, y), u1e, "numpy")
    f2 = sp.lambdify((x, y), u2e, "numpy")
    return VectorField(
        analyze(grid, np.broadcast_to(f1(X, Y), X.shape).copy(), "cos"),
        analyze(grid, np.broadcast_to(f2(X, Y), X.shape).copy(), "sin"),
    )


def _convective_velocity(c, a):
    """(c.grad) a from synthesized derivative fields: the convective form."""
    g = c.grid
    c1, dx1, dy2, c2, dy1, dx2 = synthesize(
        [
            c.u1,
            derivative_x(a.u1),
            derivative_y(a.u2),
            c.u2,
            derivative_y(a.u1),
            derivative_x(a.u2),
        ]
    )
    return VectorField(
        dealias(analyze(g, c1 * dx1 + c2 * dy1, "cos")),
        dealias(analyze(g, c1 * dx2 + c2 * dy2, "sin")),
    )


def _convective_scalar(c, f):
    c1, dyf, c2, dxf = synthesize([c.u1, derivative_y(f), c.u2, derivative_x(f)])
    return dealias(analyze(c.grid, c1 * dxf + c2 * dyf, "sin"))


def _coeffs(f):
    if isinstance(f, VectorField):
        return np.concatenate([f.u1.coeffs, f.u2.coeffs])
    return f.coeffs


class TestValidation:
    def test_params_positive(self):
        with pytest.raises(ValueError):
            PhysicalParams(nu=0.0, kappa=1.0)
        with pytest.raises(ValueError):
            PhysicalParams(nu=1.0, kappa=-1.0)
        with pytest.raises(ValueError):
            PhysicalParams(nu=1.0, kappa=1.0, mu=-2.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["nu", "kappa", "mu"])
    def test_params_finite(self, name, value):
        kw = dict(nu=1.0, kappa=1.0, mu=1.0)
        kw[name] = value
        with pytest.raises(ValueError, match=f"{name} must be"):
            PhysicalParams(**kw)

    def test_state_requires_sine_temperature(self, grid):
        with pytest.raises(ValueError):
            State(VectorField.zeros(grid), SpectralField.zeros(grid, "cos"))

    def test_state_requires_matching_grids(self, grid):
        other = Grid(L, 16, 8)
        with pytest.raises(ValueError):
            State(VectorField.zeros(grid), SpectralField.zeros(other, "sin"))

    def test_passengers_must_be_sine_fields_on_the_grid(self, grid):
        u, th = VectorField.zeros(grid), SpectralField.zeros(grid, "sin")
        with pytest.raises(ValueError, match="sine parity"):
            State(u, th, passengers=(th, SpectralField.zeros(grid, "cos")))
        with pytest.raises(ValueError, match="grids differ"):
            State(u, th, passengers=(SpectralField.zeros(Grid(L, 16, 8), "sin"),))
        assert State(u, th, passengers=[th]).passengers == (th,)

    def test_advection_requires_matching_grids(self, grid):
        other = Grid(L, 16, 8)
        rng = np.random.default_rng(0)
        u = random_solenoidal(grid, rng)
        th = random_scalar(other, rng, "sin")
        with pytest.raises(ValueError):
            advection_scalar(u, th)

    def test_advection_refuses_cosine_scalars(self, grid):
        # the divergence form's flux parities hold for sine scalars only
        rng = np.random.default_rng(0)
        u = random_solenoidal(grid, rng)
        th = random_scalar(grid, rng, "sin")
        c = random_scalar(grid, rng, "cos")
        with pytest.raises(ValueError, match="sine parity"):
            advection_scalar(u, c)
        with pytest.raises(ValueError, match="sine parity"):
            advection_scalar(u, [th, c])


class TestFixedPoint:
    def test_zero_state_is_fixed(self, grid, params):
        dv, dth = rhs_truth(State.zeros(grid), params)
        assert norm_h(dv) == 0.0
        assert norm_h(dth) == 0.0

    def test_horizontally_uniform_temperature_mode(self, grid, params):
        # theta = sin(pi y) has buoyancy that is a pure vertical gradient,
        # annihilated by the projection; only conduction acts on theta.
        th = real_mode(grid, "sin", 0, 1)
        s = State(VectorField.zeros(grid), th)
        dv, dth = rhs_truth(s, params)
        assert norm_h(dv) == 0.0
        expected = -params.kappa * np.pi**2 * th.coeffs
        assert np.abs(dth.coeffs - expected).max() < 1e-15

    def test_buoyancy_matches_per_mode_projector(self, grid):
        # Independent oracle: 2x2 orthogonal projector complementing the
        # gradient direction (i kx, ky) for one mode.  At u = 0 the velocity
        # tendency is the buoyancy P[theta e2] alone.
        n, m = 3, 2
        th = real_mode(grid, "sin", n, m, amplitude=0.7)
        b, _ = explicit_rhs(State(VectorField.zeros(grid), th))
        # Pressure modes have cosine parity in y, so the gradient's second
        # component carries -ky.
        ky = grid.ky[m]
        g = np.array([[1j * grid.kx[n]], [-ky]])
        P = np.eye(2) - g @ np.linalg.pinv(g)
        vec = np.array([0.0, th.coeffs[n, m]])
        want = P @ vec
        got = np.array([b.u1.coeffs[n, m], b.u2.coeffs[n, m]])
        assert np.abs(got - want).max() < 1e-15
        assert solenoidality_defect(b) < 1e-13


class TestAdvectionOracle:
    def test_velocity_advection_symbolic(self, grid):
        x, y = sp.symbols("x y", real=True)
        k = 2 * sp.pi / L
        psi_u = sp.sin(k * x) * sp.sin(sp.pi * y)
        psi_v = sp.cos(k * x) * sp.sin(2 * sp.pi * y)
        u = _vector_from_stream(grid, psi_u, x, y)
        v = _vector_from_stream(grid, psi_v, x, y)

        u1e, u2e = sp.diff(psi_u, y), -sp.diff(psi_u, x)
        v1e, v2e = sp.diff(psi_v, y), -sp.diff(psi_v, x)
        w1e = u1e * sp.diff(v1e, x) + u2e * sp.diff(v1e, y)
        w2e = u1e * sp.diff(v2e, x) + u2e * sp.diff(v2e, y)
        X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
        want1 = sp.lambdify((x, y), w1e, "numpy")(X, Y)
        want2 = sp.lambdify((x, y), w2e, "numpy")(X, Y)

        w = advection_velocity(u, v)
        got1 = synthesize(w.u1)
        got2 = synthesize(w.u2)
        scale = max(np.abs(want1).max(), np.abs(want2).max())
        assert np.abs(got1 - want1).max() < 1e-13 * scale
        assert np.abs(got2 - want2).max() < 1e-13 * scale

    def test_scalar_advection_symbolic(self, grid):
        x, y = sp.symbols("x y", real=True)
        k = 2 * sp.pi / L
        psi_u = sp.sin(k * x) * sp.sin(sp.pi * y)
        the = sp.cos(k * x) * sp.sin(sp.pi * y)
        u = _vector_from_stream(grid, psi_u, x, y)
        X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
        th = analyze(grid, sp.lambdify((x, y), the, "numpy")(X, Y), "sin")

        u1e, u2e = sp.diff(psi_u, y), -sp.diff(psi_u, x)
        we = u1e * sp.diff(the, x) + u2e * sp.diff(the, y)
        want = sp.lambdify((x, y), we, "numpy")(X, Y)

        got = synthesize(advection_scalar(u, th))
        scale = np.abs(want).max()
        assert np.abs(got - want).max() < 1e-13 * scale

    def test_zero_carrier_gives_zero(self, grid):
        rng = np.random.default_rng(1)
        th = random_scalar(grid, rng, "sin")
        v = random_solenoidal(grid, rng)
        z = VectorField.zeros(grid)
        assert norm_h(advection_scalar(z, th)) == 0.0
        assert norm_h(advection_velocity(z, v)) == 0.0


class TestDivergenceForm:
    @pytest.mark.parametrize("nx, ny", [(16, 8), (64, 32), (128, 64)])
    def test_matches_convective_form(self, nx, ny):
        # for a solenoidal dealiased carrier the 2/3 rule makes the retained
        # band alias-free, so both forms agree to round-off
        g = Grid(L, nx, ny)
        rng = np.random.default_rng(nx)
        u = random_solenoidal(g, rng, norm=1.3)
        v = random_solenoidal(g, rng, norm=0.7)
        th1, th2 = (random_scalar(g, rng, "sin", norm=0.9) for _ in range(2))
        a1, a2 = advection_scalar(u, [th1, th2])
        pairs = [
            (advection_velocity(u, v), _convective_velocity(u, v)),
            (advection_velocity(u, u), _convective_velocity(u, u)),
            (a1, _convective_scalar(u, th1)),
            (a2, _convective_scalar(u, th2)),
        ]
        for got, want in pairs:
            scale = np.abs(_coeffs(want)).max()
            assert np.abs(_coeffs(got) - _coeffs(want)).max() <= 1e-13 * scale

    @pytest.mark.parametrize("nx, ny", [(16, 8), (128, 64)])
    def test_self_advection_has_the_bits_of_the_general_path(self, nx, ny):
        g = Grid(L, nx, ny)
        u = random_solenoidal(g, np.random.default_rng(3))
        same = advection_velocity(u, u)
        copy = advection_velocity(u, VectorField(u.u1 * 1.0, u.u2 * 1.0))
        assert same.u1.coeffs.tobytes() == copy.u1.coeffs.tobytes()
        assert same.u2.coeffs.tobytes() == copy.u2.coeffs.tobytes()

    def test_transform_budget_of_a_step(self, grid, params, monkeypatch):
        # a passenger-free step synthesizes u1, u2 (velocity term) and
        # u1, u2, theta (scalar term), and analyzes u1^2, u2^2, u1 u2 and
        # u1 theta, u2 theta; explicit_rhs keeps both public terms on its path
        from benard_da.stepping import StepperConfig, step

        counts = dict.fromkeys(
            ("synthesize", "analyze", "advection_velocity", "advection_scalar"), 0
        )
        # fields per transform call, 1 per advection call
        sizes = {"synthesize": len, "analyze": lambda grid, values, parity: len(values)}

        def counted(name):
            fn, size = getattr(model, name), sizes.get(name, lambda *args: 1)

            def wrapper(*args):
                counts[name] += size(*args)
                return fn(*args)

            return wrapper

        for name in counts:
            monkeypatch.setattr(model, name, counted(name))
        rng = np.random.default_rng(8)
        s = State(random_solenoidal(grid, rng), random_scalar(grid, rng, "sin"))
        step(s, params, StepperConfig(dt=1e-3))
        assert counts == {
            "synthesize": 5,
            "analyze": 5,
            "advection_velocity": 1,
            "advection_scalar": 1,
        }


class TestDivergenceConvention:
    @pytest.mark.parametrize("parity", ["cos", "sin"])
    @pytest.mark.parametrize("nx, ny", [(16, 8), (64, 32), (128, 64)])
    def test_each_term_is_the_dealiased_derivative(self, nx, ny, parity):
        # _divergence is the package's one derivative: each of its terms
        # alone gives the test-side d/dx and d/dy, on full-band input; the
        # bytes may differ in the sign of zero, so values are compared
        g = Grid(L, nx, ny)
        rng = np.random.default_rng(nx + ny)
        c = rng.standard_normal(g.coeff_shape) + 1j * rng.standard_normal(g.coeff_shape)
        f = SpectralField(g, parity, c)
        zeros = SpectralField.zeros(g, "sin" if parity == "cos" else "cos")
        pairs = [
            (model._divergence(f, zeros), dealias(derivative_x(f))),
            (model._divergence(zeros, f), dealias(derivative_y(f))),
        ]
        for got, want in pairs:
            assert got.parity == want.parity
            assert np.array_equal(got.coeffs, want.coeffs)


class TestScalarBatch:
    def test_sequence_equals_one_by_one(self, grid):
        # one synthesis of the carrier and one analysis for all scalars give
        # the bits of one call per scalar
        rng = np.random.default_rng(21)
        u = random_solenoidal(grid, rng)
        scalars = [random_scalar(grid, rng, "sin") for _ in range(3)]
        batch = advection_scalar(u, scalars)
        assert isinstance(batch, list) and len(batch) == 3
        for f, a in zip(scalars, batch):
            assert a.coeffs.tobytes() == advection_scalar(u, f).coeffs.tobytes()
        assert advection_scalar(u, scalars[:1])[0].coeffs.tobytes() == (
            advection_scalar(u, scalars[0]).coeffs.tobytes()
        )


class TestOrthogonality:
    def test_velocity_advection_orthogonal(self, grid):
        rng = np.random.default_rng(42)
        for _ in range(5):
            u = random_solenoidal(grid, rng, norm=1.5)
            v = random_solenoidal(grid, rng, norm=0.8)
            w = advection_velocity(u, v)
            val = inner_h(w.u1, v.u1) + inner_h(w.u2, v.u2)
            scale = norm_h(u) * norm_v(v) * norm_h(v)
            assert abs(val) < 1e-12 * max(scale, 1.0)

    def test_scalar_advection_orthogonal(self, grid):
        rng = np.random.default_rng(43)
        for _ in range(5):
            u = random_solenoidal(grid, rng, norm=1.5)
            th = random_scalar(grid, rng, "sin", norm=0.9)
            val = inner_h(advection_scalar(u, th), th)
            scale = norm_h(u) * norm_v(th) * norm_h(th)
            assert abs(val) < 1e-12 * max(scale, 1.0)

    def test_scalar_advection_antisymmetric(self, grid):
        # (B(u, a), b) = -(B(u, b), a) for divergence-free u.
        rng = np.random.default_rng(44)
        u = random_solenoidal(grid, rng)
        a = random_scalar(grid, rng, "sin")
        b = random_scalar(grid, rng, "sin")
        lhs = inner_h(advection_scalar(u, a), b)
        rhs = -inner_h(advection_scalar(u, b), a)
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)

    def test_buoyancy_source_adjoint(self, grid):
        # (P(theta e2), w) = (theta, w2) for solenoidal w; at u = 0 the
        # velocity tendency is P(theta e2) alone.
        rng = np.random.default_rng(45)
        th = random_scalar(grid, rng, "sin")
        w = random_solenoidal(grid, rng)
        b, _ = explicit_rhs(State(VectorField.zeros(grid), th))
        lhs = inner_h(b.u1, w.u1) + inner_h(b.u2, w.u2)
        rhs = inner_h(th, w.u2)
        assert abs(lhs - rhs) < 1e-12 * max(abs(rhs), 1.0)


class TestTendencyStructure:
    def test_tendency_solenoidal_and_banded(self, grid, params):
        rng = np.random.default_rng(5)
        s = State(
            random_solenoidal(grid, rng, norm=1.2),
            random_scalar(grid, rng, "sin", norm=0.7),
        )
        dv, dth = rhs_truth(s, params)
        assert solenoidality_defect(dv) < 1e-12
        outside = ~grid.dealias_mask
        assert np.abs(dv.u1.coeffs[outside]).max() == 0.0
        assert np.abs(dv.u2.coeffs[outside]).max() == 0.0
        assert np.abs(dth.coeffs[outside]).max() == 0.0

    def test_forcing_is_added(self, grid):
        rng = np.random.default_rng(6)
        s = State(
            random_solenoidal(grid, rng, norm=0.5),
            random_scalar(grid, rng, "sin", norm=0.5),
        )
        fv = random_solenoidal(grid, rng, norm=0.3)
        fth = random_scalar(grid, rng, "sin", norm=0.3)

        def forcing(t):
            return fv, fth

        d0v, d0t = explicit_rhs(s)
        d1v, d1t = explicit_rhs(s, forcing)
        assert np.abs((d1v.u1.coeffs - d0v.u1.coeffs) - fv.u1.coeffs).max() < 1e-14
        assert np.abs((d1v.u2.coeffs - d0v.u2.coeffs) - fv.u2.coeffs).max() < 1e-14
        assert np.abs((d1t.coeffs - d0t.coeffs) - fth.coeffs).max() < 1e-14


class TestEnergyLaw:
    def test_energy_derivative_matches_trajectory(self, grid, params):
        # d/dt (|u|^2 + |theta|^2)/2 = -nu |u|_V^2 - kappa |theta|_V^2
        # + 2 (theta, u2), checked by central-differencing the stepped
        # trajectory against the formula at the middle state.
        from benard_da.stepping import StepperConfig, step

        rng = np.random.default_rng(7)
        # smoother than the package's random fields: envelope exp(-lam / 9)
        envelope = np.exp(-grid.lam / 9.0) * grid.dealias_mask

        def smooth(parity, norm):
            f = analyze(grid, rng.standard_normal(grid.shape), parity) * envelope
            return f * (norm / norm_h(f))

        u = leray_project(VectorField(smooth("cos", 1.0), smooth("sin", 1.0)))
        s = State(u * (1.0 / norm_h(u)), smooth("sin", 0.6))
        cfg = StepperConfig(dt=1e-4)
        hist = None
        states = [s]
        for _ in range(6):
            s, hist = step(s, params, cfg, history=hist)
            states.append(s)

        def energy(st):
            return 0.5 * (norm_h(st.velocity) ** 2 + norm_h(st.temperature) ** 2)

        a, b, c = states[3], states[4], states[5]
        lhs = (energy(c) - energy(a)) / (c.time - a.time)
        rhs = (
            -params.nu * norm_v(b.velocity) ** 2
            - params.kappa * norm_v(b.temperature) ** 2
            + 2.0 * inner_h(b.temperature, b.velocity.u2)
        )
        assert abs(lhs - rhs) < 1e-6 * max(abs(rhs), 1.0)
