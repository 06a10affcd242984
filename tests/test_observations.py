"""Tests for the coarse observation operators.

The volume-averaging oracle integrates the trigonometric test field
symbolically over each cell; nodal sampling is checked against direct
evaluation of the closed-form field at cell centers.
"""

import numpy as np
import pytest
import sympy as sp

from benard_da import observations
from benard_da.observations import (
    MODAL,
    NODAL,
    VOLUME,
    InterpolantSpec,
    approximation_samples,
    cell_partition,
    estimate_approximation_constant,
    interpolate,
    measure,
    modal_projection_mask,
    observe,
)
from benard_da.spectral import (
    COS,
    SIN,
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
)

L = 2.0


@pytest.fixture(scope="module")
def grid():
    return Grid(L, 32, 16)


def _difference(w, o):
    g = w.grid
    return VectorField(
        SpectralField(g, "cos", w.u1.coeffs - o.u1.coeffs),
        SpectralField(g, "sin", w.u2.coeffs - o.u2.coeffs),
    )


class TestSpecValidation:
    def test_bad_kind(self, grid):
        with pytest.raises(ValueError):
            InterpolantSpec("fourier", 0.25, grid)

    def test_h_bounds(self, grid):
        with pytest.raises(ValueError):
            InterpolantSpec(MODAL, 0.0, grid)
        with pytest.raises(ValueError):
            InterpolantSpec(MODAL, 1.5, grid)
        InterpolantSpec(MODAL, 1.0, grid)

    @pytest.mark.parametrize("kind", [VOLUME, NODAL])
    def test_cells_no_finer_than_grid(self, kind):
        # ceil(L/h) <= nx and ceil(1/h) <= ny; the tight case is the bound
        g = Grid(2.0, 16, 8)
        InterpolantSpec(kind, 0.125, g)
        for h, grid in ((0.1, g), (0.1, Grid(0.5, 16, 8)), (1e-300, g)):
            with pytest.raises(ValueError, match=f"{kind} h={h} is finer than the 16x8"):
                InterpolantSpec(kind, h, grid)
        InterpolantSpec(MODAL, 1e-300, g)

    def test_scalar_fields_are_refused(self, grid):
        rng = np.random.default_rng(0)
        th = random_scalar(grid, rng, "sin")
        spec = InterpolantSpec(MODAL, 0.25, grid)
        with pytest.raises(TypeError):
            observe(th, spec)

    def test_grid_mismatch(self, grid):
        other = Grid(L, 16, 8)
        rng = np.random.default_rng(0)
        w = random_solenoidal(other, rng)
        with pytest.raises(ValueError):
            observe(w, InterpolantSpec(MODAL, 0.25, grid))


class TestMeasureInterpolate:
    @pytest.mark.parametrize("kind", [MODAL, VOLUME, NODAL])
    def test_data_is_finite_dimensional(self, grid, kind):
        w = random_solenoidal(grid, np.random.default_rng(8))
        spec = InterpolantSpec(kind, 0.25, grid)
        d1, d2 = measure(w, spec)
        if kind == MODAL:
            mask = modal_projection_mask(spec)
            assert d1.shape == d2.shape == (mask.sum(),)
            assert np.array_equal(d1, w.u1.coeffs[mask])
        else:
            xe, ye = cell_partition(spec)
            assert d1.shape == d2.shape == (len(xe) - 1, len(ye) - 1)
            assert d1.dtype == d2.dtype == np.float64

    def test_modal_mask_is_cached_and_read_only(self, grid):
        spec = InterpolantSpec(MODAL, 0.25, grid)
        mask = modal_projection_mask(spec)
        assert modal_projection_mask(InterpolantSpec(MODAL, 0.25, grid)) is mask
        with pytest.raises(ValueError):
            mask[0, 0] = False


class TestCachedTables:
    """measure and interpolate run on per-spec tables; they must give what
    the closed-form cell operators give when applied literally."""

    @pytest.mark.parametrize("kind", [VOLUME, NODAL])
    @pytest.mark.parametrize("shape", [(16, 8), (64, 32)], ids=["16x8", "64x32"])
    def test_products_match_the_literal_formulas(self, kind, shape):
        g = Grid(L, *shape)
        spec = InterpolantSpec(kind, 0.25, g)
        ix, iyc, iys, ex, eyc, eys, dx, dy = observations._cell_operators(spec)
        rng = np.random.default_rng(4)
        u = VectorField(random_scalar(g, rng, COS), random_scalar(g, rng, SIN))
        w = g.multiplicity
        data = measure(u, spec)
        got = interpolate(data, spec)
        for f, d, iy, ey, field in (
            (u.u1, data[0], iyc, eyc, got.u1),
            (u.u2, data[1], iys, eys, got.u2),
        ):
            if kind == VOLUME:
                want = (ix / dx * w) @ f.coeffs @ (iy / dy).T
            else:
                want = (ex * w) @ f.coeffs @ ey.T
            # the measurement keeps the literal order: bit for bit
            assert d.tobytes() == want.real.tobytes()
            # the expansion folds 1/weight into its y table and runs on the
            # dealiased band, so it differs at round-off
            want = np.where(g.dealias_mask, (ix.conj().T @ d @ iy) / g.weight[None, :], 0.0)
            want = SpectralField(g, f.parity, want).coeffs
            assert np.abs(field.coeffs - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("kind", [VOLUME, NODAL])
    def test_tables_are_read_only(self, grid, kind):
        spec = InterpolantSpec(kind, 0.25, grid)
        arrays = list(observations._tables(spec).values())
        arrays += [a for a in observations._cell_operators(spec) if isinstance(a, np.ndarray)]
        assert len(arrays) == 12
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = a[0, 0]


class TestLinearity:
    @pytest.mark.parametrize("kind", [MODAL, VOLUME, NODAL])
    def test_linear(self, grid, kind):
        rng = np.random.default_rng(1)
        f = random_solenoidal(grid, rng)
        g2 = random_solenoidal(grid, rng)
        spec = InterpolantSpec(kind, 0.25, grid)
        a, b = 2.5, -1.25
        comb = VectorField(
            SpectralField(grid, "cos", a * f.u1.coeffs + b * g2.u1.coeffs),
            SpectralField(grid, "sin", a * f.u2.coeffs + b * g2.u2.coeffs),
        )
        lhs = observe(comb, spec)
        of, og = observe(f, spec), observe(g2, spec)
        want1 = a * of.u1.coeffs + b * og.u1.coeffs
        want2 = a * of.u2.coeffs + b * og.u2.coeffs
        scale = max(np.abs(want1).max(), np.abs(want2).max(), 1e-30)
        assert np.abs(lhs.u1.coeffs - want1).max() < 1e-13 * scale
        assert np.abs(lhs.u2.coeffs - want2).max() < 1e-13 * scale


class TestModal:
    def test_idempotent_and_self_adjoint(self, grid):
        rng = np.random.default_rng(2)
        f = random_solenoidal(grid, rng)
        g2 = random_solenoidal(grid, rng)
        spec = InterpolantSpec(MODAL, 0.25, grid)
        once = observe(f, spec)
        twice = observe(once, spec)
        assert np.array_equal(once.u1.coeffs, twice.u1.coeffs)
        assert np.array_equal(once.u2.coeffs, twice.u2.coeffs)
        og = observe(g2, spec)
        lhs = inner_h(once.u1, g2.u1) + inner_h(once.u2, g2.u2)
        rhs = inner_h(f.u1, og.u1) + inner_h(f.u2, og.u2)
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("nx, ny", [(16, 8), (64, 32), (128, 64)])
    def test_mask_is_the_disc_of_radius_one_over_h(self, nx, ny):
        # the mask reads the grid's lam, with the bits of kx^2 + ky^2
        g = Grid(L, nx, ny)
        k2 = g.kx[:, None] ** 2 + g.ky[None, :] ** 2
        for h in (0.05, 0.2, 0.4, 1.0):
            mask = modal_projection_mask(InterpolantSpec(MODAL, h, g))
            assert np.array_equal(mask, k2 <= (1.0 / h) ** 2)

    def test_spacing_too_fine_to_square_keeps_every_mode(self, grid):
        # (1/h)**2 overflows; the mask is the whole spectrum, not an error
        assert modal_projection_mask(InterpolantSpec(MODAL, 1e-300, grid)).all()

    def test_identity_when_band_fully_observed(self, grid):
        kmax = float(np.sqrt(grid.lam[grid.dealias_mask].max()))
        spec = InterpolantSpec(MODAL, 0.9 / kmax, grid)
        assert modal_projection_mask(spec)[grid.dealias_mask].all()
        rng = np.random.default_rng(3)
        f = random_solenoidal(grid, rng)
        o = observe(f, spec)
        assert np.array_equal(o.u1.coeffs, f.u1.coeffs)
        assert np.array_equal(o.u2.coeffs, f.u2.coeffs)
        assert estimate_approximation_constant(spec, 5) == 0.0

    def test_error_monotone_in_h(self, grid):
        rng = np.random.default_rng(4)
        f = random_solenoidal(grid, rng)
        errs = []
        for h in (0.5, 0.25, 0.125, 0.0625):
            o = observe(f, InterpolantSpec(MODAL, h, grid))
            errs.append(norm_h(_difference(f, o)))
        assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))

    def test_ratio_bounded_by_one(self, grid):
        # Discarded modes have |k| > 1/h, so the projection error is
        # always within h |w|_V: the empirical constant cannot exceed 1.
        for h in (0.5, 0.25, 0.1):
            c0 = estimate_approximation_constant(
                InterpolantSpec(MODAL, h, grid), 50, rng=np.random.default_rng(5)
            )
            assert c0 <= 1.0 + 1e-12


class TestVolume:
    def test_constant_field_unchanged(self, grid):
        c = np.zeros(grid.coeff_shape, dtype=complex)
        c[0, 0] = 3.7
        u = VectorField(SpectralField(grid, "cos", c), SpectralField.zeros(grid, "sin"))
        o = observe(u, InterpolantSpec(VOLUME, 0.25, grid))
        assert np.abs(o.u1.coeffs - u.u1.coeffs).max() < 1e-14
        assert np.abs(o.u2.coeffs).max() == 0.0

    def test_cell_averages_match_symbolic_integrals(self, grid):
        x, y = sp.symbols("x y", real=True)
        expr = sp.sin(2 * sp.pi * x / L) * sp.sin(sp.pi * y)
        X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
        f = analyze(grid, sp.lambdify((x, y), expr, "numpy")(X, Y), "sin")
        spec = InterpolantSpec(VOLUME, 0.5, grid)
        got = measure(VectorField(SpectralField.zeros(grid, "cos"), f), spec)[1]
        xe, ye = cell_partition(spec)
        for i in range(len(xe) - 1):
            for j in range(len(ye) - 1):
                cell = sp.integrate(
                    sp.integrate(expr, (x, xe[i], xe[i + 1])), (y, ye[j], ye[j + 1])
                )
                want = float(cell) / ((xe[i + 1] - xe[i]) * (ye[j + 1] - ye[j]))
                assert abs(got[i, j] - want) < 1e-13

    def test_partition_cell_side_at_most_h(self, grid):
        for h in (0.3, 0.25, 0.17):
            xe, ye = cell_partition(InterpolantSpec(VOLUME, h, grid))
            assert xe[1] - xe[0] <= h + 1e-12
            assert ye[1] - ye[0] <= h + 1e-12

    def test_estimate_stabilizes_under_refinement(self):
        g = Grid(L, 64, 32)
        vals = [
            estimate_approximation_constant(
                InterpolantSpec(VOLUME, h, g), 48, rng=np.random.default_rng(123)
            )
            for h in (0.25, 0.125, 0.0625)
        ]
        assert (max(vals) - min(vals)) / min(vals) <= 0.2


class TestNodal:
    def test_samples_are_exact_synthesis(self, grid):
        x, y = sp.symbols("x y", real=True)
        expr = sp.cos(2 * sp.pi * x / L) * sp.cos(2 * sp.pi * y)
        X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
        f = analyze(grid, sp.lambdify((x, y), expr, "numpy")(X, Y), "cos")
        spec = InterpolantSpec(NODAL, 0.25, grid)
        got = measure(VectorField(f, SpectralField.zeros(grid, "sin")), spec)[0]
        xe, ye = cell_partition(spec)
        xc = 0.5 * (xe[:-1] + xe[1:])
        yc = 0.5 * (ye[:-1] + ye[1:])
        XC, YC = np.meshgrid(xc, yc, indexing="ij")
        want = sp.lambdify((x, y), expr, "numpy")(XC, YC)
        assert np.abs(got - want).max() < 1e-13

    def test_two_term_bound_holds_with_reported_constant(self, grid):
        spec = InterpolantSpec(NODAL, 0.25, grid)
        seed = 6
        c0 = estimate_approximation_constant(spec, 30, rng=np.random.default_rng(seed))
        from benard_da.spectral import norm_laplacian

        for w in approximation_samples(spec, 30, np.random.default_rng(seed)):
            o = observe(w, spec)
            err = norm_h(leray_project(_difference(w, o)))
            bound = (
                0.5 * c0**2 * spec.h**2 * norm_v(w) ** 2
                + 0.25 * c0**4 * spec.h**4 * norm_laplacian(w) ** 2
            )
            assert err**2 <= bound * (1.0 + 1e-10) + 1e-30


class TestApproximationBound:
    @pytest.mark.parametrize("kind", [MODAL, VOLUME])
    def test_one_term_bound_holds_with_reported_constant(self, grid, kind):
        spec = InterpolantSpec(kind, 0.25, grid)
        seed = 7
        c0 = estimate_approximation_constant(spec, 40, rng=np.random.default_rng(seed))
        # Replaying the same generator gives the same sample family, on
        # which the reported constant holds by construction.
        for w in approximation_samples(spec, 40, np.random.default_rng(seed)):
            o = observe(w, spec)
            err = norm_h(leray_project(_difference(w, o)))
            assert err <= c0 * spec.h * norm_v(w) * (1.0 + 1e-12) + 1e-30
