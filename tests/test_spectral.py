"""Tests for the spectral basis: transforms, the test-side derivatives of
helpers.py, projection, eigenvalues."""

import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from benard_da import spectral as sp
from helpers import derivative_x, derivative_y, real_mode

# 8th-order central difference weights for offsets 1..4 (independent oracle)
C8 = np.array([4 / 5, -1 / 5, 4 / 105, -1 / 280])


def fd_derivative_x(vals: np.ndarray, dx: float) -> np.ndarray:
    out = np.zeros_like(vals)
    for j, c in enumerate(C8, start=1):
        out += c * (np.roll(vals, -j, axis=0) - np.roll(vals, j, axis=0))
    return out / dx


def fd_derivative_y(vals: np.ndarray, parity: str, dy: float) -> np.ndarray:
    # extend by parity reflection about both walls, then difference
    s = 1.0 if parity == "cos" else -1.0
    ext = np.concatenate([s * vals[:, 4:0:-1], vals, s * vals[:, -2:-6:-1]], axis=1)
    ny1 = vals.shape[1]
    out = np.zeros_like(vals)
    for j, c in enumerate(C8, start=1):
        out += c * (ext[:, 4 + j : 4 + j + ny1] - ext[:, 4 - j : 4 - j + ny1])
    return out / dy


class TestGrid:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            sp.Grid(L=1.0, nx=24, ny=16)
        with pytest.raises(ValueError):
            sp.Grid(L=1.0, nx=32, ny=4)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            sp.Grid(L=0.0, nx=16, ny=16)

    @pytest.mark.parametrize("key", ["nx", "ny"])
    @pytest.mark.parametrize("n", [2**32, 2**64])
    def test_rejects_size_beyond_checkpoint_header(self, key, n):
        # the checkpoint stores nx and ny as uint32; no array is allocated
        sizes = {"nx": 8, "ny": 8, key: n}
        with pytest.raises(ValueError, match=rf"{key} must be a power of two in \[8, 2\*\*31\]"):
            sp.Grid(L=2.0, **sizes)

    @pytest.mark.parametrize("length", [1e-300, 5e-324])
    def test_rejects_length_whose_eigenvalues_overflow(self, length):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"L={length} is too small"):
                sp.Grid(L=length, nx=8, ny=8)
            assert np.isfinite(sp.Grid(L=1e-150, nx=8, ny=8).lam).all()

    def test_wavenumber_conventions(self):
        g = sp.Grid(L=2.0, nx=16, ny=8)
        assert g.coeff_shape == (9, 9) and g.shape == (16, 9)
        assert g.kx[1] == pytest.approx(2 * np.pi / g.L)
        assert g.kx[-1] == pytest.approx(np.pi * g.nx / g.L)  # Nyquist row
        assert g.ky[3] == pytest.approx(3 * np.pi)
        assert g.multiplicity.tolist() == [1.0] + [2.0] * 7 + [1.0]

    def test_dealias_band_avoids_power_of_two_collisions(self):
        # products of retained modes must alias outside the retained band
        g = sp.Grid(L=1.0, nx=64, ny=32)
        ncut = np.flatnonzero(g.dealias_mask[:, 0]).max()
        mcut = np.flatnonzero(g.dealias_mask[0]).max()
        assert 3 * ncut < g.nx
        assert 3 * mcut < 2 * g.ny

    @pytest.mark.parametrize("n", [2**k for k in range(3, 13)])
    def test_dealias_mask_is_the_integer_two_thirds_rule(self, n):
        # the mask is a product of a row and a column band, so each axis is
        # swept against the smallest partner: rows |n| <= nx // 3 and
        # columns m <= 2 ny // 3, the same as floor(2/3 nx / 2) and
        # floor(2/3 ny)
        for g in (sp.Grid(L=2.0, nx=n, ny=8), sp.Grid(L=2.0, nx=8, ny=n)):
            rows = np.arange(g.nx // 2 + 1) <= g.nx // 3
            cols = np.arange(g.ny + 1) <= 2 * g.ny // 3
            assert np.array_equal(g.dealias_mask, rows[:, None] & cols[None, :])
            assert rows.sum() - 1 == int(np.floor(2.0 / 3.0 * g.nx / 2))
            assert cols.sum() - 1 == int(np.floor(2.0 / 3.0 * g.ny))

    @pytest.mark.parametrize("nx, ny", [(16, 8), (64, 32), (128, 64)])
    def test_dealias_mask_has_the_bytes_of_the_float_rule(self, nx, ny):
        g = sp.Grid(L=2.0, nx=nx, ny=ny)
        ncut = int(np.floor(2.0 / 3.0 * nx / 2))
        mcut = int(np.floor(2.0 / 3.0 * ny))
        want = (np.arange(nx // 2 + 1)[:, None] <= ncut) & (np.arange(ny + 1) <= mcut)
        assert g.dealias_mask.tobytes() == want.tobytes()


class TestTransforms:
    def test_pure_sine_mode_is_single_coefficient(self):
        """f = sin(pi y) lands on (n=0, m=1) with unit amplitude."""
        g = sp.Grid(L=2.0, nx=16, ny=16)
        vals = np.broadcast_to(np.sin(np.pi * g.y), g.shape).copy()
        f = sp.analyze(g, vals, sp.SIN)
        expected = np.zeros(g.coeff_shape, dtype=complex)
        expected[0, 1] = 1.0
        assert np.abs(f.coeffs - expected).max() < 1e-13

    def test_zero_field(self):
        g = sp.Grid(L=1.0, nx=16, ny=8)
        f = sp.analyze(g, np.zeros(g.shape), sp.COS)
        assert np.abs(f.coeffs).max() == 0.0

    @pytest.mark.parametrize("parity", [sp.COS, sp.SIN])
    def test_round_trip_random_field(self, parity):
        g = sp.Grid(L=3.0, nx=32, ny=16)
        rng = np.random.default_rng(7)
        vals = rng.standard_normal(g.shape)
        if parity == sp.SIN:
            vals[:, 0] = 0.0
            vals[:, -1] = 0.0
        back = sp.synthesize(sp.analyze(g, vals, parity))
        assert np.abs(back - vals).max() < 1e-12 * max(1.0, np.abs(vals).max())

    def test_dimension_mismatch_rejected(self):
        g = sp.Grid(L=1.0, nx=16, ny=8)
        with pytest.raises(ValueError):
            sp.analyze(g, np.zeros((16, 8)), sp.COS)

    def test_synthesis_is_plain_sum(self):
        """Normalization contract: coefficients are literal mode amplitudes."""
        g = sp.Grid(L=2.0, nx=32, ny=16)
        f = real_mode(g, sp.COS, 3, 2, amplitude=1.7, phase=0.3)
        X, Y = np.meshgrid(g.x, g.y, indexing="ij")
        exact = 1.7 * np.cos(2 * np.pi * 3 * X / g.L + 0.3) * np.cos(2 * np.pi * Y)
        assert np.abs(sp.synthesize(f) - exact).max() < 1e-12

    def test_reality_symmetry_of_analyzed_fields(self):
        # analysis keeps the rows of a real FFT: the self-conjugate rows
        # n = 0 and nx/2 come out exactly real, the others as they are
        g = sp.Grid(L=1.0, nx=32, ny=16)
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(g.shape)
        f = sp.analyze(g, vals, sp.COS)
        assert f.coeffs.shape == g.coeff_shape
        assert np.abs(f.coeffs[1:-1].imag).max() > 0.0
        for q in [f] + sp.analyze(g, rng.standard_normal((2,) + g.shape), sp.SIN):
            assert not q.coeffs[0].imag.any()
            assert not q.coeffs[-1].imag.any()


class TestDenseOracle:
    """synthesize() against the literal double sum over the full spectrum,
    and analyze() as its inverse, on fields that fill every carried mode."""

    @staticmethod
    def direct_sum(f):
        g = f.grid
        basis = np.cos if f.parity == sp.COS else np.sin
        out = np.zeros(g.shape, dtype=complex)
        for n in range(-g.nx // 2 + 1, g.nx // 2 + 1):
            row = f.coeffs[n] if n >= 0 else np.conj(f.coeffs[-n])
            ex = np.exp(2j * np.pi * n * g.x / g.L)
            for m in range(g.ny + 1):
                out += row[m] * np.outer(ex, basis(m * np.pi * g.y))
        return out.real

    @pytest.mark.parametrize("shape", [(16, 8), (64, 32)])
    def test_mixed_batch_matches_direct_sum_and_analyze_inverts(self, shape):
        g = sp.Grid(L=2.0, nx=shape[0], ny=shape[1])
        rng = np.random.default_rng(31)
        fields = [
            sp.SpectralField(
                g,
                parity,
                rng.standard_normal(g.coeff_shape)
                + 1j * rng.standard_normal(g.coeff_shape),
            )
            for parity in (sp.SIN, sp.COS, sp.COS, sp.SIN, sp.COS)
        ]
        # the band's edges are occupied: the cos m = ny column, the n = nx/2 row
        assert all(f.coeffs[:, -1].all() for f in fields if f.parity == sp.COS)
        assert all(f.coeffs[-1, 1:-1].all() for f in fields)
        for f, vals in zip(fields, sp.synthesize(fields)):
            ref = self.direct_sum(f)
            assert np.abs(vals - ref).max() < 1e-13 * np.abs(ref).max()
            back = sp.analyze(g, vals, f.parity).coeffs
            assert np.abs(back - f.coeffs).max() < 1e-13 * np.abs(f.coeffs).max()

    @pytest.mark.parametrize("shape", [(16, 8), (64, 32), (128, 64)])
    def test_sine_analysis_ignores_wall_values(self, shape):
        g = sp.Grid(L=2.0, nx=shape[0], ny=shape[1])
        vals = np.random.default_rng(32).standard_normal((3,) + g.shape)
        zeroed = vals.copy()
        zeroed[..., [0, -1]] = 0.0
        nonfinite = vals.copy()
        nonfinite[..., 0] = np.nan
        nonfinite[..., -1] = -np.inf
        want = [f.coeffs.tobytes() for f in sp.analyze(g, zeroed, sp.SIN)]
        assert np.abs(vals[..., [0, -1]]).min() > 0.0
        for walls in (vals, nonfinite):
            got = [f.coeffs.tobytes() for f in sp.analyze(g, walls, sp.SIN)]
            assert got == want
        assert sp.analyze(g, vals[0], sp.SIN).coeffs.tobytes() == want[0]


class TestNumpyOnly:
    def test_package_runs_without_scipy(self):
        # a fresh interpreter, so that nothing else in this pytest process has
        # loaded scipy already
        src = str(Path(sp.__file__).resolve().parents[1])
        script = f"import sys; sys.path.insert(0, {src!r})\n" + textwrap.dedent(
            """
            import numpy as np
            import benard_da, benard_da.cli
            from benard_da import spectral as sp
            g = sp.Grid(2.0, 16, 8)
            f = sp.random_scalar(g, np.random.default_rng(0), sp.SIN)
            back = sp.analyze(g, sp.synthesize(f), sp.SIN)
            assert np.abs(back.coeffs - f.coeffs).max() < 1e-14
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
            """
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"


class TestBatchedTransforms:
    """The batched kernel: stacks agree with single fields bit for bit, and
    the half layout is the only reality convention."""

    @staticmethod
    def mixed_fields(g, rng):
        fields = []
        for parity in (sp.SIN, sp.COS, sp.SIN, sp.COS, sp.COS, sp.SIN):
            c = rng.standard_normal(g.coeff_shape) + 1j * rng.standard_normal(g.coeff_shape)
            fields.append(sp.SpectralField(g, parity, c))
        return fields

    @pytest.mark.parametrize("shape", [(16, 8), (64, 32), (128, 64)])
    def test_batched_synthesize_matches_single_calls(self, shape):
        g = sp.Grid(L=2.0, nx=shape[0], ny=shape[1])
        fields = self.mixed_fields(g, np.random.default_rng(5))
        batch = sp.synthesize(fields)
        assert batch.shape == (len(fields),) + g.shape
        for f, vals in zip(fields, batch):
            assert np.array_equal(vals, sp.synthesize(f))

    @pytest.mark.parametrize("parity", [sp.COS, sp.SIN])
    @pytest.mark.parametrize("shape", [(16, 8), (64, 32), (128, 64)])
    def test_batched_analyze_matches_single_calls(self, parity, shape):
        g = sp.Grid(L=2.0, nx=shape[0], ny=shape[1])
        vals = np.random.default_rng(6).standard_normal((3,) + g.shape)
        batch = sp.analyze(g, vals, parity)
        assert len(batch) == 3
        for f, v in zip(batch, vals):
            assert np.array_equal(f.coeffs, sp.analyze(g, v, parity).coeffs)

    def test_non_hermitian_coefficients_synthesize_to_real_part(self):
        # Arbitrary complex rows n = 0 .. nx/2, imaginary self-conjugate rows
        # included, synthesize to the real part of the plain sum over the
        # full spectrum with c[-n] = conj(c[n]).  Reference: y sums by the
        # explicit basis, x sum by a complex ifft of the mirrored rows.
        g = sp.Grid(L=2.0, nx=32, ny=16)
        rng = np.random.default_rng(8)
        m = np.arange(g.ny + 1)
        for parity in (sp.SIN, sp.COS, sp.SIN, sp.COS):
            c = rng.standard_normal(g.coeff_shape) + 1j * rng.standard_normal(g.coeff_shape)
            if parity == sp.SIN:
                c[:, [0, -1]] = 0.0
            basis = np.cos if parity == sp.COS else np.sin
            full = np.concatenate([c, np.conj(c[-2:0:-1])])
            gy = full @ basis(np.pi * np.outer(m, g.y))
            ref = (np.fft.ifft(gy, axis=0) * g.nx).real
            vals = sp.synthesize(sp.SpectralField(g, parity, c))
            assert np.abs(vals - ref).max() < 1e-13 * np.abs(ref).max()

    def test_later_calls_leave_earlier_results_unchanged(self):
        # the coefficient buffer is reused per grid and batch size; the
        # returned values and the input fields are not
        g = sp.Grid(L=2.0, nx=32, ny=16)
        rng = np.random.default_rng(12)
        fields = self.mixed_fields(g, rng)
        inputs = [f.coeffs.tobytes() for f in fields]
        first = sp.synthesize(fields)
        values = first.tobytes()
        for _ in range(3):
            later = sp.synthesize(self.mixed_fields(g, rng))
            assert not np.shares_memory(first, later)
        assert first.tobytes() == values
        assert [f.coeffs.tobytes() for f in fields] == inputs

    def test_threads_get_the_serial_results(self):
        # threads can switch between filling the coefficient buffer and
        # transforming it; batches of one size on one grid must still not
        # share a buffer across threads
        g = sp.Grid(L=2.0, nx=64, ny=32)
        batches = [self.mixed_fields(g, np.random.default_rng(s)) for s in (21, 22)]
        serial = [sp.synthesize(b) for b in batches]
        wrong, done = [], []

        def work(fields, want):
            for _ in range(200):
                if not np.array_equal(sp.synthesize(fields), want):
                    wrong.append(1)
            done.append(1)

        threads = [
            threading.Thread(target=work, args=(batches[i % 2], serial[i % 2]))
            for i in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(done) == len(threads)
        assert not wrong

    def test_mixed_grids_rejected(self):
        a = sp.SpectralField.zeros(sp.Grid(L=2.0, nx=16, ny=8), sp.COS)
        b = sp.SpectralField.zeros(sp.Grid(L=1.0, nx=16, ny=8), sp.COS)
        with pytest.raises(ValueError):
            sp.synthesize([a, b])


class TestDerivatives:
    def test_derivative_x_analytic(self):
        """d/dx of cos(2 pi x / L) sin(pi y)."""
        g = sp.Grid(L=2.0, nx=32, ny=16)
        f = real_mode(g, sp.SIN, 1, 1)
        X, Y = np.meshgrid(g.x, g.y, indexing="ij")
        exact = -(2 * np.pi / g.L) * np.sin(2 * np.pi * X / g.L) * np.sin(np.pi * Y)
        assert np.abs(sp.synthesize(derivative_x(f)) - exact).max() < 1e-12

    def test_derivative_x_of_constant_is_zero(self):
        g = sp.Grid(L=1.0, nx=16, ny=8)
        f = real_mode(g, sp.COS, 0, 0, amplitude=4.2)
        assert np.abs(derivative_x(f).coeffs).max() == 0.0

    def test_derivative_y_pure_modes(self):
        """sin(pi y) -> pi cos(pi y) and cos(pi y) -> -pi sin(pi y)."""
        g = sp.Grid(L=1.0, nx=16, ny=16)
        ds = derivative_y(real_mode(g, sp.SIN, 0, 1))
        assert ds.parity == sp.COS
        assert ds.coeffs[0, 1] == pytest.approx(np.pi)
        assert np.abs(ds.coeffs).sum() == pytest.approx(np.pi)
        dc = derivative_y(real_mode(g, sp.COS, 0, 1))
        assert dc.parity == sp.SIN
        assert dc.coeffs[0, 1] == pytest.approx(-np.pi)

    def test_derivative_x_matches_finite_differences_at_eighth_order(self):
        errs = []
        for n in (32, 64):
            g = sp.Grid(L=2.0, nx=n, ny=n)
            f = real_mode(g, sp.COS, 2, 2, 1.3, 0.4)
            approx = fd_derivative_x(sp.synthesize(f), g.L / g.nx)
            errs.append(np.abs(approx - sp.synthesize(derivative_x(f))).max())
        assert errs[1] < 1e-7
        assert 150 < errs[0] / errs[1] < 350  # ~2^8 between halvings

    @pytest.mark.parametrize("parity,n,m", [(sp.COS, 2, 2), (sp.SIN, 1, 3)])
    def test_derivative_y_matches_finite_differences(self, parity, n, m):
        errs = []
        for size in (32, 64):
            g = sp.Grid(L=2.0, nx=size, ny=size)
            f = real_mode(g, parity, n, m, 0.9, 1.1)
            approx = fd_derivative_y(sp.synthesize(f), parity, 1.0 / g.ny)
            errs.append(np.abs(approx - sp.synthesize(derivative_y(f))).max())
        assert errs[1] < 1e-7
        assert 150 < errs[0] / errs[1] < 350

    def test_derivatives_commute_exactly(self):
        g = sp.Grid(L=1.5, nx=32, ny=16)
        rng = np.random.default_rng(11)
        f = sp.random_scalar(g, rng, sp.COS)
        a = derivative_y(derivative_x(f))
        b = derivative_x(derivative_y(f))
        # same operator either way; reordered real factors may differ in the
        # last place, so equality is asserted at one-ulp scale
        scale = np.abs(a.coeffs).max()
        assert np.abs(a.coeffs - b.coeffs).max() <= 1e-15 * scale


class TestLerayProjection:
    def test_annihilates_gradient(self):
        """grad of cos(2 pi x / L) cos(pi y) projects to zero."""
        g = sp.Grid(L=2.0, nx=32, ny=16)
        phi = real_mode(g, sp.COS, 1, 1)
        grad = sp.VectorField(derivative_x(phi), derivative_y(phi))
        proj = sp.leray_project(grad)
        assert sp.norm_h(proj) < 1e-13 * sp.norm_h(grad)

    def test_solenoidal_field_unchanged(self):
        g = sp.Grid(L=2.0, nx=32, ny=16)
        u = sp.random_solenoidal(g, np.random.default_rng(5))
        pu = sp.leray_project(u)
        assert np.abs(pu.u1.coeffs - u.u1.coeffs).max() < 1e-12
        assert np.abs(pu.u2.coeffs - u.u2.coeffs).max() < 1e-12

    @pytest.mark.parametrize("nx, ny", [(16, 8), (128, 64)])
    def test_matches_per_mode_projection_oracle(self, nx, ny):
        """Independent 2x2 oracle: P = I - G pinv(G) along the gradient column."""
        g = sp.Grid(L=2.0, nx=nx, ny=ny)
        rng = np.random.default_rng(9)
        u1 = sp.random_scalar(g, rng, sp.COS)
        u2 = sp.random_scalar(g, rng, sp.SIN)
        proj = sp.leray_project(sp.VectorField(u1, u2))
        expected1 = np.zeros(g.coeff_shape, dtype=complex)
        expected2 = np.zeros(g.coeff_shape, dtype=complex)
        for ni in range(g.nx // 2 + 1):
            for m in range(g.ny + 1):
                vec = np.array([u1.coeffs[ni, m], u2.coeffs[ni, m]])
                if ni == 0 and m == 0:
                    expected1[ni, m] = 0.0  # mean-flow gauge
                    expected2[ni, m] = 0.0
                    continue
                grad = np.array([[1j * g.kx[ni]], [-g.ky[m]]])  # grad acting on phi
                P = np.eye(2) - grad @ np.linalg.pinv(grad)
                expected1[ni, m], expected2[ni, m] = P @ vec
        assert np.abs(proj.u1.coeffs - expected1).max() < 1e-12
        # m = ny sine column is structurally truncated by the field type
        expected2[:, -1] = 0.0
        expected2[:, 0] = 0.0
        assert np.abs(proj.u2.coeffs - expected2).max() < 1e-12

    def test_factors_read_only_and_cached_per_grid(self):
        g = sp.Grid(L=2.0, nx=16, ny=8)
        factors = sp._leray_factors(g)
        assert factors is sp._leray_factors(sp.Grid(L=2.0, nx=16, ny=8))
        assert factors is not sp._leray_factors(sp.Grid(L=2.0, nx=32, ny=16))
        for f in factors:
            assert not f.flags.writeable
            with pytest.raises(ValueError):
                f[1, 1] = 0.0

    @pytest.mark.parametrize("nx, ny", [(32, 16), (128, 64)])
    def test_projection_of_random_field_is_solenoidal(self, nx, ny):
        g = sp.Grid(L=2.0, nx=nx, ny=ny)
        rng = np.random.default_rng(17)
        f = sp.VectorField(sp.random_scalar(g, rng, sp.COS), sp.random_scalar(g, rng, sp.SIN))
        assert sp.solenoidality_defect(f) > 1e-2
        assert sp.solenoidality_defect(sp.leray_project(f)) < 1e-14

    def test_idempotent_and_self_adjoint(self):
        g = sp.Grid(L=1.0, nx=32, ny=16)
        rng = np.random.default_rng(13)
        f = sp.VectorField(sp.random_scalar(g, rng, sp.COS), sp.random_scalar(g, rng, sp.SIN))
        q = sp.VectorField(sp.random_scalar(g, rng, sp.COS), sp.random_scalar(g, rng, sp.SIN))
        pf, pq = sp.leray_project(f), sp.leray_project(q)
        ppf = sp.leray_project(pf)
        assert np.abs(ppf.u1.coeffs - pf.u1.coeffs).max() < 1e-13
        assert np.abs(ppf.u2.coeffs - pf.u2.coeffs).max() < 1e-13
        assert sp.inner_h(pf, q) == pytest.approx(sp.inner_h(f, pq), abs=1e-12)

    def test_linearity(self):
        g = sp.Grid(L=1.0, nx=16, ny=8)
        rng = np.random.default_rng(21)
        f = sp.VectorField(sp.random_scalar(g, rng, sp.COS), sp.random_scalar(g, rng, sp.SIN))
        q = sp.VectorField(sp.random_scalar(g, rng, sp.COS), sp.random_scalar(g, rng, sp.SIN))
        combo = sp.VectorField(
            sp.SpectralField(g, sp.COS, 2.0 * f.u1.coeffs - 0.5 * q.u1.coeffs),
            sp.SpectralField(g, sp.SIN, 2.0 * f.u2.coeffs - 0.5 * q.u2.coeffs),
        )
        lhs = sp.leray_project(combo)
        pf, pq = sp.leray_project(f), sp.leray_project(q)
        assert np.abs(lhs.u1.coeffs - (2 * pf.u1.coeffs - 0.5 * pq.u1.coeffs)).max() < 1e-13


class TestEigenvalues:
    @staticmethod
    def enumerate_min(L: float, nx: int, ny: int) -> float:
        # independent enumeration straight from the symbol
        best = np.inf
        for n in range(-nx // 2 + 1, nx // 2 + 1):
            for m in range(1, ny):
                best = min(best, (2 * np.pi * n / L) ** 2 + (m * np.pi) ** 2)
        return best

    def test_temperature_space_smallest(self):
        # sin-parity temperatures: every retained mode with m >= 1
        g = sp.Grid(L=2.0, nx=32, ny=16)
        lam = sp.stokes_smallest_eigenvalue(g)
        assert lam == pytest.approx(np.pi**2, rel=1e-14)
        assert lam == pytest.approx(self.enumerate_min(2.0, 32, 16), rel=1e-14)

    def test_velocity_space_smallest(self):
        """Shear mode u1 = cos(pi y) is admissible and attains pi^2 at L = 2."""
        g = sp.Grid(L=2.0, nx=32, ny=16)
        assert sp.stokes_smallest_eigenvalue(g) == pytest.approx(np.pi**2, rel=1e-14)

    def test_large_domain_eigenvalues_non_increasing(self):
        # oracle enumeration gives pi^2 for all of L in {2, 4, 8}: the shear
        # mode's eigenvalue carries no L dependence in this basis
        vals = []
        for L in (2.0, 4.0, 8.0):
            g = sp.Grid(L=L, nx=32, ny=16)
            v = sp.stokes_smallest_eigenvalue(g)
            assert v == pytest.approx(self.enumerate_min(L, 32, 16), rel=1e-14)
            vals.append(v)
        assert vals[0] >= vals[1] >= vals[2]
        assert vals == pytest.approx([np.pi**2] * 3, rel=1e-14)

    def test_poincare_per_retained_mode(self):
        g = sp.Grid(L=2.0, nx=32, ny=16)
        lam1 = sp.stokes_smallest_eigenvalue(g)
        m = np.arange(g.ny + 1)[None, :]
        sel = g.dealias_mask & (m >= 1) & (m <= g.ny - 1)
        assert (g.lam[sel] >= lam1).all()


class TestNormsAndStructure:
    def test_parseval_matches_quadrature(self):
        g = sp.Grid(L=2.0, nx=32, ny=32)
        rng = np.random.default_rng(17)
        for parity in (sp.COS, sp.SIN):
            f = sp.random_scalar(g, rng, parity, norm=1.9)
            quad = np.sqrt(sp.quadrature(g, sp.synthesize(f) ** 2))
            assert abs(sp.norm_h(f) - quad) < 1e-10 * quad

    def test_v_norm_matches_gradient_quadrature(self):
        g = sp.Grid(L=2.0, nx=32, ny=32)
        f = sp.random_scalar(g, np.random.default_rng(19), sp.SIN)
        gx = sp.synthesize(derivative_x(f))
        gy = sp.synthesize(derivative_y(f))
        quad = np.sqrt(sp.quadrature(g, gx**2 + gy**2))
        assert abs(sp.norm_v(f) - quad) < 1e-10 * quad

    def test_sine_fields_vanish_at_walls(self):
        g = sp.Grid(L=1.0, nx=16, ny=16)
        f = sp.random_scalar(g, np.random.default_rng(23), sp.SIN)
        vals = sp.synthesize(f)
        assert np.abs(vals[:, 0]).max() == 0.0
        assert np.abs(vals[:, -1]).max() == 0.0

    def test_cosine_fields_have_stress_free_walls(self):
        g = sp.Grid(L=1.0, nx=16, ny=16)
        f = sp.random_scalar(g, np.random.default_rng(29), sp.COS)
        dvals = sp.synthesize(derivative_y(f))
        assert np.abs(dvals[:, 0]).max() == 0.0
        assert np.abs(dvals[:, -1]).max() == 0.0

    def test_self_conjugate_rows_are_held_real(self):
        # The constructor is the one place reality is enforced: it drops the
        # imaginary part of rows n = 0 and nx/2 and nothing else, so every
        # field, however built, holds the coefficients of a real field.
        g = sp.Grid(L=2.0, nx=32, ny=16)
        rng = np.random.default_rng(9)
        c = rng.standard_normal(g.coeff_shape) + 1j * rng.standard_normal(g.coeff_shape)
        f = sp.SpectralField(g, sp.COS, c)
        assert np.array_equal(f.coeffs[[0, -1]], c[[0, -1]].real)
        assert f.coeffs[1:-1].tobytes() == c[1:-1].tobytes()
        clean = sp.SpectralField(g, sp.COS, f.coeffs)
        assert clean.coeffs.tobytes() == f.coeffs.tobytes()
        for op in (
            lambda a: a * 1j,
            lambda a: derivative_x(a),
            lambda a: a - sp.SpectralField(g, sp.COS, 1j * c),
        ):
            out = op(f)
            assert not out.coeffs[0].imag.any() and not out.coeffs[-1].imag.any()

    def test_fields_are_immutable(self):
        g = sp.Grid(L=1.0, nx=16, ny=8)
        f = sp.SpectralField.zeros(g, sp.COS)
        with pytest.raises(ValueError):
            f.coeffs[0, 0] = 1.0

    def test_vector_field_parity_enforced(self):
        g = sp.Grid(L=1.0, nx=16, ny=8)
        c = sp.SpectralField.zeros(g, sp.COS)
        s = sp.SpectralField.zeros(g, sp.SIN)
        with pytest.raises(ValueError):
            sp.VectorField(s, c)

    def test_solenoidality_defect_of_random_projection(self):
        g = sp.Grid(L=2.0, nx=32, ny=16)
        u = sp.random_solenoidal(g, np.random.default_rng(31))
        assert sp.solenoidality_defect(u) < 1e-12


class TestFieldArithmetic:
    """Field operators are the coefficient expressions, bit for bit."""

    G = sp.Grid(L=2.0, nx=16, ny=8)

    def _field(self, parity, seed, grid=None):
        g = grid or self.G
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(g.coeff_shape) + 1j * rng.standard_normal(g.coeff_shape)
        return sp.SpectralField(g, parity, c)

    def _vector(self, seed):
        return sp.VectorField(self._field(sp.COS, seed), self._field(sp.SIN, seed + 1))

    @staticmethod
    def _cases(a, b, s, arr):
        """(operator result, hand-built coefficients) for each operator."""
        return [
            (a + b, lambda x, y: x.coeffs + y.coeffs),
            (a - b, lambda x, y: x.coeffs - y.coeffs),
            (-a, lambda x, y: -x.coeffs),
            (s * a, lambda x, y: s * x.coeffs),
            (a * s, lambda x, y: x.coeffs * s),
            (arr * a, lambda x, y: arr * x.coeffs),
            (a / s, lambda x, y: x.coeffs / s),
        ]

    @pytest.mark.parametrize("parity", [sp.COS, sp.SIN])
    def test_scalar_operators_match_coefficients(self, parity):
        a, b = self._field(parity, 1), self._field(parity, 2)
        arr = np.random.default_rng(3).standard_normal(self.G.coeff_shape)
        for got, expr in self._cases(a, b, -0.37, arr):
            want = sp.SpectralField(self.G, parity, expr(a, b))
            assert isinstance(got, sp.SpectralField)
            assert got.parity == parity and got.grid == self.G
            assert got.coeffs.tobytes() == want.coeffs.tobytes()

    def test_vector_operators_are_componentwise(self):
        u, w = self._vector(4), self._vector(6)
        arr = np.random.default_rng(8).standard_normal(self.G.coeff_shape)
        for got, expr in self._cases(u, w, 2.5, arr):
            assert isinstance(got, sp.VectorField)
            for name in ("u1", "u2"):
                x, y = getattr(u, name), getattr(w, name)
                want = sp.SpectralField(self.G, x.parity, expr(x, y))
                assert getattr(got, name).coeffs.tobytes() == want.coeffs.tobytes()

    def test_results_are_new_and_read_only(self):
        a, b = self._field(sp.SIN, 9), self._field(sp.SIN, 10)
        u, w = self._vector(11), self._vector(13)
        before = [f.coeffs.copy() for f in (a, b, u.u1, u.u2, w.u1, w.u2)]
        arr = np.ones(self.G.coeff_shape)
        results = [f for f, _ in self._cases(a, b, 1.0, arr)]
        for v, _ in self._cases(u, w, 1.0, arr):
            results += [v.u1, v.u2]
        for got in results:
            assert not got.coeffs.flags.writeable
            for f in (a, b, u.u1, u.u2, w.u1, w.u2):
                assert got is not f
                assert not np.shares_memory(got.coeffs, f.coeffs)
        after = [f.coeffs for f in (a, b, u.u1, u.u2, w.u1, w.u2)]
        assert all(x.tobytes() == y.tobytes() for x, y in zip(before, after))

    def test_public_constructor_copies(self):
        # only arrays the package has just computed are adopted
        c = np.random.default_rng(14).standard_normal(self.G.coeff_shape) + 0j
        f = sp.SpectralField(self.G, sp.COS, c)
        before = f.coeffs.tobytes()
        c[...] = 7.0
        assert f.coeffs.tobytes() == before
        assert not np.shares_memory(f.coeffs, c)
        assert c.flags.writeable

    def test_mismatched_space_raises_value_error(self):
        other = sp.Grid(L=1.0, nx=16, ny=8)
        c, s = self._field(sp.COS, 15), self._field(sp.SIN, 16)
        c_other = self._field(sp.COS, 15, grid=other)
        u = self._vector(17)
        u_other = sp.VectorField(c_other, self._field(sp.SIN, 18, grid=other))
        for bad in (
            lambda: c + s,
            lambda: c - s,
            lambda: c + c_other,
            lambda: c - c_other,
            lambda: u + u_other,
            lambda: u - u_other,
        ):
            with pytest.raises(ValueError):
                bad()

    def test_nonlinear_or_mixed_combinations_raise_type_error(self):
        a, u = self._field(sp.COS, 19), self._vector(20)
        for bad in (
            lambda: a * a,
            lambda: u * u,
            lambda: a * u,
            lambda: u * a,
            lambda: a / a,
            lambda: a + 1.0,
            lambda: 1.0 + a,
            lambda: a - np.ones(self.G.shape),
            lambda: u + a,
            lambda: a + u,
        ):
            with pytest.raises(TypeError):
                bad()

    def test_numpy_left_operands_return_fields(self):
        a, u = self._field(sp.SIN, 22), self._vector(23)
        for left in (np.ones(self.G.coeff_shape), np.float64(2)):
            assert isinstance(left * a, sp.SpectralField)
            assert isinstance(left * u, sp.VectorField)

    def test_equality_is_identity_and_fields_hash(self):
        a = sp.SpectralField.zeros(self.G, sp.COS)
        b = sp.SpectralField.zeros(self.G, sp.COS)
        u = sp.VectorField.zeros(self.G)
        assert a == a and a != b
        assert u == u and u != sp.VectorField.zeros(self.G)
        assert len({a, b, u}) == 3
        assert hash(a) != hash(b)
