"""Checks of the analytic forced case against an independent symbolic oracle."""

import math

import numpy as np
import pytest
import sympy as sp

from benard_da.manufactured import (
    ManufacturedCase,
    default_case,
    rhs_truth,
    semidiscrete_residual,
    temporal_errors,
)
from benard_da.spectral import Grid, norm_h, solenoidality_defect, synthesize

GRID = Grid(2.0, 64, 64)
CASE = default_case(GRID)


def symbolic_fields():
    """The same case built from scratch with exact rational coefficients."""
    x, y, t = sp.symbols("x y t", real=True)
    a = 2 * sp.pi / 2
    g = sp.Rational(35, 100) + sp.Rational(15, 100) * sp.sin(2 * sp.pi * t)
    b = sp.Rational(25, 100) + sp.Rational(10, 100) * sp.cos(2 * sp.pi * t)
    nu = kappa = sp.Rational(1, 20)
    psi = g * sp.sin(a * x) * sp.sin(sp.pi * y)
    u1 = sp.diff(psi, y)
    u2 = -sp.diff(psi, x)
    th = b * sp.cos(a * x) * sp.sin(sp.pi * y)

    def lap(f):
        return sp.diff(f, x, 2) + sp.diff(f, y, 2)

    f1 = sp.diff(u1, t) + u1 * sp.diff(u1, x) + u2 * sp.diff(u1, y) - nu * lap(u1)
    f2 = (
        sp.diff(u2, t)
        + u1 * sp.diff(u2, x)
        + u2 * sp.diff(u2, y)
        - nu * lap(u2)
        - th
    )
    fth = (
        sp.diff(th, t)
        + u1 * sp.diff(th, x)
        + u2 * sp.diff(th, y)
        - kappa * lap(th)
        - u2
    )
    return (x, y, t), (u1, u2, th), (f1, f2, fth)


class TestAgainstSymbolicOracle:
    @pytest.mark.parametrize("when", [0.0, 0.37, 0.81])
    def test_fields_match(self, when):
        (x, y, t), (u1, u2, th), _ = symbolic_fields()
        xm, ym = np.meshgrid(GRID.x, GRID.y, indexing="ij")
        s = CASE.state(when)
        for expr, f in ((u1, s.velocity.u1), (u2, s.velocity.u2), (th, s.temperature)):
            fn = sp.lambdify((x, y, t), expr, "numpy")
            expected = fn(xm, ym, when)
            assert np.allclose(synthesize(f), expected, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("when", [0.0, 0.37, 0.81])
    def test_forcing_matches(self, when):
        (x, y, t), _, (f1, f2, fth) = symbolic_fields()
        xm, ym = np.meshgrid(GRID.x, GRID.y, indexing="ij")
        fv, fs = CASE.forcing(when)
        for expr, f in ((f1, fv.u1), (f2, fv.u2), (fth, fs)):
            fn = sp.lambdify((x, y, t), expr, "numpy")
            expected = fn(xm, ym, when)
            scale = np.abs(expected).max()
            assert np.allclose(synthesize(f), expected, rtol=0, atol=1e-13 * scale)


class TestStructure:
    def test_exact_velocity_is_solenoidal(self):
        s = CASE.state(0.3)
        assert solenoidality_defect(s.velocity) < 1e-13

    def test_fields_occupy_expected_modes(self):
        s = CASE.state(0.2)
        c = s.velocity.u1.coeffs.copy()
        c[1, 1] = c[-1, 1] = 0.0
        assert np.abs(c).max() < 1e-14
        fv, fs = CASE.forcing(0.2)
        c = fv.u1.coeffs.copy()
        c[1, 1] = c[-1, 1] = c[2, 0] = c[-2, 0] = 0.0
        assert np.abs(c).max() < 1e-14
        c = fs.coeffs.copy()
        c[1, 1] = c[-1, 1] = c[0, 2] = 0.0
        assert np.abs(c).max() < 1e-14

    def test_errors_vanish_on_exact_state(self):
        ev, eth = CASE.errors(CASE.state(0.6))
        assert ev == 0.0
        assert eth == 0.0


class TestResidual:
    @pytest.mark.parametrize("when", [0.0, 0.3, 0.7])
    def test_semidiscrete_residual_at_round_off(self, when):
        assert semidiscrete_residual(CASE, when) < 1e-10

    def test_residual_is_not_trivially_zero(self):
        # Forcing built for different amplitudes must leave a visible gap.
        other = ManufacturedCase(grid=GRID, nu=CASE.nu, kappa=CASE.kappa, b0=0.4)
        s = CASE.state(0.3)
        vec, sc = rhs_truth(s, CASE.params, other.forcing)
        dvec, dsc = CASE.time_derivative(0.3)
        gap = norm_h(
            type(sc)(GRID, sc.parity, sc.coeffs - dsc.coeffs)
        )
        assert gap > 1e-3

    def test_small_grid_still_resolves(self):
        # Low-mode fields are exactly representable well below 64x64.
        case = default_case(Grid(2.0, 16, 16))
        assert semidiscrete_residual(case, 0.4) < 1e-12


class TestTemporalOrder:
    def test_second_order_convergence(self):
        errs = temporal_errors(CASE, [5e-3, 2.5e-3], 1.0)
        order = math.log2(errs[0] / errs[1])
        assert 1.9 < order < 2.1
