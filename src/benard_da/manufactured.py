"""Forced analytic solutions for verifying the discretization.

One streamfunction cell pair with time-varying amplitudes:

    psi   = g(t) sin(a x) sin(pi y),   a = 2 pi / L
    u     = (psi_y, -psi_x)
    theta = b(t) cos(a x) sin(pi y)
    g(t)  = g0 + g1 sin(omega t),      b(t) = b0 + b1 cos(omega t)

The fields satisfy the boundary conditions, are divergence-free, and span
a handful of low modes, so on any grid that retains wavenumbers 2a and
2 pi the Galerkin operators act on them without truncation and the
semi-discrete tendency matches the analytic time derivative to round-off.
The forcing below is the residual of the unforced equations; its gradient
part is harmless because the solver projects forcing together with the
other explicit terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .model import Forcing, PhysicalParams, State, explicit_rhs
from .spectral import (
    COS,
    SIN,
    Grid,
    SpectralField,
    VectorField,
    analyze,
    norm_h,
)
from .stepping import StepperConfig, integrate

__all__ = [
    "ManufacturedCase",
    "rhs_truth",
    "default_case",
    "semidiscrete_residual",
    "temporal_errors",
]


@dataclass(frozen=True)
class ManufacturedCase:
    grid: Grid
    nu: float
    kappa: float
    g0: float = 0.35
    g1: float = 0.15
    b0: float = 0.25
    b1: float = 0.1
    omega: float = 2.0 * math.pi

    @property
    def params(self) -> PhysicalParams:
        return PhysicalParams(nu=self.nu, kappa=self.kappa)

    def _mesh(self) -> Tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.grid.x, self.grid.y, indexing="ij")

    def _g(self, t: float) -> float:
        return self.g0 + self.g1 * math.sin(self.omega * t)

    def _gdot(self, t: float) -> float:
        return self.g1 * self.omega * math.cos(self.omega * t)

    def _b(self, t: float) -> float:
        return self.b0 + self.b1 * math.cos(self.omega * t)

    def _bdot(self, t: float) -> float:
        return -self.b1 * self.omega * math.sin(self.omega * t)

    def state(self, t: float) -> State:
        g = self.grid
        a = 2.0 * math.pi / g.L
        x, y = self._mesh()
        gt, bt = self._g(t), self._b(t)
        u1 = math.pi * gt * np.sin(a * x) * np.cos(math.pi * y)
        u2 = -a * gt * np.cos(a * x) * np.sin(math.pi * y)
        th = bt * np.cos(a * x) * np.sin(math.pi * y)
        c2, cth = analyze(g, np.stack([u2, th]), SIN)
        return State(VectorField(analyze(g, u1, COS), c2), cth, t)

    def time_derivative(self, t: float) -> Tuple[VectorField, SpectralField]:
        g = self.grid
        a = 2.0 * math.pi / g.L
        x, y = self._mesh()
        gd, bd = self._gdot(t), self._bdot(t)
        du1 = math.pi * gd * np.sin(a * x) * np.cos(math.pi * y)
        du2 = -a * gd * np.cos(a * x) * np.sin(math.pi * y)
        dth = bd * np.cos(a * x) * np.sin(math.pi * y)
        c2, cth = analyze(g, np.stack([du2, dth]), SIN)
        return VectorField(analyze(g, du1, COS), c2), cth

    def forcing(self, t: float) -> Tuple[VectorField, SpectralField]:
        """Residual of the unforced equations at the exact solution.

        The advection terms collapse by the Pythagorean identity:
        (u . grad u)_x = (pi^2 a / 2) g^2 sin(2 a x) and
        (u . grad u)_y = (pi a^2 / 2) g^2 sin(2 pi y); the scalar one is
        (u . grad theta) = -(pi a / 2) g b sin(2 pi y).
        """
        g = self.grid
        a = 2.0 * math.pi / g.L
        x, y = self._mesh()
        gt, bt = self._g(t), self._b(t)
        gd, bd = self._gdot(t), self._bdot(t)
        diff = a * a + math.pi * math.pi
        sx, cx = np.sin(a * x), np.cos(a * x)
        sy, cy = np.sin(math.pi * y), np.cos(math.pi * y)
        f1 = (
            math.pi * gd * sx * cy
            + 0.5 * math.pi**2 * a * gt**2 * np.sin(2.0 * a * x)
            + self.nu * diff * math.pi * gt * sx * cy
        )
        f2 = (
            -a * gd * cx * sy
            + 0.5 * math.pi * a * a * gt**2 * np.sin(2.0 * math.pi * y)
            - self.nu * diff * a * gt * cx * sy
            - bt * cx * sy
        )
        fth = (
            bd * cx * sy
            - 0.5 * math.pi * a * gt * bt * np.sin(2.0 * math.pi * y)
            + self.kappa * diff * bt * cx * sy
            + a * gt * cx * sy
        )
        c2, cth = analyze(g, np.stack([f2, fth]), SIN)
        return VectorField(analyze(g, f1, COS), c2), cth

    def errors(self, s: State) -> Tuple[float, float]:
        """H-norm distances of a computed state from the exact one."""
        exact = self.state(s.time)
        return (
            norm_h(s.velocity - exact.velocity),
            norm_h(s.temperature - exact.temperature),
        )


def rhs_truth(
    s: State, p: PhysicalParams, forcing: Optional[Forcing] = None
) -> Tuple[VectorField, SpectralField]:
    """Full tendency of the reference system at the state's instant."""
    vec, sc = explicit_rhs(s, forcing)
    lam = s.grid.lam
    return vec - s.velocity * (p.nu * lam), sc - s.temperature * (p.kappa * lam)


def default_case(grid: Grid = None, nu: float = 0.05, kappa: float = 0.05) -> ManufacturedCase:
    if grid is None:
        grid = Grid(2.0, 64, 64)
    return ManufacturedCase(grid=grid, nu=nu, kappa=kappa)


def semidiscrete_residual(case: ManufacturedCase, t: float) -> float:
    """H-norm gap between the discrete tendency and the exact derivative.

    Zero time-discretization is involved, so this isolates the spatial
    operators; on a grid resolving the case it sits at round-off.
    """
    s = case.state(t)
    vec, sc = rhs_truth(s, case.params, case.forcing)
    dvec, dsc = case.time_derivative(t)
    return float(np.hypot(norm_h(vec - dvec), norm_h(sc - dsc)))


def temporal_errors(
    case: ManufacturedCase, dts: Sequence[float], t_end: float
) -> List[float]:
    """Final-time combined H-norm error for each step size."""
    out = []
    for dt in dts:
        cfg = StepperConfig(dt=dt)
        final, _ = integrate(case.state(0.0), case.params, cfg, t_end,
                             forcing=case.forcing)
        ev, eth = case.errors(final)
        out.append(float(np.hypot(ev, eth)))
    return out
