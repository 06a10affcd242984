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
The forcing below is the residual of the unforced equations, built from
the case's own fields (the time derivative is them at the amplitudes'
rates; diffusion, buoyancy and source are them scaled); only the three
advection terms are written out.  Its gradient part is harmless because
the solver projects forcing together with the other explicit terms.
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

    def _fields(self, g_amp: float, b_amp: float) -> Tuple[VectorField, SpectralField]:
        """The case's velocity and temperature at amplitudes g and b."""
        g = self.grid
        a = 2.0 * math.pi / g.L
        x, y = self._mesh()
        sc = np.sin(a * x) * np.cos(math.pi * y)
        cs = np.cos(a * x) * np.sin(math.pi * y)
        c2, cth = analyze(g, np.stack([-a * g_amp * cs, b_amp * cs]), SIN)
        return VectorField(analyze(g, math.pi * g_amp * sc, COS), c2), cth

    def state(self, t: float) -> State:
        return State(*self._fields(self._g(t), self._b(t)), t)

    def time_derivative(self, t: float) -> Tuple[VectorField, SpectralField]:
        return self._fields(self._gdot(t), self._bdot(t))

    def forcing(self, t: float) -> Tuple[VectorField, SpectralField]:
        """Residual of the unforced equations at the exact solution.

        With lam = a^2 + pi^2 the eigenvalue of both fields, it is the time
        derivative plus nu lam u and kappa lam theta, the buoyancy -theta e2
        and the source -u2, and the advection terms, which collapse by the
        Pythagorean identity: (u . grad u)_x = (pi^2 a / 2) g^2 sin(2 a x)
        and (u . grad u)_y = (pi a^2 / 2) g^2 sin(2 pi y); the scalar one is
        (u . grad theta) = -(pi a / 2) g b sin(2 pi y).
        """
        g = self.grid
        a = 2.0 * math.pi / g.L
        x, y = self._mesh()
        gt, bt = self._g(t), self._b(t)
        lam = a * a + math.pi * math.pi
        u, th = self._fields(gt, bt)
        du, dth = self.time_derivative(t)
        adv1 = 0.5 * math.pi**2 * a * gt**2 * np.sin(2.0 * a * x)
        adv2 = 0.5 * math.pi * a * a * gt**2 * np.sin(2.0 * math.pi * y)
        adv_th = -0.5 * math.pi * a * gt * bt * np.sin(2.0 * math.pi * y)
        c2, cth = analyze(g, np.stack([adv2, adv_th]), SIN)
        # c2 - th: the second advection component and the buoyancy -theta e2
        fu = du + u * (self.nu * lam) + VectorField(analyze(g, adv1, COS), c2 - th)
        return fu, dth + th * (self.kappa * lam) + cth - u.u2

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
