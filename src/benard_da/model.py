"""Model terms for 2D Benard convection in perturbation variables.

The conduction profile is already subtracted by the non-dimensionalization,
so the state (u, theta) measures departure from pure conduction and the zero
state is a fixed point.  Evolution equations, with A = -Laplacian per parity
and P the Leray projection:

    du/dt     = -nu A u - P[(u.grad)u] + P[theta e2]
    dtheta/dt = -kappa A theta - (u.grad)theta + u2

Quadratic products are formed pointwise on the collocation grid and
truncated to the dealiased band, which keeps the advection orthogonality
identities exact to round-off and the wall conditions structural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .spectral import (
    COS,
    SIN,
    Grid,
    SpectralField,
    VectorField,
    analyze,
    dealias,
    derivative_x,
    derivative_y,
    leray_project,
    synthesize,
)

__all__ = [
    "PhysicalParams",
    "State",
    "Forcing",
    "advection_velocity",
    "advection_scalar",
    "temperature_tendency",
    "explicit_rhs",
]


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensionless coefficients: viscosity nu, diffusivity kappa and the
    nudging strength mu; nu and kappa positive, mu non-negative, all finite.

    The period L belongs to the Grid and the observation spacing h to the
    observations.InterpolantSpec; neither is repeated here.
    """

    nu: float
    kappa: float
    mu: float = 0.0

    def __post_init__(self) -> None:
        for name in ("nu", "kappa"):
            if not (0 < getattr(self, name) < math.inf):
                raise ValueError(
                    f"{name} must be positive and finite, got {getattr(self, name)}"
                )
        if not (0 <= self.mu < math.inf):
            raise ValueError(f"mu must be non-negative and finite, got {self.mu}")


@dataclass(frozen=True, eq=False)
class State:
    """Solenoidal velocity plus sine-parity temperature at one instant,
    compared by identity."""

    velocity: VectorField
    temperature: SpectralField
    time: float = 0.0

    def __post_init__(self) -> None:
        if self.temperature.parity != SIN:
            raise ValueError("temperature must carry sine parity")
        if self.temperature.grid != self.velocity.grid:
            raise ValueError("velocity and temperature grids differ")

    @property
    def grid(self) -> Grid:
        return self.velocity.grid

    @classmethod
    def zeros(cls, grid: Grid, time: float = 0.0) -> "State":
        return cls(VectorField.zeros(grid), SpectralField.zeros(grid, SIN), time)


# optional extra tendency, evaluated at the stage time; the vector part is
# applied under the Leray projection together with the other explicit terms
Forcing = Callable[[float], Tuple[VectorField, SpectralField]]


def _require_same_grid(a: Grid, b: Grid) -> None:
    if a != b:
        raise ValueError("fields live on different grids")


def advection_velocity(carrier: VectorField, advected: VectorField) -> VectorField:
    """Dealiased Galerkin truncation of (carrier . grad) advected."""
    _require_same_grid(carrier.grid, advected.grid)
    g = carrier.grid
    # cos-parity fields first: synthesize then needs no reordering
    c1, dx1, dy2, c2, dy1, dx2 = synthesize(
        [
            carrier.u1,
            derivative_x(advected.u1),
            derivative_y(advected.u2),
            carrier.u2,
            derivative_y(advected.u1),
            derivative_x(advected.u2),
        ]
    )
    return VectorField(
        dealias(analyze(g, c1 * dx1 + c2 * dy1, COS)),
        dealias(analyze(g, c1 * dx2 + c2 * dy2, SIN)),
    )


def advection_scalar(carrier: VectorField, scalar: SpectralField) -> SpectralField:
    """Dealiased Galerkin truncation of (carrier . grad) scalar, sine parity."""
    _require_same_grid(carrier.grid, scalar.grid)
    c1, dy, c2, dx = synthesize(
        [carrier.u1, derivative_y(scalar), carrier.u2, derivative_x(scalar)]
    )
    return dealias(analyze(carrier.grid, c1 * dx + c2 * dy, SIN))


def temperature_tendency(u: VectorField, theta: SpectralField) -> SpectralField:
    """-(u.grad)theta + u2: the explicit temperature tendency (no diffusion)."""
    return u.u2 - advection_scalar(u, theta)


def explicit_rhs(
    s: State, forcing: Optional[Forcing] = None
) -> Tuple[VectorField, SpectralField]:
    """All tendency terms handled explicitly by the steppers (no diffusion).

    Velocity part: P[-(u.grad)u + theta e2 (+ forcing)]; one projection call
    covers the whole bundle.  Scalar part: -(u.grad)theta + u2 (+ forcing).
    """
    u, th = s.velocity, s.temperature
    adv = advection_velocity(u, u)
    vec = VectorField(-adv.u1, th - adv.u2)
    sc = temperature_tendency(u, th)
    if forcing is not None:
        fu, ft = forcing(s.time)
        vec = vec + fu
        sc = sc + ft
    return leray_project(vec), sc
