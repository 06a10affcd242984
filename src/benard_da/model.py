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
from typing import Callable, List, Optional, Sequence, Tuple, Union

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
    compared by identity.  passengers are passive temperatures: each obeys
    the temperature equation but none feeds the buoyancy."""

    velocity: VectorField
    temperature: SpectralField
    time: float = 0.0
    passengers: Tuple[SpectralField, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "passengers", tuple(self.passengers))
        for f in (self.temperature,) + self.passengers:
            if f.parity != SIN:
                raise ValueError("temperatures must carry sine parity")
            if f.grid != self.velocity.grid:
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


def advection_scalar(
    carrier: VectorField, scalars: Union[SpectralField, Sequence[SpectralField]]
) -> Union[SpectralField, List[SpectralField]]:
    """Dealiased Galerkin truncation of (carrier . grad) scalar, sine parity.

    A sequence of scalars gives a list, from one synthesis and one analysis,
    bit for bit the fields of one call per scalar."""
    single = isinstance(scalars, SpectralField)
    group = [scalars] if single else list(scalars)
    for f in group:
        _require_same_grid(carrier.grid, f.grid)
    k = len(group)
    v = synthesize(
        [carrier.u1, *map(derivative_y, group), carrier.u2, *map(derivative_x, group)]
    )
    adv = v[0] * v[k + 2 :] + v[k + 1] * v[1 : k + 1]
    if single:
        return dealias(analyze(carrier.grid, adv[0], SIN))
    return [dealias(f) for f in analyze(carrier.grid, adv, SIN)]


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
    sc = u.u2 - advection_scalar(u, th)
    if forcing is not None:
        fu, ft = forcing(s.time)
        vec = vec + fu
        sc = sc + ft
    return leray_project(vec), sc
