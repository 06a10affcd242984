"""Model terms for 2D Benard convection in perturbation variables.

The conduction profile is already subtracted by the non-dimensionalization,
so the state (u, theta) measures departure from pure conduction and the zero
state is a fixed point.  Evolution equations, with A = -Laplacian per parity
and P the Leray projection:

    du/dt     = -nu A u - P[(u.grad)u] + P[theta e2]
    dtheta/dt = -kappa A theta - (u.grad)theta + u2

Quadratic products are formed pointwise on the collocation grid and
truncated to the dealiased band, which keeps the advection orthogonality
identities exact to round-off and the wall conditions structural.  Both
advection terms are taken in divergence form, (c.grad) f = d/dx(c1 f) +
d/dy(c2 f): the fluxes c1 f and c2 f are analyzed and differentiated on
their coefficients, so no derivative field is synthesized.  Under the 2/3
rule the retained band of a product of two dealiased fields is alias-free,
so for a solenoidal, dealiased carrier this equals the convective form to
round-off (Zang 1991).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .spectral import (
    COS,
    SIN,
    Grid,
    SpectralField,
    VectorField,
    _adopt,
    _buffer,
    analyze,
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


@lru_cache(maxsize=8)
def _divergence_factors(g: Grid) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only complex d/dx and d/dy multipliers (i kx, ky) per
    coefficient, zero outside the dealiased band."""
    dx = (1j * g.kx[:, None]) * g.dealias_mask
    dy = (g.ky[None, :] * g.dealias_mask).astype(complex)
    dx.flags.writeable = dy.flags.writeable = False
    return dx, dy


def _fluxes(
    carrier: VectorField, fields: Sequence[SpectralField], pairs: Sequence[tuple]
) -> np.ndarray:
    """Pointwise products v[i] v[j] of the values v of [c1, c2, *fields],
    one per pair, from one synthesis.  They fill this thread's flux buffer
    (see spectral._buffer), live until analyzed; the synthesized values are
    released on return, before the analyses allocate."""
    g = carrier.grid
    v = synthesize([carrier.u1, carrier.u2, *fields])
    flux = _buffer((len(pairs),) + g.shape, float, "flux")
    for out, (i, j) in zip(flux, pairs):
        np.multiply(v[i], v[j], out=out)
    return flux


def _divergence(fx: SpectralField, fy: SpectralField) -> SpectralField:
    """Dealiased d/dx fx + d/dy fy, of fx's parity: d/dx takes i kx, and d/dy
    flips parity, sin -> cos with +ky and cos -> sin with -ky."""
    g = fx.grid
    dx, dy = _divergence_factors(g)
    div, ddy = dx * fx.coeffs, dy * fy.coeffs
    if fy.parity == SIN:
        div += ddy
    else:
        div -= ddy
    return _adopt(g, fx.parity, div)


def advection_velocity(carrier: VectorField, advected: VectorField) -> VectorField:
    """Dealiased Galerkin truncation of (carrier . grad) advected.

    Divergence form, component i d/dx(c1 a_i) + d/dy(c2 a_i): one synthesis
    of the four components, then the fluxes analyzed as a cos pair
    {c1 a1, c2 a2} and a sin pair {c2 a1, c1 a2}.  The carrier must be
    solenoidal and dealiased, as states and their differences are, or the
    result differs from the convective form by a_i div(c).  When advected
    is carrier, u1 and u2 are synthesized once and u1^2, u2^2 and u1 u2
    analyzed once, with the bits of the general path.
    """
    _require_same_grid(carrier.grid, advected.grid)
    g = carrier.grid
    if advected is carrier:
        flux = _fluxes(carrier, [], [(0, 0), (1, 1), (1, 0)])
        f11, f22 = analyze(g, flux[:2], COS)
        (f21,) = analyze(g, flux[2:], SIN)
        f12 = f21
    else:
        flux = _fluxes(
            carrier, [advected.u1, advected.u2], [(0, 2), (1, 3), (1, 2), (0, 3)]
        )
        f11, f22 = analyze(g, flux[:2], COS)
        f21, f12 = analyze(g, flux[2:], SIN)
    return VectorField(_divergence(f11, f21), _divergence(f12, f22))


def advection_scalar(
    carrier: VectorField, scalars: Union[SpectralField, Sequence[SpectralField]]
) -> Union[SpectralField, List[SpectralField]]:
    """Dealiased Galerkin truncation of (carrier . grad) scalar, sine parity.

    Divergence form, d/dx(c1 f) + d/dy(c2 f), with advection_velocity's
    contract on the carrier.  Scalars must carry sine parity, as
    temperatures do, or ValueError is raised.  A sequence of scalars gives
    a list, from one synthesis and one analysis per flux parity, bit for
    bit the fields of one call per scalar."""
    single = isinstance(scalars, SpectralField)
    group = [scalars] if single else list(scalars)
    for f in group:
        _require_same_grid(carrier.grid, f.grid)
        if f.parity != SIN:
            raise ValueError("advected scalars must carry sine parity")
    g, k = carrier.grid, len(group)
    pairs = [(0, 2 + i) for i in range(k)] + [(1, 2 + i) for i in range(k)]
    flux = _fluxes(carrier, group, pairs)
    adv = list(map(_divergence, analyze(g, flux[:k], SIN), analyze(g, flux[k:], COS)))
    return adv[0] if single else adv


def explicit_rhs(
    s: State, forcing: Optional[Forcing] = None
) -> Tuple[VectorField, SpectralField]:
    """All tendency terms handled explicitly by the steppers (no diffusion).

    Velocity part: P[-(u.grad)u + theta e2 (+ forcing)]; one projection call
    covers the whole bundle.  Scalar part: -(u.grad)theta + u2 (+ forcing).
    The two advection calls make six transform calls over ten fields: they
    synthesize u1, u2 and u1, u2, theta, and analyze u1^2, u2^2, u1 u2 and
    u1 theta, u2 theta.
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
