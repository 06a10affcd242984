"""Rigorous sufficiency conditions for nudging-based assimilation.

Everything here is plain arithmetic on the flow parameters plus two
empirically estimated constants:

- c, a generic dimensionless constant entering the a-priori solution
  bounds (user input, default 1; reports echo it so results can be
  rescaled for a different choice);
- c1, the constant of the interior L4 interpolation inequality
  |phi|_{L4}^2 <= c1 |phi| |phi|_V, estimated by random sampling.

The a-priori bounds overflow to exp-scale infinities for strongly
supercritical parameters or a nu or kappa whose powers underflow; they
and the thresholds are then reported as inf rather than raising, and any
finite configured mu compares as not satisfying them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .spectral import (
    COS,
    SIN,
    Grid,
    norm_h,
    norm_v,
    quadrature,
    random_scalar,
    random_solenoidal,
    synthesize,
)

__all__ = [
    "BoundsReport",
    "uniform_bounds",
    "mu_threshold_type1",
    "mu_threshold_type2",
    "max_observation_spacing",
    "with_thresholds",
    "estimate_ladyzhenskaya_constant",
]


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _quotient(num: float, den: float) -> float:
    """num / den for positive num; inf where den has underflowed to zero."""
    return num / den if den > 0 else math.inf


@dataclass(frozen=True)
class BoundsReport:
    """A-priori constants, their exponential envelopes, and mu thresholds.

    a2/a3 bound the velocity gradient history, b2/b3 the temperature
    gradient history; a1/b1 are the Gronwall exponents turning those into
    the uniform envelopes J0 (velocity, squared V-norm) and J1
    (temperature, squared V-norm).  K3 is the measured uniform bound on
    |A u|^2 along the reference trajectory, required only for the
    two-term-interpolant threshold.
    """

    nu: float
    kappa: float
    L: float
    lambda1: float
    c: float
    a1: float
    a2: float
    a3: float
    b1: float
    b2: float
    b3: float
    J0: float
    J1: float
    c1: Optional[float] = None
    c0: Optional[float] = None
    K3: Optional[float] = None
    mu_min_type1: Optional[float] = None
    mu_min_type2: Optional[float] = None

    def as_dict(self) -> dict:
        return asdict(self)


def uniform_bounds(
    nu: float, kappa: float, L: float, lambda1: float, c: float = 1.0
) -> BoundsReport:
    """A-priori bound constants for reference trajectories.

    All four parameters must be positive; c is the generic dimensionless
    constant of the underlying estimates.
    """
    for name, val in (("nu", nu), ("kappa", kappa), ("L", L), ("lambda1", lambda1), ("c", c)):
        if not (val > 0):
            raise ValueError(f"{name} must be positive, got {val}")
    s = math.sqrt(lambda1)
    a2 = c * L / (nu * s)
    b2 = a2
    a3 = _quotient(c * L * (1.0 + s), nu**2 * lambda1)
    b3 = _quotient(c * L * (1.0 + nu * s), kappa * nu * s)
    a1 = _quotient(c * L * a3, nu**5 * lambda1)
    b1 = _quotient(c * L * a3, kappa**3 * nu**2 * lambda1)
    J0 = (a2 + a3) * _safe_exp(a1)
    J1 = (b2 + b3) * _safe_exp(b1)
    return BoundsReport(
        nu=nu, kappa=kappa, L=L, lambda1=lambda1, c=c,
        a1=a1, a2=a2, a3=a3, b1=b1, b2=b2, b3=b3, J0=J0, J1=J1,
    )


def mu_threshold_type1(report: BoundsReport, c1: float) -> float:
    """Sufficient nudging strength for one-term (projection-type) observations."""
    if not (c1 > 0):
        raise ValueError("c1 must be positive")
    r = report
    return (
        8.0 / (r.kappa * r.lambda1)
        + 8.0 * c1**2 * r.a3 / r.nu
        + _quotient(8.0 * c1**4 * r.J1 * r.b3, r.kappa**2 * r.lambda1 * r.nu)
    )


def mu_threshold_type2(
    report: BoundsReport, c1: float, beta0: float, beta1: float, K3: float
) -> float:
    """Sufficient nudging strength for two-term (nodal-type) observations.

    beta0/beta1 are free envelope parameters that must dominate J0/J1;
    K3 bounds |A u|^2 along the reference trajectory.
    """
    if not (c1 > 0):
        raise ValueError("c1 must be positive")
    if not (K3 > 0):
        raise ValueError("K3 must be positive")
    if beta0 < report.J0:
        raise ValueError(
            f"beta0={beta0} must dominate the velocity envelope J0={report.J0}"
        )
    if beta1 < report.J1:
        raise ValueError(
            f"beta1={beta1} must dominate the temperature envelope J1={report.J1}"
        )
    r = report
    return (
        96.0 * c1**2 * (beta0 + beta1) / r.nu
        + 8.0 * c1**2 * K3 / (r.nu * r.lambda1)
        + 4.0 * c1**2 * r.J1 / (r.kappa * r.lambda1)
        + 4.0 * (r.lambda1**2 + 1.0) / (r.kappa * r.lambda1**2)
    )


def max_observation_spacing(mu: float, nu: float, c0: float) -> float:
    """Largest h with mu c0^2 h^2 <= nu: inf for an exact interpolant
    (c0 = 0), 0 for an infinite mu."""
    if not (mu > 0 and nu > 0 and c0 >= 0):
        raise ValueError("mu and nu must be positive, c0 non-negative")
    if c0 == 0:
        return math.inf
    if math.isinf(mu):
        return 0.0
    return math.sqrt(nu / (mu * c0**2))


def with_thresholds(
    report: BoundsReport,
    c1: float,
    c0: Optional[float] = None,
    K3: Optional[float] = None,
) -> BoundsReport:
    """The report of uniform_bounds with its thresholds filled in.

    The two-term threshold is computed only when K3 is supplied, with the
    envelopes J0/J1 as beta0/beta1 (their smallest admissible values); it
    is inf when an envelope is.
    """
    mu2 = None
    if K3 is not None:
        J0, J1 = report.J0, report.J1
        finite = math.isfinite(J0) and math.isfinite(J1)
        mu2 = mu_threshold_type2(report, c1, J0, J1, K3) if finite else math.inf
    return replace(
        report, c1=c1, c0=c0, K3=K3,
        mu_min_type1=mu_threshold_type1(report, c1), mu_min_type2=mu2,
    )


def estimate_ladyzhenskaya_constant(
    grid: Grid,
    sample_count: int = 200,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Empirical constant of |phi|_{L4}^2 <= c1 |phi| |phi|_V.

    Maximizes the ratio over random smooth scalar fields of both parities
    and random solenoidal velocity fields (using the pointwise Euclidean
    magnitude for the vector L4 norm).  Quartic powers are integrated on
    the collocation grid.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for i in range(sample_count):
        kind = i % 3
        if kind == 2:
            w = random_solenoidal(grid, rng)
            v1, v2 = synthesize([w.u1, w.u2])
            mag2 = v1**2 + v2**2
            l4sq = math.sqrt(quadrature(grid, mag2**2))
            worst = max(worst, l4sq / (norm_h(w) * norm_v(w)))
        else:
            f = random_scalar(grid, rng, COS if kind == 0 else SIN)
            vals = synthesize(f)
            l4sq = math.sqrt(quadrature(grid, vals**4))
            worst = max(worst, l4sq / (norm_h(f) * norm_v(f)))
    return worst
