"""Helpers that only the tests use.

The package differentiates in one place, the divergence of the analyzed
advection fluxes (model._divergence).  The plain spectral forms below
serve the tests as oracles and to make single modes.

The decay certificate follows a sliding-window Gronwall argument: if every
window integral of the damping coefficient is at least gamma > 0 and the
negative part stays bounded, the squared synchronization error decays
exponentially with per-time rate at least gamma/tau.  The acceptance
suite's criterion 8 checks a converging twin against it.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from benard_da.spectral import COS, SIN, SpectralField


def derivative_x(f):
    return f * (1j * f.grid.kx[:, None])


def derivative_y(f):
    """d/dy flips parity: sin -> cos with +m pi, cos -> sin with -m pi.

    The cos -> sin image of the m = ny column is not representable and is
    truncated by the field constructor.
    """
    g = f.grid
    if f.parity == SIN:
        return SpectralField(g, COS, f.coeffs * g.ky[None, :])
    return SpectralField(g, SIN, f.coeffs * (-g.ky[None, :]))


def dealias(f):
    """The field (scalar or vector) cut to the grid's dealiased band."""
    return f * f.grid.dealias_mask


def real_mode(grid, parity, n, m, amplitude=1.0, phase=0.0):
    """amplitude * Re[exp(i(2 pi n x / L + phase))] * basis_m(y), as a field."""
    c = np.zeros(grid.coeff_shape, dtype=np.complex128)
    if n in (0, grid.nx // 2, -grid.nx // 2):
        c[abs(n), m] = amplitude * np.cos(phase)
    else:
        half = 0.5 * amplitude * np.exp(1j * phase)
        c[abs(n), m] = half if n > 0 else np.conj(half)
    return SpectralField(grid, parity, c)


def pairwise_contract_margin(series, kappa, lambda1):
    """slaving_contract_margin over every sample pair s <= t at once: the
    n x n form the package replaced, kept as its oracle."""
    t = series.times
    y = series.diff_sq
    env = y[:, None] * np.exp(-2.0 * kappa * lambda1 * (t[None, :] - t[:, None]))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = y[None, :] / env
    iu = np.triu_indices(len(t), k=0)
    vals = ratio[iu]
    vals = vals[np.isfinite(vals)]
    return float(np.max(vals)) if len(vals) else 0.0


def decay_coefficient_series(
    mu: float,
    nu: float,
    kappa: float,
    lambda1: float,
    c1: float,
    u_v_norms: Sequence[float],
    theta_v_norms: Sequence[float],
) -> np.ndarray:
    """Instantaneous damping coefficient of the synchronization error.

    alpha(t) = mu - 4/(kappa lambda1) - 4 c1^2 |u|_V^2 / nu
               - 4 c1^4 |theta|_V^4 / (kappa^2 lambda1 nu),
    evaluated from measured reference-trajectory norms.
    """
    uu = np.asarray(u_v_norms, dtype=float)
    tt = np.asarray(theta_v_norms, dtype=float)
    if uu.shape != tt.shape:
        raise ValueError("norm series must have equal length")
    return (
        mu
        - 4.0 / (kappa * lambda1)
        - 4.0 * c1**2 * uu**2 / nu
        - 4.0 * c1**4 * tt**4 / (kappa**2 * lambda1 * nu)
    )


def cap_decay_coefficient(
    alpha: Sequence[float], nu: float, kappa: float, lambda1: float
) -> np.ndarray:
    """Effective damping: the error cannot decay faster than dissipation.

    The differential inequality for the squared error holds with
    min(nu lambda1 / 2, kappa lambda1 / 2, alpha(t)), so certification
    against observed decay must use this capped coefficient.
    """
    cap = 0.5 * lambda1 * min(nu, kappa)
    return np.minimum(np.asarray(alpha, dtype=float), cap)


@dataclass(frozen=True)
class GronwallCertificate:
    certified: bool
    gamma: float
    rate: float
    tau: float
    max_negative_part: float
    observed_rate: Optional[float] = None
    consistent: Optional[bool] = None


def _window_trapezoid(times: np.ndarray, values: np.ndarray, t0: float, t1: float) -> float:
    inside = (times >= t0 - 1e-12) & (times <= t1 + 1e-12)
    ts = times[inside]
    vs = values[inside]
    if ts[-1] < t1 - 1e-12:
        ts = np.append(ts, t1)
        vs = np.append(vs, np.interp(t1, times, values))
    if len(ts) < 4:
        raise ValueError(
            f"mesh too coarse: window [{t0:.6g}, {t1:.6g}] holds {len(ts)} samples, need 4"
        )
    dt = np.diff(ts)
    return float(np.sum(0.5 * dt * (vs[:-1] + vs[1:])))


def gronwall_certify(
    times: Sequence[float],
    alpha: Sequence[float],
    tau: float,
    y: Optional[Sequence[float]] = None,
) -> GronwallCertificate:
    """Sliding-window decay certificate for dY/dt + alpha(t) Y <= 0.

    Certifies when every window integral of alpha over length tau is at
    least some gamma > 0 (gamma is the smallest such integral) and reports
    the largest window integral of the negative part.  When the sampled Y
    is supplied, its fitted exponential rate is cross-checked against the
    certified rate gamma/tau: consistency means decaying at least 80% as
    fast as certified.
    """
    t = np.asarray(times, dtype=float)
    a = np.asarray(alpha, dtype=float)
    if t.ndim != 1 or t.shape != a.shape or len(t) < 2:
        raise ValueError("times and alpha must be equal-length 1-D series")
    if np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing")
    if not (tau > 0):
        raise ValueError("tau must be positive")
    if t[-1] - t[0] < tau:
        raise ValueError("series span is shorter than one window")

    neg = np.maximum(-a, 0.0)
    gamma = math.inf
    neg_max = 0.0
    for i in range(len(t)):
        t1 = t[i] + tau
        if t1 > t[-1] + 1e-12:
            break
        gamma = min(gamma, _window_trapezoid(t, a, t[i], t1))
        neg_max = max(neg_max, _window_trapezoid(t, neg, t[i], t1))
    certified = bool(gamma > 0.0) and math.isfinite(neg_max)
    rate = gamma / tau

    observed = None
    consistent = None
    if y is not None:
        yv = np.asarray(y, dtype=float)
        ok = yv > 0.0
        if ok.sum() >= 2:
            slope = np.polyfit(t[ok], np.log(yv[ok]), 1)[0]
            observed = float(-slope)
            if certified:
                consistent = bool(observed >= 0.8 * rate)
    return GronwallCertificate(
        certified=certified,
        gamma=float(gamma),
        rate=float(rate),
        tau=float(tau),
        max_negative_part=float(neg_max),
        observed_rate=observed,
        consistent=consistent,
    )
