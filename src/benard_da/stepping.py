"""IMEX time stepping: implicit per-mode diffusion, explicit advection.

Every step is CNAB2 (Crank-Nicolson diffusion, Adams-Bashforth-2 for the
explicit terms; Ascher-Ruuth-Wetton 1995).  Every step has the one length
StepperConfig.dt, so the AB2 weights are the constants 3/2 and -1/2, and
the Crank-Nicolson factors are cached per grid, diffusivity and dt (the
implicit nudging's divisor also per mu and mask), read-only.  The
explicit-tendency history travels alongside the state so that a resumed
integration reproduces an uninterrupted one bit for bit; a step given no
history takes its own start-of-step tendencies as the previous ones.  A
run spans a whole number of steps: a length that is negative, not finite
or not a whole multiple of dt is refused before any step.  One kernel,
step(), advances the velocity, the temperature and the passive
temperatures of State.passengers as the rows of one stack.

Nudging enters in one of two prepared forms (built by the assimilation
layer): a diagonal damping on observed modes folded into the implicit solve
together with its data term (projection-type observations, no dt limit), or
a fully explicit force (volume/nodal observations, dt <= 1/(2 mu) enforced
here).  Temperatures are never nudged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Tuple

import numpy as np

from .model import Forcing, PhysicalParams, State, advection_scalar, explicit_rhs
from .spectral import COS, SIN, Grid, VectorField, _adopt, _buffer

__all__ = [
    "StepperConfig",
    "History",
    "NudgingStep",
    "BlowUpError",
    "step",
    "integrate",
]

BLOWUP_THRESHOLD = 1e12


@dataclass(frozen=True)
class StepperConfig:
    """The fixed step size."""

    dt: float

    def __post_init__(self) -> None:
        if not (0 < self.dt < math.inf):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")


@dataclass(frozen=True)
class History:
    """Explicit tendencies of the previous step (for AB2 extrapolation).

    tendencies stacks those of u1, u2, theta and each passenger, in that
    order, as one (3 + K, nx/2 + 1, ny + 1) array for K passengers; step()
    returns it read-only, never writes to a history it is given, and
    refuses one whose row count is not its state's.  dt is the step that
    made them; a saved history can meet a stepper of another dt, and
    step() refuses it there.
    """

    tendencies: np.ndarray
    dt: float


@dataclass(frozen=True)
class NudgingStep:
    """One step's worth of prepared nudging input.

    Exactly one of the two forms is populated.  Implicit form: observed_mask
    marks the damped modes and data1/data2 hold the observed truth velocity
    coefficients at the step's end time (already masked).  Explicit form:
    force is -mu P[I_h(v) - I_h(u)] evaluated at the step's start.
    """

    mu: float
    observed_mask: Optional[np.ndarray] = None
    data1: Optional[np.ndarray] = None
    data2: Optional[np.ndarray] = None
    force: Optional[VectorField] = None

    def __post_init__(self) -> None:
        if not (0 <= self.mu < math.inf):
            raise ValueError(f"mu must be non-negative and finite, got {self.mu}")
        implicit = self.observed_mask is not None
        if implicit == (self.force is not None):
            raise ValueError("provide either the implicit form or the explicit force")
        if implicit and (self.data1 is None or self.data2 is None):
            raise ValueError("implicit nudging requires data1 and data2")


class BlowUpError(RuntimeError):
    """A coefficient left the finite range.

    Carries the failing time, the trajectory label, the field and the
    (n, m) mode of the largest coefficient (the stored row n in
    0 .. nx/2, which stands for the pair n, -n), its magnitude, and the
    time of the last finite state.
    """

    def __init__(
        self,
        time: float,
        label: Optional[str],
        field: str,
        mode: Tuple[int, int],
        magnitude: float,
        last_finite_time: float,
    ):
        self.time = time
        self.label = label
        self.field = field
        self.mode = mode
        self.magnitude = magnitude
        self.last_finite_time = last_finite_time
        where = f" in {label}" if label else ""
        super().__init__(
            f"solution blew up{where} at t = {time:.6g}: |{field}| = {magnitude:.6g}"
            f" at (n, m) = {mode}; last finite state at t = {last_finite_time:.6g}"
        )


def _check_finite(c: np.ndarray, last_time: float, time: float, label: Optional[str]):
    """Raise BlowUpError at the largest coefficient of a step's stacked update."""
    # |re|, |im| <= T / 1.5 bounds |c| by T (sqrt 2 < 1.5) without the complex
    # abs; a nan fails the comparison and takes the exact path
    parts, bound = c.view(float), BLOWUP_THRESHOLD / 1.5
    if parts.max() <= bound and parts.min() >= -bound:
        return
    mag = np.abs(c)
    i = int(np.argmax(mag))
    peak = float(mag.flat[i])
    if peak <= BLOWUP_THRESHOLD:
        return
    k, n, m = np.unravel_index(i, c.shape)
    field = ("u1", "u2", "theta")[k] if k < 3 else f"passenger {k - 3}"
    raise BlowUpError(time, label, field, (int(n), int(m)), peak, last_time)


def _step_count(length: float, dt: float, name: str = "length") -> int:
    """Number of dt steps spanning length.

    length must be finite, nonnegative and a whole multiple of dt (to a
    relative 1e-9, which absorbs the rounding of accumulated times).
    """
    n = length / dt
    steps = round(n) if math.isfinite(n) else -1
    if steps < 0 or not abs(n - steps) <= 1e-9 * n:
        raise ValueError(
            f"{name} {length} is not a nonnegative whole multiple of dt={dt}"
        )
    return steps


def _check_explicit_nudging(dt: float, mu: float) -> None:
    if mu > 0 and dt > 0.5 / mu:
        raise ValueError(f"explicit nudging requires dt <= 1/(2 mu): dt={dt}, mu={mu}")


@lru_cache(maxsize=32)
def _diffusion_factors(
    g: Grid, diffusivity: float, dt: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Crank-Nicolson (num, den): c_new = (num c + dt x) / den.

    Read-only and complex, so that the update uses them without a cast; an
    exact cast, so that they give the bits of the real factors.
    """
    half = 0.5 * dt * g.lam
    return _frozen(1.0 - diffusivity * half), _frozen(1.0 + diffusivity * half)


@lru_cache(maxsize=32)
def _nudged_denominator(
    g: Grid, nu: float, dt: float, mu: float, mask: tuple
) -> np.ndarray:
    """The implicit nudging's velocity divisor den + dt mu mask, for a mask
    given as (dtype, shape, bytes); made once per configuration."""
    marks = np.frombuffer(mask[2], dtype=mask[0]).reshape(mask[1])
    return _frozen(_diffusion_factors(g, nu, dt)[1] + dt * mu * marks)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = a.astype(complex)
    a.flags.writeable = False
    return a


def tendency_history(
    s: State, cfg: StepperConfig, forcing: Optional[Forcing] = None
) -> History:
    """The explicit tendencies of s: the History a step from s returns.

    step()'s helper.  Each passenger takes theta's tendency
    u2 - (u.grad) passenger, without the forcing.
    """
    vec, sc = explicit_rhs(s, forcing)
    rows = [vec.u1.coeffs, vec.u2.coeffs, sc.coeffs]
    if s.passengers:
        u = s.velocity
        rows += [(u.u2 - a).coeffs for a in advection_scalar(u, s.passengers)]
    e = np.stack(rows)
    e.flags.writeable = False
    return History(e, cfg.dt)


def step(
    s: State,
    p: PhysicalParams,
    cfg: StepperConfig,
    nudging: Optional[NudgingStep] = None,
    forcing: Optional[Forcing] = None,
    history: Optional[History] = None,
    label: Optional[str] = None,
) -> Tuple[State, History]:
    """Advance one CNAB2 step of cfg.dt; returns the new state and history.

    A given history must come from a step of the same dt and hold one row
    per row of the state; without one, the step's own start-of-step
    tendencies stand in for the previous ones.  Passengers take kappa
    diffusion and the start-of-step velocity; a blow-up in one names it
    "passenger k".
    """
    g, dt = s.grid, cfg.dt
    rows = 3 + len(s.passengers)
    if history is not None and history.dt != dt:
        raise ValueError(f"history was made with dt={history.dt}, not dt={dt}")
    if history is not None and len(history.tendencies) != rows:
        raise ValueError(f"history has {len(history.tendencies)} rows, the state {rows}")
    new_history = tendency_history(s, cfg, forcing)
    # u1, u2, theta and the passengers advance as one stack; the diffusion
    # factors belong to the velocity pair (nu) and to the temperatures (kappa)
    e = new_history.tendencies
    c = np.empty_like(e)
    x = np.multiply(e, 1.5, out=_buffer(e.shape, complex, "step"))
    np.multiply(e if history is None else history.tendencies, -0.5, out=c)
    x += c
    x *= dt
    num_u, den_u = _diffusion_factors(g, p.nu, dt)
    num_t, den_t = _diffusion_factors(g, p.kappa, dt)

    u, temperatures = s.velocity, (s.temperature, *s.passengers)
    np.multiply(u.u1.coeffs, num_u, out=c[0])
    np.multiply(u.u2.coeffs, num_u, out=c[1])
    for row, f in zip(c[2:], temperatures):
        np.multiply(f.coeffs, num_t, out=row)
    c += x

    if nudging is not None and nudging.mu > 0:
        if nudging.force is not None:
            _check_explicit_nudging(dt, nudging.mu)
            c[0] += dt * nudging.force.u1.coeffs
            c[1] += dt * nudging.force.u2.coeffs
        else:
            mask = np.asarray(nudging.observed_mask)
            den_u = _nudged_denominator(
                g, p.nu, dt, nudging.mu, (mask.dtype.str, mask.shape, mask.tobytes())
            )
            c[0] += dt * nudging.mu * nudging.data1
            c[1] += dt * nudging.mu * nudging.data2

    c[:2] /= den_u
    c[2:] /= den_t
    t_new = s.time + dt
    _check_finite(c, s.time, t_new, label)
    # the new fields are views of c, which nothing else keeps
    new = State(
        VectorField(_adopt(g, COS, c[0]), _adopt(g, SIN, c[1])),
        _adopt(g, SIN, c[2]),
        t_new,
        tuple(_adopt(g, SIN, r) for r in c[3:]),
    )
    return new, new_history


def integrate(
    s0: State,
    p: PhysicalParams,
    cfg: StepperConfig,
    t_end: float,
    observers: Iterable[Tuple[int, object]] = (),
    forcing: Optional[Forcing] = None,
    history: Optional[History] = None,
    label: Optional[str] = None,
) -> Tuple[State, Optional[History]]:
    """Step from s0 to t_end; observers are (every_n_steps, callback) pairs.

    t_end - s0.time must be a whole number of steps of cfg.dt (zero
    returns s0 and history unchanged); anything else is refused before
    any step.  Every step is CNAB2; without a history the first one
    extrapolates from its own tendencies.  Passing the returned history
    into a follow-up call makes two integrations compose to one over
    their joint length bit-exactly.
    """
    observers = tuple(observers)
    for every, _ in observers:
        if every < 1:
            raise ValueError(f"observer period must be at least 1 step, got {every}")
    state, hist = s0, history
    for k in range(1, _step_count(t_end - s0.time, cfg.dt) + 1):
        state, hist = step(state, p, cfg, forcing=forcing, history=hist, label=label)
        for every, fn in observers:
            if k % every == 0:
                fn(state)
    return state, hist
