"""Twin experiments: a truth run generating coarse velocity observations
and an assimilated copy nudged toward them in lock-step.

The assimilated pair (v, eta) obeys the same dynamics as the truth with one
extra velocity term, -mu P[I_h(v) - I_h(u)]; the temperature equation never
sees an observation (the observation operator itself rejects scalars).  For
the modal operator the nudging is folded into the implicit solve with
end-of-step observation data, which keeps an already-synchronized pair
synchronized to round-off and removes any dt restriction from large mu; for
volume/nodal operators the force is explicit with start-of-step data and
TwinConfig, like the stepper, refuses dt > 1/(2 mu).

Both trajectories share one dt.  One lock-step loop advances the nudged
copies, fed one step's observations at a time by one of two sources: the
truth, stepped and measured once per spec per step (run_twin), or the rows
of an ObservationRecord (run_from_record).  An observation is the finite
data of observations.measure() and its interpolant I_h; a copy turns it
into the step's nudging the same way whatever the source.  One truth can
drive several copies at once (run_twin over a sequence of configs, as a
sweep over mu and h does); each copy is bit-identical to its own single
run: each prepares its own nudging, then the live copies take the step as
one coefficient stack, in one call of stepping.step; if that call
raises, they take it again one by one, so a blow-up or a refused dt
stops only its own copy.  Error and truth-diagnostic series are sampled
on a fixed step cadence; the observations a truth run feeds can be
recorded to a file, and replaying them reproduces the live assimilated
trajectory bit for bit.
"""

from __future__ import annotations

import math
import zipfile
import zlib
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .model import PhysicalParams, State
from .observations import (
    MODAL,
    InterpolantSpec,
    interpolate,
    measure,
    modal_projection_mask,
    observe,
)
from .spectral import (
    COS,
    SIN,
    Grid,
    SpectralField,
    VectorField,
    _adopt,
    _clean,
    _leray_coeffs,
    norm_h,
    norm_laplacian,
    norm_v,
    random_scalar,
    random_solenoidal,
)
from .stepping import (
    History,
    NudgingStep,
    StepperConfig,
    _check_explicit_nudging,
    _step_count,
    integrate,
    step,
)

__all__ = [
    "ZERO",
    "PERTURBED_TRUTH",
    "CUSTOM",
    "TwinConfig",
    "ErrorSeries",
    "TruthDiagnostics",
    "TwinResult",
    "nudging_force",
    "spin_up",
    "run_twin",
    "FitResult",
    "fit_decay_rate",
    "SlavingSeries",
    "run_temperature_slaving",
    "slaving_contract_margin",
    "ObservationRecord",
    "run_from_record",
]

ZERO = "zero"
PERTURBED_TRUTH = "perturbed-truth"
CUSTOM = "custom"
_POLICIES = (ZERO, PERTURBED_TRUTH, CUSTOM)


@dataclass(frozen=True)
class TwinConfig:
    """Parameters of one twin experiment.

    Each value has one home: params holds nu, kappa and mu, spec holds the
    observation kind and spacing h, and spec.grid holds L and the
    resolution.  sample_cadence counts steps between recorded samples.
    epsilon scales the perturbed-truth initial policies.  Lengths are whole
    steps; explicit (volume/nodal) nudging needs dt <= 1/(2 mu), as in step.
    """

    params: PhysicalParams
    spec: InterpolantSpec
    stepper: StepperConfig
    run_time: float
    spinup_time: float = 100.0
    v0_policy: str = ZERO
    eta0_policy: str = ZERO
    epsilon: float = 0.0
    sample_cadence: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        _step_count(self.spinup_time, self.stepper.dt, "spinup_time")
        if not (self.run_time > 0):
            raise ValueError("run_time must be positive")
        _step_count(self.run_time, self.stepper.dt, "run_time")
        if self.spec.kind != MODAL:
            _check_explicit_nudging(self.stepper.dt, self.params.mu)
        if self.v0_policy not in _POLICIES or self.eta0_policy not in _POLICIES:
            raise ValueError(f"initial policies must be one of {_POLICIES}")
        if self.sample_cadence < 1:
            raise ValueError("sample_cadence must be at least 1")
        if not (0 <= self.epsilon < math.inf):
            raise ValueError(
                f"epsilon must be non-negative and finite, got {self.epsilon}"
            )


@dataclass(frozen=True)
class ErrorSeries:
    """Synchronization errors: velocity (w) and temperature (xi) differences
    in both the L2 (H) and gradient (V) norms."""

    times: np.ndarray
    w_h: np.ndarray
    w_v: np.ndarray
    xi_h: np.ndarray
    xi_v: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.times)
        for name in ("w_h", "w_v", "xi_h", "xi_v"):
            arr = getattr(self, name)
            if len(arr) != n:
                raise ValueError("series columns must share one length")
            if np.any(arr < 0):
                raise ValueError(f"{name} must be nonnegative")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    def energy(self) -> np.ndarray:
        """Squared combined error w_h^2 + xi_h^2, the decaying quantity."""
        return self.w_h**2 + self.xi_h**2


@dataclass(frozen=True)
class TruthDiagnostics:
    """Reference-trajectory norms sampled alongside the errors."""

    times: np.ndarray
    u_v: np.ndarray
    theta_v: np.ndarray
    a0u_sq: np.ndarray

    @property
    def k3(self) -> float:
        """Running max of |A u|^2, the two-term-threshold trajectory bound."""
        return float(np.max(self.a0u_sq)) if len(self.a0u_sq) else 0.0


@dataclass(frozen=True)
class TwinResult:
    errors: ErrorSeries
    truth_diagnostics: TruthDiagnostics
    truth_final: State
    assimilated_final: State


def nudging_force(
    v: VectorField, u_obs: VectorField, spec: InterpolantSpec, mu: float
) -> VectorField:
    """Feedback force -mu P[I_h(v) - u_obs]; u_obs must come from spec.

    The difference, the projection and the scaling run on coefficient
    arrays in the order of the field arithmetic, so the force has the bits
    of -mu * leray_project(observe(v, spec) - u_obs); only the result is
    built as fields.
    """
    if not (0 <= mu < math.inf):
        raise ValueError(f"mu must be non-negative and finite, got {mu}")
    if v.grid != spec.grid or u_obs.grid != spec.grid:
        raise ValueError("velocity, observations, and spec must share one grid")
    if mu == 0.0:
        return VectorField.zeros(v.grid)
    g, o = spec.grid, observe(v, spec)
    # the difference of two clean fields is clean; the projection's is not
    p1, p2 = _leray_coeffs(g, o.u1.coeffs - u_obs.u1.coeffs, o.u2.coeffs - u_obs.u2.coeffs)
    return VectorField(
        _adopt(g, COS, -mu * _clean(p1, COS)), _adopt(g, SIN, -mu * _clean(p2, SIN))
    )


def spin_up(
    params: PhysicalParams,
    grid: Grid,
    stepper: StepperConfig,
    spinup_time: float,
    seed: int = 0,
    observers=(),
) -> Tuple[State, Optional[History]]:
    """Integrate the truth from a small seeded random perturbation.

    Long enough runs land on (or near) the attractor: supercritical
    parameters settle into convection, subcritical ones decay toward the
    conduction fixed point.  spinup_time must be a whole number of
    steps; zero returns the initial perturbation and no history.
    """
    rng = np.random.default_rng(seed)
    s0 = State(
        random_solenoidal(grid, rng, norm=0.01),
        random_scalar(grid, rng, SIN, norm=0.01),
    )
    return integrate(s0, params, stepper, spinup_time, observers=observers, label="truth")


def _initial_state(
    cfg: TwinConfig,
    truth: State,
    v0: Optional[VectorField],
    eta0: Optional[SpectralField],
) -> State:
    g = truth.grid
    rng = np.random.default_rng(cfg.seed + 1)
    if cfg.v0_policy == ZERO:
        vel = VectorField.zeros(g)
    elif cfg.v0_policy == PERTURBED_TRUTH:
        noise = random_solenoidal(g, rng, norm=cfg.epsilon)
        vel = truth.velocity + noise
    else:
        vel = v0
    if cfg.eta0_policy == ZERO:
        tem = SpectralField.zeros(g, SIN)
    elif cfg.eta0_policy == PERTURBED_TRUTH:
        noise = random_scalar(g, rng, SIN, norm=cfg.epsilon)
        tem = truth.temperature + noise
    else:
        tem = eta0
    return State(vel, tem, truth.time)


def _truth_diagnostics(truth: State) -> Tuple[float, float, float]:
    """|u|_V, |theta|_V and |Au|^2 of a truth sample, shared by its copies."""
    u = truth.velocity
    return norm_v(u), norm_v(truth.temperature), norm_laplacian(u) ** 2


class _SeriesAccumulator:
    def __init__(self) -> None:
        self.rows: List[Tuple[float, ...]] = []

    def sample(self, truth: State, assim: State, diagnostics: Tuple[float, ...]) -> None:
        """Append the errors of assim against truth and truth's diagnostics."""
        w = truth.velocity - assim.velocity
        xi = truth.temperature - assim.temperature
        self.rows.append(
            (truth.time, norm_h(w), norm_v(w), norm_h(xi), norm_v(xi), *diagnostics)
        )

    def build(self) -> Tuple[ErrorSeries, TruthDiagnostics]:
        cols = np.array(self.rows, dtype=float).T
        errors = ErrorSeries(cols[0], cols[1], cols[2], cols[3], cols[4])
        diag = TruthDiagnostics(cols[0], cols[5], cols[6], cols[7])
        return errors, diag


# what ObservationRecord.save writes: the spec flat, then the stream
_RECORD_KEYS = ("kind", "h", "L", "nx", "ny", "dt", "times", "payload1", "payload2")


@dataclass(frozen=True)
class ObservationRecord:
    """Per-step coarse velocity observations from a truth run.

    spec is the observation spec that made the record, its grid included,
    and dt the step; a replay takes only an equal spec and dt.  save()
    writes the spec flat (kind, h, L, nx, ny) and load() rebuilds it,
    refusing a file that lacks any of them or holds any other key.

    Row k holds the data observations.measure() gave at step k: modal
    records store the complex coefficients of the observed modes at
    step-end times, in the order of the half-layout mask (stored rows
    n = 0 .. nx/2); volume/nodal records store cell averages/samples at
    step-start times.  Every step is recorded, whatever mu.  Replaying
    against the same configuration reproduces the live assimilated
    trajectory exactly.
    """

    spec: InterpolantSpec
    dt: float
    times: np.ndarray
    payload1: np.ndarray
    payload2: np.ndarray

    def save(self, path) -> None:
        g = self.spec.grid
        # to an open file, so that numpy appends no ".npz" to path
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh,
                kind=self.spec.kind,
                h=self.spec.h,
                L=g.L,
                nx=g.nx,
                ny=g.ny,
                dt=self.dt,
                times=self.times,
                payload1=self.payload1,
                payload2=self.payload2,
            )

    @staticmethod
    def load(path) -> "ObservationRecord":
        """The record at path; any refusal is a ValueError naming the file.
        Non-finite numbers and a dt that is not positive are refused; a
        file that cannot be opened raises the OSError of np.load."""
        try:
            z = np.load(path)
            if not isinstance(z, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            with z:
                missing = [k for k in _RECORD_KEYS if k not in z.files]
                if missing:
                    raise ValueError(f"lacks {', '.join(missing)}")
                unknown = [k for k in z.files if k not in _RECORD_KEYS]
                if unknown:
                    raise ValueError(f"unknown key {', '.join(unknown)}")
                grid = Grid(float(z["L"]), int(z["nx"]), int(z["ny"]))
                dt = float(z["dt"])
                if not 0 < dt < math.inf:
                    raise ValueError(f"dt {dt} is not positive and finite")
                stream = {k: z[k].copy() for k in ("times", "payload1", "payload2")}
                bad = [k for k, a in stream.items() if not np.isfinite(a).all()]
                if bad:
                    raise ValueError(f"non-finite {', '.join(bad)}")
                spec = InterpolantSpec(str(z["kind"]), float(z["h"]), grid)
                return ObservationRecord(spec=spec, dt=dt, **stream)
        except (ValueError, TypeError, EOFError, zipfile.BadZipFile, zlib.error) as e:
            raise ValueError(f"record {path}: {e}") from e


class _StepObservations(dict):
    """One step's observations: spec -> (time, data, I_h(data)).

    Filled from the truth stepped from now to nxt, measured once per spec on
    first use and shared by every copy using that spec: modal specs measure
    the end-of-step velocity (the implicit form's data), volume/nodal specs
    the start-of-step velocity.  A replay fills its one spec from a record
    row instead.
    """

    def __init__(self, now: Optional[State] = None, nxt: Optional[State] = None):
        super().__init__()
        self.now, self.nxt = now, nxt

    def __missing__(self, spec: InterpolantSpec):
        s = self.nxt if spec.kind == MODAL else self.now
        data = measure(s.velocity, spec)
        obs = self[spec] = (s.time, data, interpolate(data, spec))
        return obs


@dataclass
class _Copy:
    """One nudged copy in a lock-step run and what stopped it, if anything.

    acc samples the errors against the truth every cadence steps (live
    runs); residuals collects the observed-space residual at each data time
    (replays) against u_obs, the step's interpolated observations.
    """

    params: PhysicalParams
    spec: InterpolantSpec
    stepper: StepperConfig
    state: Optional[State] = None
    cadence: int = 1
    acc: _SeriesAccumulator = field(default_factory=_SeriesAccumulator)
    residuals: Optional[list] = None
    history: Optional[History] = None
    failure: Optional[Exception] = None
    u_obs: Optional[VectorField] = None

    def nudging(self, obs: _StepObservations) -> Optional[NudgingStep]:
        """The copy's nudging across the step whose observations are obs."""
        mu, spec = self.params.mu, self.spec
        if mu > 0.0 or self.residuals is not None:
            _, _, self.u_obs = obs[spec]
        # The residual is taken at the data's time: before the step for the
        # start-of-step volume/nodal data, after it for the modal end-of-step.
        if spec.kind != MODAL:
            self.take_residual()
        if mu == 0.0:
            return None
        if spec.kind == MODAL:
            u = self.u_obs
            return NudgingStep(mu, modal_projection_mask(spec), u.u1.coeffs, u.u2.coeffs)
        return NudgingStep(mu, force=nudging_force(self.state.velocity, self.u_obs, spec, mu))

    def take_residual(self) -> None:
        if self.residuals is not None:
            o = observe(self.state.velocity, self.spec)
            self.residuals.append(norm_h(o - self.u_obs))


def _advance(copies: List[_Copy], obs: _StepObservations) -> None:
    """Step the copies across the step whose observations are obs: as one
    stack, and if that raises, again one by one, each as a stack of one."""
    batch = []
    for c in copies:
        try:
            batch.append((c, c.nudging(obs)))
        except Exception as e:
            c.failure = e

    def take(group):
        states, nudges, hists = zip(*[(c.state, nd, c.history) for c, nd in group])
        c0 = group[0][0]
        new = step(states, c0.params, c0.stepper, nudges, history=hists, label="assimilated")
        for (c, _), s, h in zip(group, *new):
            c.state, c.history = s, h

    try:
        if batch:
            take(batch)
    except Exception:
        for one in batch:
            try:
                take([one])
            except Exception as e:
                one[0].failure = e


def _lock_step(
    copies: List[_Copy], feed: Iterator[Tuple[Optional[State], _StepObservations]]
) -> None:
    """Advance every live copy across each step that feed yields.

    feed yields the end-of-step truth (None in a replay) and the step's
    observations.  An exception in a copy stops that copy; one in feed (the
    truth) stops every copy still running.
    """
    live = [c for c in copies if c.failure is None]
    if not live:
        return
    try:
        for k, (truth, obs) in enumerate(feed, 1):
            _advance(live, obs)
            diagnostics = None
            for c in (c for c in live if c.failure is None):
                try:
                    if c.spec.kind == MODAL:
                        c.take_residual()
                    if truth is not None and k % c.cadence == 0:
                        diagnostics = diagnostics or _truth_diagnostics(truth)
                        c.acc.sample(truth, c.state, diagnostics)
                except Exception as e:
                    c.failure = e
            live = [c for c in live if c.failure is None]
            if not live:
                return
    except Exception as e:
        for c in live:
            c.failure = e


def _truth_key(cfg: TwinConfig, spun_up: bool) -> tuple:
    """What fixes the truth trajectory; spun_up adds the spin-up inputs."""
    p = cfg.params
    key = (cfg.spec.grid, p.nu, p.kappa, cfg.stepper, cfg.run_time)
    return key + ((cfg.spinup_time, cfg.seed) if spun_up else ())


def run_twin(
    cfg: Union[TwinConfig, Sequence[TwinConfig]],
    truth0: Optional[State] = None,
    v0: Optional[VectorField] = None,
    eta0: Optional[SpectralField] = None,
    record_to=None,
) -> Union[TwinResult, List[Union[TwinResult, Exception]]]:
    """Run twin experiments in lock-step against one truth.

    One config returns its TwinResult or raises.  A sequence of configs
    advances one truth and nudges one copy per config against it; it
    returns a list in config order holding each copy's TwinResult, or the
    exception that stopped that copy (an exception in the truth stops
    every copy still running).  Each entry is bit-identical to the
    single-config run.  The configs must agree on the grid, nu, kappa,
    stepper and run_time, and without truth0 on spinup_time and seed.

    truth0 skips the spin-up (a reloaded checkpoint, typically); v0 and
    eta0 serve every custom-policy copy, and a custom policy without its
    state is refused before the spin-up.  The returned series sample the
    state every cfg.sample_cadence steps, starting with the initial pair.
    record_to, if given, is a path that receives the coarse observation
    stream; it takes a single config only.
    """
    single = isinstance(cfg, TwinConfig)
    configs = [cfg] if single else list(cfg)
    if not configs:
        raise ValueError("run_twin needs at least one config")
    if record_to is not None and not single:
        raise ValueError("record_to takes a single config")
    first = configs[0]
    key = _truth_key(first, truth0 is None)
    if any(_truth_key(c, truth0 is None) != key for c in configs):
        raise ValueError(
            "configs of one run must agree on the grid, nu, kappa, stepper"
            " and run_time (and spinup_time and seed without truth0)"
        )
    for name, given in (("v0", v0), ("eta0", eta0)):
        if given is None and any(getattr(c, f"{name}_policy") == CUSTOM for c in configs):
            raise ValueError(f"{name}_policy='custom' requires an explicit {name}")
    g = first.spec.grid
    if truth0 is None:
        # the spin-up's history is dropped, so that a given truth0 starts alike
        truth0, _ = spin_up(
            first.params, g, first.stepper, first.spinup_time, seed=first.seed
        )
    elif truth0.grid != g:
        raise ValueError("truth0 grid does not match the observation spec")
    truth, t_hist = truth0, None

    copies = [
        _Copy(c.params, c.spec, c.stepper, cadence=c.sample_cadence) for c in configs
    ]
    fed = [] if record_to is not None else None  # (time, data1, data2) rows
    diagnostics = None
    for c, cfg_c in zip(copies, configs):
        try:
            c.state = _initial_state(cfg_c, truth, v0, eta0)
            diagnostics = diagnostics or _truth_diagnostics(truth)
            c.acc.sample(truth, c.state, diagnostics)
        except Exception as e:
            c.failure = e

    def truth_steps():
        nonlocal truth, t_hist
        for _ in range(_step_count(first.run_time, first.stepper.dt)):
            nxt, t_hist = step(
                truth, first.params, first.stepper, history=t_hist, label="truth"
            )
            obs = _StepObservations(truth, nxt)
            if fed is not None:
                t, data, _ = obs[first.spec]
                fed.append((t, *data))
            truth = nxt
            yield truth, obs

    _lock_step(copies, truth_steps())

    if single and copies[0].failure is not None:
        raise copies[0].failure
    if record_to is not None:
        stream = map(np.array, zip(*fed))  # times, payload1, payload2
        ObservationRecord(first.spec, first.stepper.dt, *stream).save(record_to)

    results = [
        c.failure or TwinResult(*c.acc.build(), truth, c.state) for c in copies
    ]
    return results[0] if single else results


def run_from_record(
    record: ObservationRecord,
    params: PhysicalParams,
    spec: InterpolantSpec,
    stepper: StepperConfig,
    v0: Optional[VectorField] = None,
    eta0: Optional[SpectralField] = None,
) -> Tuple[State, np.ndarray, np.ndarray]:
    """Assimilate against a pre-recorded observation stream.

    Returns the final assimilated state, the sample times, and the
    observed-space residual |I_h(v) - I_h(u)|_H at each step (the only
    error measurable without the truth trajectory).
    """
    if record.spec != spec or record.dt != stepper.dt:
        raise ValueError("record does not match the observation spec and stepper")
    g = spec.grid
    n, row = len(record.times), measure(VectorField.zeros(g), spec)[0].shape
    for name in ("payload1", "payload2"):
        payload = getattr(record, name)
        if len(payload) != n:
            raise ValueError(f"record {name} has {len(payload)} rows for {n} times")
        if n and payload.shape[1:] != row:
            raise ValueError(
                f"record {name} rows have shape {payload.shape[1:]};"
                f" measure gives {row} for this spec"
            )
    start = State(
        v0 if v0 is not None else VectorField.zeros(g),
        eta0 if eta0 is not None else SpectralField.zeros(g, SIN),
    )
    copy = _Copy(params, spec, stepper, state=start, residuals=[])

    def record_rows():
        for t, d1, d2 in zip(record.times, record.payload1, record.payload2):
            obs = _StepObservations()
            obs[spec] = (t, (d1, d2), interpolate((d1, d2), spec))
            yield None, obs

    _lock_step([copy], record_rows())
    if copy.failure is not None:
        raise copy.failure
    return copy.state, record.times.copy(), np.array(copy.residuals)


@dataclass(frozen=True)
class FitResult:
    rate: Optional[float]
    r_squared: Optional[float]
    saturated: bool
    sample_count: int


def fit_decay_rate(series: ErrorSeries, window: Tuple[float, float]) -> FitResult:
    """Least-squares exponential rate of the combined squared error.

    Fits log(w_h^2 + xi_h^2) over the window; a positive rate means decay.
    Windows containing exactly-zero energies report saturation (already
    converged) instead of a rate.
    """
    t0, t1 = window
    if not (t1 > t0):
        raise ValueError("window must have positive length")
    sel = (series.times >= t0) & (series.times <= t1)
    t = series.times[sel]
    y = series.energy()[sel]
    if len(t) < 10:
        raise ValueError(f"window holds {len(t)} samples, need at least 10")
    if np.any(y <= 0.0):
        return FitResult(rate=None, r_squared=None, saturated=True, sample_count=len(t))
    logy = np.log(y)
    slope, intercept = np.polyfit(t, logy, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((logy - fitted) ** 2))
    ss_tot = float(np.sum((logy - logy.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(rate=float(-slope), r_squared=r2, saturated=False, sample_count=len(t))


@dataclass(frozen=True)
class SlavingSeries:
    """Squared H-norm of the difference of two temperatures carried by one
    velocity trajectory."""

    times: np.ndarray
    diff_sq: np.ndarray


def run_temperature_slaving(
    truth0: State,
    params: PhysicalParams,
    stepper: StepperConfig,
    theta_a: SpectralField,
    theta_b: SpectralField,
    run_time: float,
    sample_cadence: int = 1,
) -> SlavingSeries:
    """Advect two temperatures with one velocity and track their gap.

    The difference obeys a pure advection-diffusion equation, so its
    squared norm contracts at least as fast as thermal conduction on the
    gravest mode, whatever the carrier does.  theta_a and theta_b ride as
    passengers of truth0 in one integrate() call.
    """
    if sample_cadence < 1:
        raise ValueError(f"sample_cadence must be at least 1, got {sample_cadence}")
    s0 = State(truth0.velocity, truth0.temperature, truth0.time, (theta_a, theta_b))
    times, gaps = [], []

    def sample(s: State) -> None:
        times.append(s.time)
        gaps.append(norm_h(s.passengers[0] - s.passengers[1]) ** 2)

    sample(s0)
    integrate(
        s0, params, stepper, s0.time + run_time, ((sample_cadence, sample),),
        label="truth",
    )
    return SlavingSeries(np.array(times), np.array(gaps))


def slaving_contract_margin(
    series: SlavingSeries, kappa: float, lambda1: float
) -> float:
    """Worst ratio of measured gap to the conduction-decay envelope.

    For every sample pair s <= t the contract is
    gap(t) <= exp(-2 kappa lambda1 (t - s)) gap(s); the returned value is
    the max of gap(t) / envelope over all pairs (<= 1 means satisfied).
    Pairs whose reference gap is zero are skipped (identically zero gap
    stays zero by linearity).  With lev = log gap + 2 kappa lambda1 t, the
    worst pair ending at t compares lev(t) with the running minimum of lev,
    so memory stays linear in the sample count.
    """
    pos = series.diff_sq > 0
    if not pos.any():
        return 0.0
    lev = np.log(series.diff_sq[pos]) + 2.0 * kappa * lambda1 * series.times[pos]
    return float(np.exp(np.max(lev - np.minimum.accumulate(lev))))
