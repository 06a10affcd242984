"""Plain-text run configuration: one key=value per line, # comments.

Every knob of a run lives here, and every key takes effect, so that
(config, seed) pins down every output byte apart from timestamps and
wall-times.  Values are floats, integers, strings or comma-separated lists
of finite floats (empty for none); integer keys take integer literals
only ("32", not "32.0" or "1e3").  Unknown keys are rejected; omitted
keys take the defaults below; a config round-trips through
dumps()/parse() unchanged.
A config is validated once, when it is built, by building every owner of
its values through twin_config(); so every command refuses the same files.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

from .assimilation import CUSTOM, TwinConfig
from .model import PhysicalParams
from .observations import KINDS, InterpolantSpec
from .spectral import Grid
from .stepping import StepperConfig

__all__ = ["RunConfig", "ConfigError", "parse", "load", "dumps", "save"]


class ConfigError(ValueError):
    """Malformed text, unknown key, or a value of the wrong type."""


@dataclass(frozen=True)
class RunConfig:
    """Defaults are the calibrated supercritical twin-experiment point:
    velocity-only modal nudging synchronizes at energy rate ~1.9 while the
    mu=0 control stays order one."""

    nu: float = 0.03
    kappa: float = 0.03
    L: float = 2.0
    mu: float = 50.0
    h: float = 0.2
    nx: int = 128
    ny: int = 64
    dt: float = 5e-3
    interpolant_kind: str = "modal"
    spinup_time: float = 100.0
    run_time: float = 20.0
    v0_policy: str = "zero"
    eta0_policy: str = "zero"
    epsilon: float = 0.0
    sample_cadence: int = 10
    seed: int = 0
    output_dir: str = "runs"
    sweep_mu: Tuple[float, ...] = ()
    sweep_h: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.interpolant_kind not in KINDS:
            raise ConfigError(
                f"interpolant_kind must be one of {KINDS}, got {self.interpolant_kind!r}"
            )
        # the checkpoint header stores the seed as a signed 64-bit integer
        if not (0 <= self.seed < 2**63):
            raise ConfigError(f"seed must lie in [0, 2**63 - 1], got {self.seed}")
        for key in ("sweep_mu", "sweep_h"):
            for v in getattr(self, key):
                if not math.isfinite(v):
                    raise ConfigError(f"{key} entries must be finite, got {v}")
        for key in ("v0_policy", "eta0_policy"):
            if getattr(self, key) == CUSTOM:
                raise ConfigError(f"{key} = custom needs a state, which no file holds")
        self.twin_config()  # an owner's ValueError passes through unchanged

    def grid(self) -> Grid:
        return Grid(self.L, self.nx, self.ny)

    def physical_params(self) -> PhysicalParams:
        return PhysicalParams(nu=self.nu, kappa=self.kappa, mu=self.mu)

    def stepper(self) -> StepperConfig:
        return StepperConfig(dt=self.dt)

    def interpolant(self) -> InterpolantSpec:
        return InterpolantSpec(self.interpolant_kind, self.h, self.grid())

    def twin_config(self) -> TwinConfig:
        return TwinConfig(
            params=self.physical_params(),
            spec=self.interpolant(),
            stepper=self.stepper(),
            run_time=self.run_time,
            spinup_time=self.spinup_time,
            v0_policy=self.v0_policy,
            eta0_policy=self.eta0_policy,
            epsilon=self.epsilon,
            sample_cadence=self.sample_cadence,
            seed=self.seed,
        )


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _parse_value(key: str, raw: str):
    f = _FIELDS[key]
    raw = raw.strip()
    if f.type == "Tuple[float, ...]":
        if raw == "":
            return ()
        return tuple(float(p) for p in raw.split(","))
    if f.type == "float":
        return float(raw)
    if f.type == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {raw!r}") from None
    return raw


def parse(text: str) -> RunConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _parse_value(key, raw)
        except ConfigError:
            raise
        except ValueError as e:
            raise ConfigError(f"line {lineno}: bad value for {key}: {e}") from e
    try:
        return RunConfig(**values)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def dumps(cfg: RunConfig) -> str:
    lines = ["# twin-experiment run configuration", ""]
    for name in _FIELDS:
        v = getattr(cfg, name)
        if isinstance(v, tuple):
            text = ",".join(repr(x) for x in v)
        elif isinstance(v, float):
            text = repr(v)
        else:
            text = str(v)
        lines.append(f"{name} = {text}")
    return "\n".join(lines) + "\n"


def load(path) -> RunConfig:
    return parse(Path(path).read_text())


def save(cfg: RunConfig, path) -> None:
    Path(path).write_text(dumps(cfg))
