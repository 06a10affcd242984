"""Command-line harness: spinup, twin, sweep, check-conditions, validate.

Everything a run produces is determined by (config, seed) apart from
timestamps and wall-times.  CSV schemas (fixed column order):

    errors.csv:  t, w_H, w_V, xi_H, xi_V
    sweep.csv:   mu, h, rate, converged, wall_time_s, error

A sweep nudges all its rows against one truth integration (one per
worker chunk under --workers); each row is bit-identical to the twin
command at its (mu, h), serial or parallel.  A row's wall_time_s is its
chunk's wall time divided by the chunk's row count.

Exit codes: 0 success, 1 unexpected failure, 2 configuration problem,
3 solution blow-up, 4 unreadable (missing or malformed) or unwritable
files, 5 validation suite failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .assimilation import fit_decay_rate, run_twin, spin_up
from .bounds import (
    estimate_ladyzhenskaya_constant,
    max_observation_spacing,
    uniform_bounds,
    with_thresholds,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, load
from .model import State
from .observations import estimate_approximation_constant
from .spectral import norm_laplacian, norm_v, stokes_smallest_eigenvalue
from .stepping import BlowUpError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_IO = 4
EXIT_VALIDATION = 5

PRACTICAL_TARGET = 1e-8

ERRORS_CSV_COLUMNS = ("t", "w_H", "w_V", "xi_H", "xi_V")
SWEEP_CSV_COLUMNS = ("mu", "h", "rate", "converged", "wall_time_s", "error")


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = load(args.config) if args.config else RunConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["output_dir"] = args.out
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_errors_csv(path: Path, series) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(ERRORS_CSV_COLUMNS)
        for row in zip(series.times, series.w_h, series.w_v, series.xi_h, series.xi_v):
            w.writerow([repr(float(v)) for v in row])


def _fit_manifest(series, run_time: float) -> dict:
    """Fixed fitting policy: skip the first quarter of the run as transient,
    stop at 95% or where the energy hits the round-off floor."""
    t0 = float(series.times[0])
    energy = series.energy()
    start = t0 + 0.25 * run_time
    end = t0 + 0.95 * run_time
    floor = energy[0] * 1e-24
    alive = series.times[energy > floor]
    if len(alive):
        end = min(end, float(alive[-1]))
    window = (start, end)
    try:
        fit = fit_decay_rate(series, window)
    except ValueError as e:
        return {"rate": None, "r_squared": None, "saturated": None,
                "window": window, "error": str(e)}
    return {
        "rate": fit.rate,
        "r_squared": fit.r_squared,
        "saturated": fit.saturated,
        "window": window,
        "sample_count": fit.sample_count,
    }


def _threshold_manifest(cfg: RunConfig, k3: Optional[float]) -> dict:
    grid = cfg.grid()
    lambda1 = stokes_smallest_eigenvalue(grid)
    report = uniform_bounds(cfg.nu, cfg.kappa, cfg.L, lambda1)
    c1 = estimate_ladyzhenskaya_constant(
        grid, sample_count=200, rng=np.random.default_rng([cfg.seed, 101])
    )
    c0 = estimate_approximation_constant(
        cfg.interpolant(), sample_count=200, rng=np.random.default_rng([cfg.seed, 202])
    )
    report = with_thresholds(report, c1=c1, c0=c0, K3=k3)
    d = report.as_dict()
    d["h_max_at_mu_min_type1"] = max_observation_spacing(report.mu_min_type1, cfg.nu, c0)
    d["mu_satisfies_type1"] = cfg.mu >= report.mu_min_type1
    d["spacing_lhs_mu_c0sq_hsq"] = cfg.mu * c0**2 * cfg.h**2
    d["spacing_satisfied"] = d["spacing_lhs_mu_c0sq_hsq"] <= cfg.nu
    return d


def cmd_spinup(cfg: RunConfig) -> int:
    stepper = cfg.stepper()
    running_k3 = [0.0]

    def report(state: State) -> None:
        uv = norm_v(state.velocity)
        tv = norm_v(state.temperature)
        running_k3[0] = max(running_k3[0], norm_laplacian(state.velocity) ** 2)
        print(
            f"t={state.time:10.4f}  |u|_V={uv:.6e}  |theta|_V={tv:.6e}"
            f"  K3={running_k3[0]:.6e}"
        )

    every = max(1, int(round(1.0 / stepper.dt)))
    state, history = spin_up(
        cfg.physical_params(),
        cfg.grid(),
        stepper,
        cfg.spinup_time,
        seed=cfg.seed,
        observers=((every, report),),
    )
    report(state)
    # made only now, so that a refused run leaves no empty directory behind
    path = _out_dir(cfg) / "truth.ckpt"
    save_checkpoint(path, state, cfg.physical_params(), cfg.seed, history=history)
    print(f"checkpoint written to {path}")
    return EXIT_OK


def cmd_twin(cfg: RunConfig, ckpt_path: str) -> int:
    twin_cfg = cfg.twin_config()
    try:
        ck = load_checkpoint(ckpt_path)
    except ValueError as e:  # a malformed file is an unreadable one
        raise OSError(str(e)) from e
    if ck.state.grid != cfg.grid():
        raise ConfigError(
            f"checkpoint grid {ck.state.grid} does not match the configured grid"
        )
    for name in ("nu", "kappa"):
        if getattr(ck.params, name) != getattr(cfg, name):
            raise ConfigError(
                f"checkpoint {name}={getattr(ck.params, name)} does not match "
                f"config {name}={getattr(cfg, name)}"
            )
    # made only after every refusal, so that none leaves an empty directory
    out = _out_dir(cfg)
    started = time.perf_counter()
    result = run_twin(twin_cfg, truth0=ck.state)
    wall = time.perf_counter() - started

    series = result.errors
    energy = series.energy()
    converged = bool(energy[-1] <= PRACTICAL_TARGET * energy[0])
    manifest = {
        "config": dataclasses.asdict(cfg),
        "truth_checkpoint": str(ckpt_path),
        "fit": _fit_manifest(series, cfg.run_time),
        "initial_energy": float(energy[0]),
        "final_energy": float(energy[-1]),
        "practical_target": PRACTICAL_TARGET,
        "converged": converged,
        "k3_measured": result.truth_diagnostics.k3,
        "thresholds": _threshold_manifest(cfg, result.truth_diagnostics.k3),
        "wall_time_s": wall,
    }
    csv_path = out / "errors.csv"
    _write_errors_csv(csv_path, series)
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    rate = manifest["fit"]["rate"]
    print(f"errors written to {csv_path}")
    print(f"manifest written to {manifest_path}")
    print(f"fitted rate: {rate}")
    print(f"converged ({PRACTICAL_TARGET:g} of initial energy): {converged}")
    return EXIT_OK


def cmd_check_conditions(cfg: RunConfig) -> int:
    d = _threshold_manifest(cfg, k3=None)
    print("a-priori bound constants and thresholds:")
    for key in sorted(d):
        print(f"  {key} = {d[key]}")
    thr = d.get("mu_min_type1")
    if d["mu_satisfies_type1"]:
        print(f"SATISFIED: mu = {cfg.mu} >= mu_min_type1 = {thr}")
    else:
        print(f"VIOLATED: mu >= mu_min_type1 fails (mu = {cfg.mu}, threshold = {thr})")
    if d["spacing_satisfied"]:
        print(
            f"SATISFIED: mu c0^2 h^2 = {d['spacing_lhs_mu_c0sq_hsq']:.6e}"
            f" <= nu = {cfg.nu}"
        )
    else:
        print(
            f"VIOLATED: mu c0^2 h^2 <= nu fails"
            f" ({d['spacing_lhs_mu_c0sq_hsq']:.6e} > {cfg.nu})"
        )
    print(
        "mu_min_type2: requires a trajectory bound K3;"
        " run twin to measure it (reported in the manifest)"
    )
    return EXIT_OK


def _sweep_chunk(
    job: Tuple[RunConfig, Sequence[Tuple[float, float]], State]
) -> List[dict]:
    """Rows for the (mu, h) pairs of one chunk, all nudged against one truth."""
    cfg, pairs, truth0 = job
    started = time.perf_counter()
    rows, configs = [], []
    for mu, h in pairs:
        row = {"mu": mu, "h": h, "rate": None, "converged": None, "error": ""}
        try:
            configs.append((row, dataclasses.replace(cfg, mu=mu, h=h).twin_config()))
        except Exception as e:
            row["error"] = f"{type(e).__name__}: {e}"
        rows.append(row)
    results = run_twin([c for _, c in configs], truth0=truth0) if configs else []
    for (row, _), result in zip(configs, results):
        if isinstance(result, BlowUpError):
            row["error"] = f"blow-up: {result}"
        elif isinstance(result, Exception):
            row["error"] = f"{type(result).__name__}: {result}"
        else:
            energy = result.errors.energy()
            row["converged"] = bool(energy[-1] <= PRACTICAL_TARGET * energy[0])
            row["rate"] = _fit_manifest(result.errors, cfg.run_time)["rate"]
    wall = (time.perf_counter() - started) / len(rows)
    for row in rows:
        row["wall_time_s"] = wall
    return rows


def cmd_sweep(cfg: RunConfig, workers: int) -> int:
    mu_list = cfg.sweep_mu or (cfg.mu,)
    h_list = cfg.sweep_h or (cfg.h,)
    truth0, _ = spin_up(
        cfg.physical_params(), cfg.grid(), cfg.stepper(), cfg.spinup_time, seed=cfg.seed
    )
    # made only after every refusal, so that none leaves an empty directory
    out = _out_dir(cfg)
    pairs = [(mu, h) for mu in mu_list for h in h_list]
    # one contiguous chunk per worker; each chunk integrates its own truth
    n = min(workers, len(pairs))
    cuts = [len(pairs) * i // n for i in range(n + 1)]
    jobs = [(cfg, pairs[a:b], truth0) for a, b in zip(cuts, cuts[1:])]
    if n > 1:
        # imported here: the import costs every other command's start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n) as pool:
            chunks = list(pool.map(_sweep_chunk, jobs))
    else:
        chunks = [_sweep_chunk(j) for j in jobs]
    rows = [row for chunk in chunks for row in chunk]
    path = out / "sweep.csv"
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SWEEP_CSV_COLUMNS)
        for row in rows:
            w.writerow(
                [
                    repr(float(row["mu"])),
                    repr(float(row["h"])),
                    "" if row["rate"] is None else repr(float(row["rate"])),
                    "" if row["converged"] is None else str(row["converged"]),
                    f"{row['wall_time_s']:.3f}",
                    row["error"],
                ]
            )
    print(f"sweep written to {path} ({len(rows)} rows)")
    return EXIT_OK


def _validate_checks() -> List[Tuple[str, bool, str]]:
    from .manufactured import default_case, semidiscrete_residual, temporal_errors
    from .model import PhysicalParams, advection_scalar, advection_velocity
    from .observations import MODAL, InterpolantSpec, observe
    from .spectral import (
        SIN,
        Grid,
        inner_h,
        norm_h,
        random_scalar,
        random_solenoidal,
        solenoidality_defect,
    )
    from .stepping import StepperConfig, integrate
    from .assimilation import run_temperature_slaving, slaving_contract_margin

    checks: List[Tuple[str, bool, str]] = []

    case = default_case()
    r = semidiscrete_residual(case, 0.3)
    checks.append(("manufactured semi-discrete residual < 1e-10", r < 1e-10, f"{r:.3e}"))

    errs = temporal_errors(case, [5e-3, 2.5e-3], 0.5)
    order = math.log2(errs[0] / errs[1])
    checks.append(
        ("manufactured temporal order in [1.9, 2.1]", 1.9 < order < 2.1, f"{order:.3f}")
    )

    grid = Grid(2.0, 32, 16)
    params = PhysicalParams(nu=0.03, kappa=0.03)
    rng = np.random.default_rng(0)
    s0 = State(
        random_solenoidal(grid, rng, norm=0.5), random_scalar(grid, rng, SIN, norm=0.5)
    )
    s1, _ = integrate(s0, params, StepperConfig(dt=2e-3), 0.1)
    d = solenoidality_defect(s1.velocity)
    checks.append(("velocity stays divergence-free (< 1e-12)", d < 1e-12, f"{d:.3e}"))

    worst = 0.0
    for _ in range(20):
        u = random_solenoidal(grid, rng)
        v = random_solenoidal(grid, rng)
        th = random_scalar(grid, rng, SIN)
        adv_v = advection_velocity(u, v)
        adv_t = advection_scalar(u, th)
        worst = max(
            worst,
            abs(inner_h(adv_v, v)) / (norm_v(u) * norm_v(v) * norm_h(v)),
            abs(inner_h(adv_t, th)) / (norm_v(u) * norm_v(th) * norm_h(th)),
        )
    checks.append(("advection orthogonality (< 1e-12)", worst < 1e-12, f"{worst:.3e}"))

    spec = InterpolantSpec(MODAL, 0.25, grid)
    w = random_solenoidal(grid, rng)
    once = observe(w, spec)
    twice = observe(once, spec)
    idem = (
        np.array_equal(once.u1.coeffs, twice.u1.coeffs)
        and np.array_equal(once.u2.coeffs, twice.u2.coeffs)
    )
    checks.append(("modal observation idempotent", idem, ""))

    truth = State(
        random_solenoidal(grid, rng, norm=0.5), random_scalar(grid, rng, SIN, norm=0.5)
    )
    ta = random_scalar(grid, rng, SIN)
    tb = random_scalar(grid, rng, SIN)
    series = run_temperature_slaving(
        truth, params, StepperConfig(dt=2e-3), ta, tb, run_time=0.5
    )
    margin = slaving_contract_margin(series, params.kappa, math.pi**2)
    checks.append(
        ("temperature slaving contract (margin <= 1 + 1e-10)",
         margin <= 1.0 + 1e-10, f"{margin:.12f}")
    )

    zero = State.zeros(grid)
    z1, _ = integrate(zero, params, StepperConfig(dt=1e-2), 0.1)
    still = norm_h(z1.velocity) == 0.0 and norm_h(z1.temperature) == 0.0
    checks.append(("zero state is an exact fixed point", still, ""))
    return checks


def cmd_validate() -> int:
    checks = _validate_checks()
    failed = 0
    for name, ok, detail in checks:
        mark = "PASS" if ok else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        print(f"{mark}  {name}{suffix}")
        failed += 0 if ok else 1
    if failed:
        print(f"{failed} of {len(checks)} checks failed")
        return EXIT_VALIDATION
    print(f"all {len(checks)} checks passed")
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benard-da",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def configured(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="key=value config file (defaults when omitted)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the config output directory")
        return p

    configured("spinup", "settle a truth state; write a checkpoint")
    p_twin = configured("twin", "run a twin experiment from a checkpoint")
    p_twin.add_argument("checkpoint", help="truth checkpoint from spinup")
    p_sweep = configured("sweep", "twin runs over sweep_mu x sweep_h")
    p_sweep.add_argument(
        "--workers", type=_positive_int, default=1, help="parallel worker processes"
    )
    configured("check-conditions", "print sufficiency thresholds for the config")
    sub.add_parser("validate", help="run the discretization check suite")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate()
        cfg = _resolve_config(args)
        if args.command == "spinup":
            return cmd_spinup(cfg)
        if args.command == "twin":
            return cmd_twin(cfg, args.checkpoint)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.workers)
        if args.command == "check-conditions":
            return cmd_check_conditions(cfg)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as e:
        print(f"blow-up: {e}", file=sys.stderr)
        return EXIT_BLOWUP
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"invalid configuration: {e}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
