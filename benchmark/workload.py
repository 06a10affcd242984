"""One iteration of one benchmark workload, run in a fresh interpreter.

    python3 workload.py --workload NAME --seed N --dir WORKDIR \\
        --spawned EPOCH [--trace]

The process runs in WORKDIR, where it writes the generated config, the
program's outputs, ``result.json`` and, when traced, ``spans.jsonl``.
``--spawned`` is the wall-clock time (``time.time()``) at which the parent
started this interpreter, so that set-up time includes interpreter start
and imports.  The program is driven only through its public entry points,
and every output is checked after the timed part ends.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported: at the default BLAS thread count the
# small observation matmuls are bimodal in time (see README.md).
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import rebind  # noqa: E402

DT = 5e-3
SAMPLE_CADENCE = 10
SWEEP_MU = (10.0, 25.0, 50.0)
SWEEP_H = (0.2, 0.4)

# Spin-ups are long enough for the truth phase to last about two seconds;
# a step on the sweep's small grid is about four times cheaper.  The modal
# twin runs twice as long as the others, so that its lock-step pairs
# outweigh the twin command's fixed costs (c0/c1 estimators, checkpoint
# load, fit, manifest).
CONFIGS = {
    "twin-modal-128x64": {
        "nx": 128,
        "ny": 64,
        "interpolant_kind": "modal",
        "spinup_time": 2.0,
        "run_time": 2.0,
    },
    "twin-volume-replay-128x64": {
        "nx": 128,
        "ny": 64,
        "interpolant_kind": "volume",
        "spinup_time": 2.0,
        "run_time": 1.0,
    },
    "sweep-nodal-64x32": {
        "nx": 64,
        "ny": 32,
        "interpolant_kind": "nodal",
        "spinup_time": 4.0,
        "run_time": 1.0,
        "sweep_mu": ",".join(map(repr, SWEEP_MU)),
        "sweep_h": ",".join(map(repr, SWEEP_H)),
    },
}

SOLENOIDAL_TOL = 1e-12
# Bands around the program's results at the commit that defined this
# benchmark, over 150 seeds (0-149).  The results depend on the seed, with
# long tails (the truth is still in its linear growth phase), so each band
# runs from about half the smallest value seen to about twice the largest.
# Seen: modal twin, fitted energy decay rate 0.609-1.202 and final/initial
# error energy 0.0143-0.291; volume twin, 0.610-1.875 and 0.0283-0.520
# (0.0149 at seed 205); fit r^2 at least 0.9959.  Without nudging the
# rates are negative and the energy ratios above 1.
TWIN_BANDS = {
    "twin-modal-128x64": {
        "rate": (0.3, 2.5),
        "energy_ratio": (0.003, 0.6),
        "min_r_squared": 0.98,
    },
    "twin-volume-replay-128x64": {
        "rate": (0.3, 3.5),
        "energy_ratio": (0.003, 0.8),
        "min_r_squared": 0.98,
    },
}
# Every sweep row's fitted rate.  Over the same seeds each row's rates
# spanned about 0.65-1.29; the rows differ by far less than the seeds do,
# so one band serves them all.  No row reached the 1e-8 energy target
# within the run, so every converged cell reads False.
SWEEP_RATE_BAND = (0.3, 2.5)
SWEEP_CONVERGED = "False"


def spinup_steps(name: str) -> int:
    return round(CONFIGS[name]["spinup_time"] / DT)


def twin_pairs(name: str) -> int:
    return round(CONFIGS[name]["run_time"] / DT)


def write_config(name: str, seed: int) -> str:
    values = {
        "mu": 50.0,
        "h": 0.2,
        "dt": DT,
        "sample_cadence": SAMPLE_CADENCE,
        "seed": seed,
        "output_dir": "out",
        **CONFIGS[name],
    }
    path = Path("run.cfg")
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return str(path)


class Ledger:
    """Operations of one iteration and the reasons any of them failed."""

    def __init__(self, names) -> None:
        self.errors = {n: [] for n in names}

    def check(self, op: str, ok: bool, why: str) -> None:
        if not ok:
            self.errors[op].append(why)

    def fail_all(self, why: str) -> None:
        for reasons in self.errors.values():
            reasons.append(why)


class Clock:
    """Wall-clock times of the program's phases, taken from outside it.

    ``arm`` stamps the next time step of the program: it rebinds ``step``
    wherever the package binds it, and the first call records
    ``time.time()`` and puts every binding back, so the steps that follow
    run unwrapped.  ``watch`` records the start and end of every call of
    the functions that ``cli`` binds under the given names, at every
    binding of them, until the returned function is called.
    """

    def __init__(self) -> None:
        self.first_steps = []
        self.calls = {}

    def arm(self) -> None:
        step = sys.modules["benard_da.stepping"].step

        def first(*args, **kwargs):
            restore()
            self.first_steps.append(time.time())
            return step(*args, **kwargs)

        restore = rebind({step: first})

    def watch(self, *names):
        cli = sys.modules["benard_da.cli"]
        wrappers = {}
        for name in names:
            log = self.calls.setdefault(name, [])
            wrappers[getattr(cli, name)] = self._clocked(getattr(cli, name), log)
        return rebind(wrappers)

    @staticmethod
    def _clocked(fn, log):
        def clocked(*args, **kwargs):
            start = time.time()
            try:
                return fn(*args, **kwargs)
            finally:
                log.append((start, time.time()))

        return clocked


def solenoidal(velocity) -> float:
    from benard_da.spectral import solenoidality_defect

    return solenoidality_defect(velocity)


def run_command(argv, led: Ledger, op: str) -> None:
    from benard_da import cli

    try:
        rc = cli.main(argv)
    except Exception:
        led.check(op, False, traceback.format_exc(limit=3))
        return
    led.check(op, rc == 0, f"{argv[0]} exited with code {rc}")


def check_twin(led: Ledger, op: str, name: str, rate, r2, ratio, extra: dict) -> None:
    """Checks a twin run's fitted rate, fit quality and energy ratio."""
    extra["rate"], extra["r_squared"], extra["energy_ratio"] = rate, r2, ratio
    band = TWIN_BANDS[name]
    lo, hi = band["rate"]
    led.check(op, rate is not None and lo <= rate <= hi, f"rate {rate} outside [{lo}, {hi}]")
    least = band["min_r_squared"]
    led.check(op, r2 is not None and r2 >= least, f"fit r^2 {r2} below {least}")
    lo, hi = band["energy_ratio"]
    led.check(op, lo <= ratio <= hi, f"energy ratio {ratio} outside [{lo}, {hi}]")


def twin_modal(seed: int, spawned: float, clock: Clock, out: dict):
    """CLI spinup, then CLI twin from its checkpoint."""
    name = "twin-modal-128x64"
    cfg = write_config(name, seed)
    led = Ledger(("spinup", "twin"))
    pairs = twin_pairs(name)
    unwatch = clock.watch("spin_up", "run_twin")
    clock.arm()
    run_command(["spinup", "--config", cfg], led, "spinup")
    twin_start = time.time()
    clock.arm()
    run_command(["twin", "--config", cfg, "out/truth.ckpt"], led, "twin")
    end = time.time()
    unwatch()
    stamps, spun, twinned = clock.first_steps, clock.calls["spin_up"], clock.calls["run_twin"]
    if len(stamps) == 2 and spun and twinned:
        twin_wall = end - twin_start
        out["setup_s"] = (stamps[0] - spawned) + (stamps[1] - twin_start)
        out["truth_steps_per_s"] = spinup_steps(name) / (spun[0][1] - stamps[0])
        out["twin_steps_per_s"] = pairs / twin_wall
        out["twin_outside_run_twin_frac"] = 1.0 - (twinned[0][1] - twinned[0][0]) / twin_wall

    def checks(extra: dict) -> None:
        from benard_da import load_checkpoint

        ckpt = Path("out/truth.ckpt")
        if ckpt.is_file():
            extra["checkpoint_bytes"] = ckpt.stat().st_size
            ck = load_checkpoint(ckpt)
            d = solenoidal(ck.state.velocity)
            led.check("spinup", d <= SOLENOIDAL_TOL, f"truth defect {d:.3e}")
            led.check(
                "spinup",
                abs(ck.state.time - CONFIGS[name]["spinup_time"]) < 1e-9,
                f"truth time {ck.state.time}",
            )
        manifest_path = Path("out/manifest.json")
        if not manifest_path.is_file():
            led.check("twin", False, "no manifest written")
            return
        manifest = json.loads(manifest_path.read_text())
        with open("out/errors.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        expect = pairs // SAMPLE_CADENCE + 1
        led.check("twin", len(rows) == expect + 1, f"errors.csv holds {len(rows)} lines")
        fit = manifest["fit"]
        ratio = manifest["final_energy"] / manifest["initial_energy"]
        check_twin(led, "twin", name, fit["rate"], fit["r_squared"], ratio, extra)

    return led, end, checks


def twin_volume_replay(seed: int, spawned: float, clock: Clock, out: dict):
    """spin_up, checkpoint round trip, recorded volume twin, replay."""
    import benard_da as bd
    from benard_da import config

    name = "twin-volume-replay-128x64"
    led = Ledger(("run_twin", "run_from_record"))
    cfg = config.load(write_config(name, seed))
    tc = cfg.twin_config()
    pairs = twin_pairs(name)
    clock.arm()
    truth0 = ck = live = final = residuals = None
    try:
        truth0, hist = bd.spin_up(
            tc.params, tc.spec.grid, tc.stepper, cfg.spinup_time, seed=cfg.seed
        )
        spin_end = time.time()
        clock.arm()
        bd.save_checkpoint("truth.ckpt", truth0, tc.params, cfg.seed, history=hist)
        ck = bd.load_checkpoint("truth.ckpt")
        t0 = time.perf_counter()
        live = bd.run_twin(tc, truth0=ck.state, record_to="obs.npz")
        twin_wall = time.perf_counter() - t0
    except Exception:
        # Without the recorded stream there is nothing to replay either.
        led.fail_all(traceback.format_exc(limit=3))
    if live is not None:
        replay_start = time.time()
        clock.arm()
        try:
            record = bd.ObservationRecord.load("obs.npz")
            t0 = time.perf_counter()
            final, _, residuals = bd.run_from_record(record, tc.params, tc.spec, tc.stepper)
            replay_wall = time.perf_counter() - t0
        except Exception:
            led.check("run_from_record", False, traceback.format_exc(limit=3))
    end = time.time()
    if final is not None:
        s = clock.first_steps
        out["setup_s"] = (s[0] - spawned) + (s[1] - spin_end) + (s[2] - replay_start)
        out["truth_steps_per_s"] = spinup_steps(name) / (spin_end - s[0])
        out["twin_steps_per_s"] = pairs / twin_wall
        out["replay_steps_per_s"] = pairs / replay_wall

    def checks(extra: dict) -> None:
        if final is None:
            return
        import numpy as np

        extra["checkpoint_bytes"] = Path("truth.ckpt").stat().st_size
        extra["record_bytes"] = Path("obs.npz").stat().st_size
        round_trip = all(
            np.array_equal(a.coeffs, b.coeffs)
            for a, b in (
                (ck.state.velocity.u1, truth0.velocity.u1),
                (ck.state.velocity.u2, truth0.velocity.u2),
                (ck.state.temperature, truth0.temperature),
            )
        )
        led.check("run_twin", round_trip, "checkpoint does not reproduce the truth state")
        for label, velocity in (
            ("truth", live.truth_final.velocity),
            ("assimilated", live.assimilated_final.velocity),
        ):
            d = solenoidal(velocity)
            led.check("run_twin", d <= SOLENOIDAL_TOL, f"{label} defect {d:.3e}")
        # The twin command's fitting window: skip the first quarter of the
        # run, stop at 95% (the energy stays far above round-off here).
        series = live.errors
        t0, run_time = float(series.times[0]), cfg.run_time
        fit = bd.fit_decay_rate(series, (t0 + 0.25 * run_time, t0 + 0.95 * run_time))
        energy = series.energy()
        ratio = float(energy[-1] / energy[0])
        check_twin(led, "run_twin", name, fit.rate, fit.r_squared, ratio, extra)
        d = solenoidal(final.velocity)
        led.check("run_from_record", d <= SOLENOIDAL_TOL, f"replay defect {d:.3e}")
        same = all(
            np.array_equal(a.coeffs, b.coeffs)
            for a, b in (
                (final.velocity.u1, live.assimilated_final.velocity.u1),
                (final.velocity.u2, live.assimilated_final.velocity.u2),
                (final.temperature, live.assimilated_final.temperature),
            )
        )
        led.check("run_from_record", same, "replay differs from the live assimilated state")
        led.check(
            "run_from_record",
            len(residuals) == pairs and bool(np.all(np.isfinite(residuals))),
            f"{len(residuals)} residuals",
        )

    return led, end, checks


def sweep_nodal(seed: int, spawned: float, clock: Clock, out: dict):
    """Serial CLI sweep over SWEEP_MU x SWEEP_H."""
    name = "sweep-nodal-64x32"
    cfg = write_config(name, seed)
    names = [f"mu={mu!r},h={h!r}" for mu in SWEEP_MU for h in SWEEP_H]
    led = Ledger(names)
    pairs = twin_pairs(name)
    unwatch = clock.watch("spin_up")
    clock.arm()
    start = time.time()
    try:
        rc = sys.modules["benard_da.cli"].main(["sweep", "--config", cfg])
    except Exception:
        rc = None
        led.fail_all(traceback.format_exc(limit=3))
    end = time.time()
    unwatch()
    rows = []
    if rc == 0:
        with open("out/sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    elif rc is not None:
        led.fail_all(f"sweep exited with code {rc}")
    spun = clock.calls["spin_up"]
    if rows and clock.first_steps and spun:
        # The rows run from the end of the spin-up to the end of the command.
        first, spin_end = clock.first_steps[0], spun[0][1]
        out["setup_s"] = first - spawned
        out["truth_steps_per_s"] = spinup_steps(name) / (spin_end - first)
        out["twin_steps_per_s"] = len(rows) * pairs / (end - spin_end)
        out["sweep_rows_per_min"] = 60.0 * len(rows) / (end - start)

    def checks(extra: dict) -> None:
        found = {f"mu={float(r['mu'])!r},h={float(r['h'])!r}": r for r in rows}
        extra["rows"] = [[r["mu"], r["h"], r["rate"], r["converged"]] for r in rows]
        extra["sweep_rows_failed"] = sum(1 for r in rows if r["error"])
        lo, hi = SWEEP_RATE_BAND
        for op in names if rows else ():
            r = found.get(op)
            if r is None:
                led.check(op, False, "row missing from sweep.csv")
                continue
            led.check(op, r["error"] == "", f"error cell: {r['error']}")
            rate = float(r["rate"]) if r["rate"] else None
            ok = rate is not None and lo <= rate <= hi
            led.check(op, ok, f"rate cell {r['rate']!r} outside [{lo}, {hi}]")
            ok = r["converged"] == SWEEP_CONVERGED
            led.check(op, ok, f"converged cell {r['converged']!r}")

    return led, end, checks


WORKLOADS = {
    "twin-modal-128x64": twin_modal,
    "twin-volume-replay-128x64": twin_volume_replay,
    "sweep-nodal-64x32": sweep_nodal,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    os.chdir(args.dir)

    import benard_da  # noqa: F401
    import benard_da.cli  # noqa: F401
    import benard_da.config  # noqa: F401

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    out = {}
    led, end, checks = WORKLOADS[args.workload](args.seed, args.spawned, Clock(), out)
    out["wall_s"] = end - args.spawned
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"metrics": out, "extra": {}}
    if tracer is not None:
        tracer.uninstall()
        from spans import summarize

        result["trace"] = summarize(tracer.spans)
        tracer.write("spans.jsonl")
    try:
        checks(result["extra"])
    except Exception:
        led.fail_all("check raised: " + traceback.format_exc(limit=3))
    result["ops"] = {op: reasons for op, reasons in led.errors.items()}
    Path("result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
