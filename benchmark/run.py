"""Benchmark of benard_da: twin-experiment workloads, end to end and per layer.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One run repeats the workload, each
iteration in a fresh interpreter (``workload.py``), for about S seconds and
reports one figure per metric over the iterations (see ``run_figure``).
``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
iterations and reports the per-layer metrics of the traced ones, with the
tracing overhead.  Every iteration checks the program's outputs; a failed
check counts as a failed operation.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from environment import environment  # noqa: E402

WORKLOADS = (
    "twin-modal-128x64",
    "twin-volume-replay-128x64",
    "sweep-nodal-64x32",
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("truth_steps_per_s", "steps/s"),
    ("twin_steps_per_s", "pairs/s"),
    ("peak_rss_mb", "MB"),
)
# Printed for the workloads that have them; not every workload does, so
# they are not among the metrics of the JSON line.
WORKLOAD_ONLY = (
    ("replay_steps_per_s", "steps/s"),
    ("sweep_rows_per_min", "rows/min"),
    ("twin_outside_run_twin_frac", "ratio"),
)

PER_LAYER = (
    ("spectral.transforms_per_step", "count"),
    ("spectral.transform_self_s", "s"),
    ("spectral.transform_bytes_per_step", "B"),
    ("spectral.field_constructions_per_step", "count"),
    ("spectral.leray_calls_per_step", "count"),
    ("spectral.leray_self_s", "s"),
    ("spectral.norm_self_s", "s"),
    ("model.explicit_rhs_self_s", "s"),
    ("model.advection_velocity_self_s", "s"),
    ("model.advection_scalar_self_s", "s"),
    ("stepping.step_calls", "count"),
    ("stepping.step_self_s", "s"),
    ("stepping.step_ms_p50", "ms"),
    ("stepping.step_ms_p99", "ms"),
    ("stepping.blowups", "count"),
    ("observations.observe_calls_per_step", "count"),
    ("observations.observe_self_s", "s"),
    ("assimilation.self_s", "s"),
    ("assimilation.truth_steps_per_row", "count"),
    ("assimilation.record_bytes", "B"),
    ("checkpoint.bytes", "B"),
    ("config.load_s", "s"),
    ("cli.sweep_rows_failed", "count"),
    ("trace.overhead_frac", "ratio"),
)
# Layer figures that are zero on some workload, where the layer is not
# used; printed in traced runs but kept out of the JSON line.
LAYER_ONLY = (
    ("observations.c0_estimate_s", "s"),
    ("bounds.c1_estimate_s", "s"),
    ("assimilation.record_write_s", "s"),
    ("assimilation.record_read_s", "s"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.load_s", "s"),
    ("cli.spinup_self_s", "s"),
    ("cli.twin_self_s", "s"),
    ("cli.sweep_self_s", "s"),
)
# Must repeat exactly between iterations of the same code.
EXACT_COUNTS = (
    "spectral.transforms_per_step",
    "spectral.field_constructions_per_step",
    "observations.observe_calls_per_step",
    "assimilation.truth_steps_per_row",
)

COMMON_CALLS = (
    "spectral.synthesize",
    "spectral.analyze",
    "spectral.leray_project",
    "model.explicit_rhs",
    "model.advection_velocity",
    "model.advection_scalar",
    "stepping.step",
    "stepping.integrate",
    "assimilation.spin_up",
    "assimilation.run_twin",
    "config.load",
)
# Functions each workload must call at least once, or the traced run fails.
REQUIRED_CALLS = {
    "twin-modal-128x64": COMMON_CALLS
    + (
        "cli.main",
        "cli.cmd_spinup",
        "cli.cmd_twin",
        "checkpoint.save_checkpoint",
        "checkpoint.load_checkpoint",
        "observations.observe",
        "observations.estimate_approximation_constant",
        "bounds.estimate_ladyzhenskaya_constant",
        "assimilation.fit_decay_rate",
    ),
    "twin-volume-replay-128x64": COMMON_CALLS
    + (
        "checkpoint.save_checkpoint",
        "checkpoint.load_checkpoint",
        "observations.observe",
        "assimilation.nudging_force",
        "assimilation.run_from_record",
        "assimilation.ObservationRecord.save",
        "assimilation.ObservationRecord.load",
    ),
    "sweep-nodal-64x32": COMMON_CALLS
    + (
        "cli.main",
        "cli.cmd_sweep",
        "observations.observe",
        "assimilation.nudging_force",
        "assimilation.fit_decay_rate",
    ),
}

# Untraced runs take at least three iterations; traced runs alternate, so
# four give two traced iterations whose counts can be compared.
MIN_ITERATIONS = (3, 4)
RUN_LIMIT_S = 170.0


def run_figure(results, key):
    """One run's figure for a metric, over the iterations that report it.

    Rates and wall times are pooled over the whole run: every iteration does
    the same work, so total work over total time is the harmonic mean of the
    iterations' rates, and the mean wall time is total time over iterations.
    The machine's speed shifts by up to 1.8x for seconds at a time, and a
    pooled figure averages those shifts over every measured second where a
    median of five iterations keeps one of them.  Set-up time and memory
    are medians.
    """
    vals = [r["metrics"][key] for r in results if key in r["metrics"]]
    if not vals:
        return None
    if key.endswith(("_per_s", "_per_min")):
        return statistics.harmonic_mean(vals)
    if key == "wall_s":
        return statistics.mean(vals)
    return statistics.median(vals)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def iterate(root: Path, workload: str, seed: int, index: int, traced: bool, started: float):
    """Runs one iteration in a fresh interpreter; returns its result or None."""
    work = root / ".benchrun" / f"{workload}-seed{seed}" / f"{index:02d}"
    work.mkdir(parents=True)
    # workload.py pins the BLAS threads itself, before numpy is imported.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]))
    argv = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
            "--seed", str(seed), "--dir", str(work)]
    if traced:
        argv.append("--trace")
    timeout = max(5.0, RUN_LIMIT_S - (time.perf_counter() - started))
    with open(work / "output.log", "w") as log:
        spawned = time.time()
        try:
            proc = subprocess.run(
                argv + ["--spawned", repr(spawned)],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None
    result = work / "result.json"
    if proc.returncode != 0 or not result.is_file():
        return None
    return json.loads(result.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "benard_da" / "__init__.py").is_file():
        print("run from the root of a benard_da checkout: src/benard_da is missing",
              file=sys.stderr)
        return 2
    # The package is pure Python: building it is compiling its bytecode, so
    # that no iteration pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src")],
                   check=True, stdout=subprocess.DEVNULL)
    # Only the last run's files are kept: a run's outputs, checkpoints and
    # spans take megabytes, and a checkout may be run many times.
    shutil.rmtree(root / ".benchrun", ignore_errors=True)

    env_record = environment(root)
    print("environment: " + json.dumps(env_record, sort_keys=True))

    started = time.perf_counter()
    results = []
    while True:
        index = len(results)
        traced = bool(args.trace) and index % 2 == 1
        t0 = time.perf_counter()
        results.append((traced, iterate(root, args.workload, args.seed, index, traced, started)))
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - started
        if elapsed + last > RUN_LIMIT_S:
            break
        if len(results) >= MIN_ITERATIONS[args.trace] and elapsed + last > args.seconds:
            break

    # Failed operations per iteration; a check on a whole iteration fails
    # every operation of that iteration.
    problems = []
    ops = {i: list(res["ops"]) for i, (_, res) in enumerate(results) if res is not None}
    width = max((len(v) for v in ops.values()), default=1)
    bad = {i: set() for i in range(len(results))}

    def fail(index, names, why):
        bad[index].update(names)
        problems.append(f"iteration {index}: {why}")

    for index, (_, res) in enumerate(results):
        if res is None:
            ops[index] = [f"op{k}" for k in range(width)]
            fail(index, ops[index], "the workload process failed")
            continue
        for op, reasons in res["ops"].items():
            if reasons:
                fail(index, [op], f"{op}: {'; '.join(reasons)}")

    done = [(i, traced, res) for i, (traced, res) in enumerate(results) if res is not None]
    rows = [(i, res["extra"]["rows"]) for i, _, res in done if "rows" in res["extra"]]
    for index, r in rows[1:]:
        if r != rows[0][1]:
            fail(index, ops[index], f"sweep rows differ from iteration {rows[0][0]}")
    untraced = [res for _, traced, res in done if not traced]
    traced_runs = [(i, res) for i, traced, res in done if traced]

    report = {}
    lines = []
    if args.trace == 0:
        for name, unit in END_TO_END + WORKLOAD_ONLY:
            value = run_figure(untraced, name)
            if value is not None:
                report[name] = (value, unit)
        chosen = END_TO_END
    else:
        layers = []
        for index, res in traced_runs:
            extra, layer = res["extra"], res["trace"]["layers"]
            layer["assimilation.record_bytes"] = extra.get("record_bytes", 0)
            layer["checkpoint.bytes"] = extra.get("checkpoint_bytes", 0)
            layer["cli.sweep_rows_failed"] = extra.get("sweep_rows_failed", 0)
            layers.append(layer)
            calls = res["trace"]["calls"]
            for name in REQUIRED_CALLS[args.workload]:
                if not calls.get(name):
                    fail(index, ops[index], f"traced: {name} was never called")
        if not layers:
            problems.append("no traced iteration completed")
        step_ms = [ms for _, res in traced_runs for ms in res["trace"]["step_ms"]]
        if step_ms:
            lines.append(f"step percentiles over {len(step_ms)} traced steps")
        wall_plain = run_figure(untraced, "wall_s")
        wall_traced = run_figure([res for _, res in traced_runs], "wall_s")
        for layer in layers:
            if step_ms:
                layer["stepping.step_ms_p50"] = percentile(step_ms, 50)
                layer["stepping.step_ms_p99"] = percentile(step_ms, 99)
            if wall_plain and wall_traced:
                layer["trace.overhead_frac"] = wall_traced / wall_plain - 1.0
        for name in EXACT_COUNTS:
            seen = {layer[name] for layer in layers}
            if len(seen) > 1:
                for index, _ in traced_runs:
                    fail(index, ops[index], f"{name} differs between traced iterations: "
                                            f"{sorted(seen)}")
        for name, unit in PER_LAYER + LAYER_ONLY:
            vals = [layer[name] for layer in layers if layer.get(name) is not None]
            if vals:
                report[name] = (statistics.median(vals), unit)
        chosen = PER_LAYER

    attempted = sum(len(v) for v in ops.values())
    failed = sum(len(v) for v in bad.values())
    correct = failed == 0 and not problems
    lines.insert(0, f"{args.workload} seed={args.seed}: {len(results)} iterations "
                    f"({len(untraced)} untraced, {len(traced_runs)} traced)")
    lines.append(f"ops_failed_frac = {failed / attempted!r} ratio ({failed} of {attempted})")
    for name, (value, unit) in report.items():
        lines.append(f"{name} = {value!r} {unit}")
    for p in problems:
        lines.append(f"FAILED {p}")
    metrics = {n: {"value": report.get(n, (None,))[0], "unit": u} for n, u in chosen}
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
