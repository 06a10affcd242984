"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public functions of each ``benard_da`` layer module,
wherever the function object is bound: a name imported with ``from .x
import f`` is a second binding of the same object, and calls made through
it would be missed if only the defining module were patched.  Each call
appends one span ``(name, start, end, parent, constructions, info, raised)``
to a list kept in memory; ``constructions`` is the number of
``SpectralField`` objects built inside the span.  The spans are written out
once, when the workload ends.

Self time is a span's duration minus the durations of its direct child
spans.  ``summarize`` turns the spans of one workload iteration into the
per-layer figures the benchmark reports.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# The package's modules, one layer each.  ``manufactured`` is used only by
# ``validate`` and the tests, so it is not measured.
LAYERS = (
    "spectral",
    "model",
    "stepping",
    "observations",
    "assimilation",
    "bounds",
    "checkpoint",
    "config",
    "cli",
)

# Layers without ``__all__``: the functions that make up their interface.
ENTRY_POINTS = {"cli": ("main", "cmd_spinup", "cmd_twin", "cmd_sweep")}

# Methods are bound once, on their class.
METHODS = {"assimilation": (("ObservationRecord", "save"), ("ObservationRecord", "load"))}

TRANSFORMS = ("spectral.synthesize", "spectral.analyze")
NORMS = ("spectral.norm_h", "spectral.norm_v", "spectral.norm_laplacian")
ASSIMILATION_CALLS = ("assimilation.run_twin", "assimilation.run_from_record")
ASSIMILATION_SELF = ASSIMILATION_CALLS + ("assimilation.nudging_force",)
STEP = "stepping.step"


def _array_bytes(obj) -> int:
    """Bytes of the arrays in obj: an array, a field, or a tuple of them."""
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    coeffs = getattr(obj, "coeffs", None)
    if coeffs is not None:
        return coeffs.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(x) for x in obj)
    return 0


def _transform_bytes(args, kwargs, result) -> int:
    """Bytes read plus bytes written by one transform, from the array sizes."""
    return _array_bytes(args) + _array_bytes(tuple(kwargs.values())) + _array_bytes(result)


def _step_label(args, kwargs, result):
    return kwargs.get("label")


INFO = {
    "spectral.synthesize": _transform_bytes,
    "spectral.analyze": _transform_bytes,
    STEP: _step_label,
}


def rebind(replacements, package_name: str = "benard_da"):
    """Binds each replacement wherever its original is bound in the package.

    ``replacements`` maps original function objects to their replacements.
    Every loaded module of the package that binds an original, under any
    name, gets the replacement instead.  Returns a function that puts the
    originals back.
    """
    by_id = {id(fn): (fn, new) for fn, new in replacements.items()}
    undo = []
    for name, mod in list(sys.modules.items()):
        if name != package_name and not name.startswith(package_name + "."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, value))

    def restore() -> None:
        while undo:
            mod, attr, value = undo.pop()
            setattr(mod, attr, value)

    return restore


class Tracer:
    """Wraps a package's layer functions and records one span per call."""

    def __init__(self) -> None:
        self.spans = []
        self.constructions = 0
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = INFO.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            built = tracer.constructions
            result = raised = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                raised = type(e).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (
                    name,
                    start,
                    end,
                    parent,
                    tracer.constructions - built,
                    info(args, kwargs, result) if info else None,
                    raised,
                )

        return traced

    def install(self, package_name: str = "benard_da") -> None:
        """Wrap every loaded layer's functions at every module binding of them."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{package_name}.{layer}")
            if mod is None:
                continue
            names = getattr(mod, "__all__", None) or ENTRY_POINTS.get(layer, ())
            for attr in names:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(f"{layer}.{cls_name}.{meth}", fn)
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                self._patch(cls, meth, raw, wrapped)
        self._undo.append(rebind(wrappers, package_name))

        field_cls = sys.modules[f"{package_name}.spectral"].SpectralField
        post_init = field_cls.__dict__["__post_init__"]
        tracer = self

        def counted(field_self):
            tracer.constructions += 1
            post_init(field_self)

        self._patch(field_cls, "__post_init__", post_init, counted)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans) -> dict:
    """Per-layer figures of one workload iteration.

    Returns ``calls`` (per span name), ``self_s`` (per span name),
    ``inclusive_s`` (per span name), ``step_ms`` (every step's duration)
    and ``layers``, the per-layer metrics that the benchmark reports.
    """
    n = len(spans)
    child = [0.0] * n
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    # Parents are appended before their children, so one forward pass
    # settles each span's enclosing step, assimilation call and spin-up.
    in_step = [False] * n
    in_assim = [False] * n
    in_twin = [False] * n
    in_spinup = [False] * n
    calls, self_s, inclusive_s = {}, {}, {}
    for i, (name, start, end, parent, _, _, _) in enumerate(spans):
        if parent >= 0:
            up = spans[parent][0]
            in_step[i] = in_step[parent] or up == STEP
            in_assim[i] = in_assim[parent] or up in ASSIMILATION_CALLS
            in_twin[i] = in_twin[parent] or up == "assimilation.run_twin"
            in_spinup[i] = in_spinup[parent] or up == "assimilation.spin_up"
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        inclusive_s[name] = inclusive_s.get(name, 0.0) + (end - start)

    def count(names, where):
        return sum(1 for i, s in enumerate(spans) if s[0] in names and where[i])

    def total(table, names):
        return sum(table.get(x, 0.0) for x in names)

    steps = calls.get(STEP, 0)
    assim_steps = count((STEP,), in_assim)
    twin_steps = count((STEP,), in_twin)
    twin_constructions = sum(s[4] for s in spans if s[0] == "assimilation.run_twin")
    truth_steps = sum(
        1
        for i, s in enumerate(spans)
        if s[0] == STEP and s[5] == "truth" and not in_spinup[i]
    )
    transform_bytes = sum(
        s[5] for i, s in enumerate(spans) if s[0] in TRANSFORMS and in_step[i]
    )

    def per(x, base):
        return x / base if base else 0.0

    layers = {
        "spectral.transforms_per_step": per(count(TRANSFORMS, in_step), steps),
        "spectral.transform_self_s": total(self_s, TRANSFORMS),
        "spectral.transform_bytes_per_step": per(transform_bytes, steps),
        "spectral.field_constructions_per_step": per(twin_constructions, twin_steps / 2),
        "spectral.leray_calls_per_step": per(
            count(("spectral.leray_project",), in_assim), assim_steps
        ),
        "spectral.leray_self_s": self_s.get("spectral.leray_project", 0.0),
        "spectral.norm_self_s": total(self_s, NORMS),
        "model.explicit_rhs_self_s": self_s.get("model.explicit_rhs", 0.0),
        "model.advection_velocity_self_s": self_s.get("model.advection_velocity", 0.0),
        "model.advection_scalar_self_s": self_s.get("model.advection_scalar", 0.0),
        "stepping.step_calls": steps,
        "stepping.step_self_s": self_s.get(STEP, 0.0),
        "stepping.blowups": sum(
            1 for s in spans if s[0] == STEP and s[6] == "BlowUpError"
        ),
        "observations.observe_calls_per_step": per(
            count(("observations.observe",), in_assim), assim_steps
        ),
        "observations.observe_self_s": self_s.get("observations.observe", 0.0),
        "observations.c0_estimate_s": inclusive_s.get(
            "observations.estimate_approximation_constant", 0.0
        ),
        "assimilation.self_s": total(self_s, ASSIMILATION_SELF),
        "assimilation.truth_steps_per_row": per(
            truth_steps, calls.get("assimilation.run_twin", 0)
        ),
        "assimilation.record_write_s": inclusive_s.get(
            "assimilation.ObservationRecord.save", 0.0
        ),
        "assimilation.record_read_s": inclusive_s.get(
            "assimilation.ObservationRecord.load", 0.0
        ),
        "bounds.c1_estimate_s": inclusive_s.get(
            "bounds.estimate_ladyzhenskaya_constant", 0.0
        ),
        "checkpoint.save_s": inclusive_s.get("checkpoint.save_checkpoint", 0.0),
        "checkpoint.load_s": inclusive_s.get("checkpoint.load_checkpoint", 0.0),
        "config.load_s": inclusive_s.get("config.load", 0.0),
    }
    for i, s in enumerate(spans):
        # A command's own work (CSV, manifest, printing) is its self time
        # plus that of the ``main`` call that dispatched it.
        if s[0].startswith("cli.cmd_"):
            key = f"cli.{s[0][len('cli.cmd_'):]}_self_s"
            own = (s[2] - s[1]) - child[i]
            if s[3] >= 0 and spans[s[3]][0] == "cli.main":
                p = spans[s[3]]
                own += (p[2] - p[1]) - child[s[3]]
            layers[key] = layers.get(key, 0.0) + own
    return {
        "calls": calls,
        "self_s": self_s,
        "inclusive_s": inclusive_s,
        "step_ms": [1e3 * (s[2] - s[1]) for s in spans if s[0] == STEP],
        "layers": layers,
    }
