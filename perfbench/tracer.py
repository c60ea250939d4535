"""Span tracing of epibvp's layers, installed from outside the package.

Each traced entry point is a name that one epibvp module imports from
another (plus ``cli.main`` itself).  Replacing that name in the importing
module's namespace records one span per call without touching the
package's source.  The wrappers are installed only for a traced pass and
restored afterwards.

A span's self time is its duration minus the durations of its direct child
spans; calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    cmd: int
    parent: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _note_rootset(args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    return {"scan_n": spec.scan_n, "roots": len(result.roots)}


def _note_shot(args, kwargs, result):
    return {"diverged": int(bool(result[2]))}


def _note_samples(args, kwargs, result):
    return {"samples": len(result.t)}


def _note_bytes(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode("utf-8"))}


def _note_argv(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return {"argv": list(argv or [])}


# (importing module, imported name, span name, attribute recorder)
ENTRY_POINTS = [
    ("epibvp.cli", "main", "cli.main", _note_argv),
    ("epibvp.cli", "sweep", "continuation.sweep", None),
    ("epibvp.cli", "locate_fold", "continuation.locate_fold", None),
    ("epibvp.continuation", "find_shooting_roots", "shooting.find_shooting_roots", _note_rootset),
    # cli imports find_shooting_roots lazily from the shooting module itself
    ("epibvp.shooting", "find_shooting_roots", "shooting.find_shooting_roots", _note_rootset),
    ("epibvp.shooting", "shoot_endpoint", "integrator.shoot_endpoint", _note_shot),
    ("epibvp.shooting", "integrate", "integrator.integrate", _note_samples),
    ("epibvp.shooting", "validate", "integrator.validate", None),
    ("epibvp.cli", "integrate", "integrator.integrate", _note_samples),
    ("epibvp.cli", "validate", "integrator.validate", None),
    ("epibvp.cli", "reconstruct_phi", "model.reconstruct_phi", None),
    ("epibvp.cli", "certificates_for", "certificates.certificates_for", None),
    ("epibvp.cli", "truncated_monotone_solve", "certificates.truncated_monotone_solve", None),
    # each Newton iteration of the monotone solver is one banded solve
    ("epibvp.certificates", "solve_banded", "certificates.solve_banded", None),
    ("epibvp.serialize", "atomic_write_text", "serialize.atomic_write_text", _note_bytes),
]


def _serialize_emitters() -> list[tuple]:
    """Every ``*_to_csv`` / ``*_to_json`` emitter the serialize module defines."""
    module = importlib.import_module("epibvp.serialize")
    return [
        ("epibvp.serialize", name, "serialize.format", None)
        for name in sorted(vars(module))
        if name.endswith(("_to_csv", "_to_json")) and callable(getattr(module, name))
    ]


class Tracer:
    """Records spans for every call through the wrapped entry points."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._cmds = 0
        self._patches: list[tuple] = []

    def _wrap(self, fn, name, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                parent = stack[-1]
                cmd = spans[parent].cmd
            else:
                parent = -1
                self._cmds += 1
                cmd = self._cmds
            span = Span(name, cmd, parent, time.perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:  # a call that raised records no attributes
                span.attrs = note(args, kwargs, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, note in ENTRY_POINTS + _serialize_emitters():
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patches.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, note))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def wrappers_left() -> list[str]:
    """Entry points that still hold a tracing wrapper (empty after uninstall)."""
    left = []
    for module_name, attr, _, _ in ENTRY_POINTS + _serialize_emitters():
        fn = getattr(importlib.import_module(module_name), attr, None)
        if hasattr(fn, "__perfbench_original__"):
            left.append(f"{module_name}.{attr}")
    return left


def self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


# per-layer metric name -> unit; the order is the report order
LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.commands": "count",
    "cli.fold_s": "s",
    "cli.sweep_s": "s",
    "cli.solve_roots_s": "s",
    "cli.resolve_s": "s",
    "cli.monotone_s": "s",
    "cli.certify_s": "s",
    "continuation.root_sets": "count",
    "continuation.self_s": "s",
    "shooting.self_s": "s",
    "shooting.root_sets": "count",
    "shooting.scan_slopes": "count",
    "shooting.gate_validations": "count",
    "shooting.roots_returned": "count",
    "shooting.root_yield": "ratio",
    "integrator.endpoint_shots": "count",
    "integrator.endpoint_s": "s",
    "integrator.shot_us": "us",
    "integrator.diverged_shots": "count",
    "integrator.dense_integrates": "count",
    "integrator.dense_samples": "count",
    "integrator.dense_s": "s",
    "integrator.validations": "count",
    "integrator.validate_s": "s",
    "serialize.files": "count",
    "serialize.bytes": "bytes",
    "serialize.format_s": "s",
    "serialize.write_s": "s",
    "model.reconstructs": "count",
    "model.reconstruct_s": "s",
    "certificates.calls": "count",
    "certificates.certify_s": "s",
    "certificates.monotone_s": "s",
    "certificates.newton_iters": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[Span], family_of) -> dict[str, float]:
    """Per-layer counts and times of one traced pass.

    ``family_of`` maps a command's argv to its command family, whose wall
    time is summed into ``cli.<family>_s``.
    """
    selfs = self_times(spans)
    m = {name: 0.0 for name in LAYER_UNITS if name != "trace.overhead_s"}
    m["trace.spans"] = float(len(spans))
    for i, span in enumerate(spans):
        dur = span.end - span.start
        parent = spans[span.parent].name if span.parent >= 0 else ""
        name = span.name
        if name == "cli.main":
            m["cli.commands"] += 1
            m["cli.self_s"] += selfs[i]
            key = f"cli.{family_of(span.attrs.get('argv', []))}_s"
            if key in m:
                m[key] += dur
        elif name.startswith("continuation."):
            m["continuation.self_s"] += selfs[i]
        elif name == "shooting.find_shooting_roots":
            m["shooting.root_sets"] += 1
            m["shooting.self_s"] += selfs[i]
            m["shooting.scan_slopes"] += span.attrs.get("scan_n", 0)
            m["shooting.roots_returned"] += span.attrs.get("roots", 0)
            if parent.startswith("continuation."):
                m["continuation.root_sets"] += 1
        elif name == "integrator.shoot_endpoint":
            m["integrator.endpoint_shots"] += 1
            m["integrator.endpoint_s"] += dur
            m["integrator.diverged_shots"] += span.attrs.get("diverged", 0)
        elif name == "integrator.integrate":
            m["integrator.dense_integrates"] += 1
            m["integrator.dense_samples"] += span.attrs.get("samples", 0)
            m["integrator.dense_s"] += dur
        elif name == "integrator.validate":
            m["integrator.validations"] += 1
            m["integrator.validate_s"] += dur
            if parent == "shooting.find_shooting_roots":
                m["shooting.gate_validations"] += 1
        elif name == "serialize.format":
            m["serialize.format_s"] += dur
        elif name == "serialize.atomic_write_text":
            m["serialize.files"] += 1
            m["serialize.bytes"] += span.attrs.get("bytes", 0)
            m["serialize.write_s"] += dur
        elif name == "model.reconstruct_phi":
            m["model.reconstructs"] += 1
            m["model.reconstruct_s"] += dur
        elif name == "certificates.certificates_for":
            m["certificates.calls"] += 1
            m["certificates.certify_s"] += dur
        elif name == "certificates.truncated_monotone_solve":
            m["certificates.monotone_s"] += dur
        elif name == "certificates.solve_banded":
            m["certificates.newton_iters"] += 1
    if m["integrator.endpoint_shots"]:
        m["integrator.shot_us"] = 1e6 * m["integrator.endpoint_s"] / m["integrator.endpoint_shots"]
    if m["shooting.gate_validations"]:
        m["shooting.root_yield"] = m["shooting.roots_returned"] / m["shooting.gate_validations"]
    return m


def fastest_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Each metric's smallest value over the traced passes.

    Counts repeat exactly from pass to pass; for times this is the same
    noise-resistant estimate the end-to-end times use.
    """
    return {k: min(p[k] for p in per_pass) for k in per_pass[0]}
