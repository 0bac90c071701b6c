"""Spans recorded from outside the program, and the per-layer table built from them.

The tracer wraps ptscarf's public functions under the name each caller looks
up (``ptscarf.solver.eig_complex_dense`` for ``solve_bound_states``,
``ptscarf.cli.ground_state_wavefunction`` for ``run_verify``, the
``cli._HANDLERS`` entries for ``cli.main``), so the program itself is not
edited.  Every span carries a name, start, end, parent and the id of the
benchmark operation it belongs to.  Spans stay in memory and are written
out once, when the run ends.

A span opened on a worker thread with nothing open on that thread takes as
parent the innermost span open on the thread that installed the tracer: the
scan's pool threads are started by ``cli.run_scan``, which is exactly that
span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Optional

# (module attribute looked up by a caller, attribute name).  The span is named
# after the module that defines the function, so one function looked up from
# two callers is one layer.
SPANNED = (
    ("cli", "main"),
    ("cli", "build_config"),
    ("cli", "run_potential"),
    ("cli", "run_spectrum"),
    ("cli", "run_scan"),
    ("cli", "run_verify"),
    ("cli", "ground_state_wavefunction"),
    ("cli", "overlap_ratio"),
    ("cli", "bifurcated_spectrum"),
    ("cli", "canonical_dumps"),
    ("cli", "scan_rows_to_csv"),
    ("solver", "verify_spectrum"),
    ("solver", "solve_bound_states"),
    ("solver", "discretize"),
    ("solver", "eig_complex_dense"),
    ("solver", "match_levels"),
    ("solver", "conjugate_pairing_check"),
    ("solver", "analytic_families"),
    ("solver", "ground_state_wavefunction"),
    ("solver", "overlap_ratio"),
    ("spectrum", "bifurcated_spectrum"),
)
# Functions too cheap to span: only their calls are counted.
COUNTED = (
    ("cli", "classify_regime"),
    ("solver", "classify_regime"),
    ("spectrum", "classify_regime"),
    ("superpotential", "classify_regime"),
    ("solver", "_inverse_iteration"),
)


@dataclass(frozen=True)
class Span:
    id: int
    parent: Optional[int]
    run: Optional[int]
    name: str
    start: float
    end: float
    thread: int
    cpu: float = 0.0  # CPU time of the span's own thread, children included

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and counter store shared by the wrapped functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run: Optional[int] = None
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._owner_stack:
            parent = self._owner_stack[-1]
        else:
            parent = None
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        stack.append(span_id)
        cpu = time.thread_time()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            cpu = time.thread_time() - cpu
            stack.pop()
            with self._lock:
                self.spans.append(
                    Span(span_id, parent, self.run, name, start, end, threading.get_ident(), cpu)
                )

    def add(self, counter: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[counter] += value

    def note_max(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[counter] = max(self.counters[counter], value)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(asdict(s)) + "\n")


def _layer_name(fn: Callable) -> str:
    return fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__


def _observe(tracer: Tracer, name: str, args, result) -> None:
    """Counts taken at a span boundary from the call's arguments or result."""
    if name == "solver.eig_complex_dense":
        tracer.note_max("solver.eig_dim", args[0].shape[0])
    elif name == "solver.solve_bound_states":
        tracer.add("solver.kept", len(result.eigenvalues))
    elif name in ("reporting.canonical_dumps", "reporting.scan_rows_to_csv"):
        tracer.add("reporting.output_bytes", len(result.encode("utf-8")))


def _spanned(tracer: Tracer, fn: Callable) -> Callable:
    name = _layer_name(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        _observe(tracer, name, args, result)
        return result

    return wrapper


def _counted(tracer: Tracer, fn: Callable) -> Callable:
    counter = {
        "params.classify_regime": "params.classify_regime_calls",
        "solver._inverse_iteration": "solver.candidates",
    }[_layer_name(fn)]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.add(counter)
        return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers on the ptscarf modules, and undo them on exit.

    The tracer must be created on the thread that calls the program.
    """
    from ptscarf import cli, solver, spectrum, superpotential

    modules = {"cli": cli, "solver": solver, "spectrum": spectrum, "superpotential": superpotential}
    saved = []
    saved_handlers = dict(cli._HANDLERS)
    try:
        for table, wrap in ((SPANNED, _spanned), (COUNTED, _counted)):
            for mod_name, attr in table:
                module = modules[mod_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, wrap(tracer, original))
        # cli.main dispatches through this table, not through the module names
        for key, fn in saved_handlers.items():
            cli._HANDLERS[key] = getattr(cli, fn.__name__)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
        cli._HANDLERS.update(saved_handlers)


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children running in parallel threads overlap; the covered part is their
    union, clipped to the parent's interval, so self time is never negative.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        )
        out[s.id] = s.duration - covered
    return out


def _descendant_of(span: Span, ancestor_ids: set[int], by_id: dict[int, Span]) -> bool:
    parent = span.parent
    while parent is not None:
        if parent in ancestor_ids:
            return True
        parent = by_id[parent].parent
    return False


def scan_parallel_efficiency(spans: list[Span], jobs: int) -> float:
    """verify_spectrum busy time inside run_scan over (run_scan wall x jobs).

    Busy time is the worker thread's CPU time: a point waiting for the
    interpreter lock held by the other job is not busy.
    """
    by_id = {s.id: s for s in spans}
    scans = [s for s in spans if s.name == "cli.run_scan"]
    if not scans:
        return 0.0
    scan_ids = {s.id for s in scans}
    busy = sum(
        s.cpu
        for s in spans
        if s.name == "solver.verify_spectrum" and _descendant_of(s, scan_ids, by_id)
    )
    return busy / (sum(s.duration for s in scans) * jobs)


def per_layer_metrics(tracer: Tracer, attempted: int, jobs: int) -> dict[str, float]:
    """The per-layer table: times and counts per attempted operation.

    ``<span>_s`` is inclusive span time, ``<span>.self_s`` self time, and
    ``cli.self_s``/``solver.self_s`` the self time of every span of that module
    (its own code plus whatever it calls that is not spanned).  A layer the
    workload never reaches reads 0.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for s in spans:
        inclusive[s.name] += s.duration
        own[s.name] += selfs[s.id]
        layer_self[s.name.split(".", 1)[0]] += selfs[s.id]
    per_op = 1.0 / max(attempted, 1)
    c = tracer.counters
    dim = c["solver.eig_dim"]
    m = {
        "cli.run_scan_s": inclusive["cli.run_scan"] * per_op,
        "cli.scan_parallel_efficiency": scan_parallel_efficiency(spans, jobs),
        "cli.build_config_s": inclusive["cli.build_config"] * per_op,
        "cli.run_verify_s": inclusive["cli.run_verify"] * per_op,
        "cli.run_potential_s": inclusive["cli.run_potential"] * per_op,
        "solver.eig_complex_dense_s": inclusive["solver.eig_complex_dense"] * per_op,
        "solver.eig_dim": dim,
        "solver.eig_dense_bytes": 16.0 * dim * dim,
        "solver.discretize_s": inclusive["solver.discretize"] * per_op,
        "solver.solve_bound_states.self_s": own["solver.solve_bound_states"] * per_op,
        "solver.candidates": c["solver.candidates"] * per_op,
        "solver.kept": c["solver.kept"] * per_op,
        "solver.kept_ratio": (
            c["solver.kept"] / c["solver.candidates"] if c["solver.candidates"] else 0.0
        ),
        "solver.match_levels_s": inclusive["solver.match_levels"] * per_op,
        "solver.conjugate_pairing_check_s": inclusive["solver.conjugate_pairing_check"] * per_op,
        "solver.verify_spectrum.self_s": own["solver.verify_spectrum"] * per_op,
        "spectrum.analytic_families_s": inclusive["spectrum.analytic_families"] * per_op,
        "spectrum.bifurcated_spectrum_s": inclusive["spectrum.bifurcated_spectrum"] * per_op,
        "superpotential.ground_state_wavefunction_s": (
            inclusive["superpotential.ground_state_wavefunction"] * per_op
        ),
        "params.classify_regime_calls": c["params.classify_regime_calls"] * per_op,
        "grids.overlap_ratio_s": inclusive["grids.overlap_ratio"] * per_op,
        "reporting.canonical_dumps_s": inclusive["reporting.canonical_dumps"] * per_op,
        "reporting.scan_rows_to_csv_s": inclusive["reporting.scan_rows_to_csv"] * per_op,
        "reporting.output_bytes": c["reporting.output_bytes"] * per_op,
    }
    for layer in ("cli", "solver"):
        m[f"{layer}.self_s"] = layer_self[layer] * per_op
    return m


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes"):
        return "B"
    if metric.endswith(("ratio", "efficiency")):
        return "ratio"
    return "count"
