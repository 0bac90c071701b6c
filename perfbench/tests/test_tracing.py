"""Self time, span parents across threads, and the wrappers on the real program."""

import io
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracing  # noqa: E402
from ptscarf import cli  # noqa: E402
from tracing import Span, Tracer  # noqa: E402


def span(id, parent, name, start, end, thread=1, cpu=0.0):
    return Span(id, parent, 0, name, start, end, thread, cpu)


def test_union_length_merges_overlaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 1), (2, 3)]) == 2.0
    assert tracing.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0


def test_self_time_of_a_nested_tree():
    spans = [
        span(1, None, "cli.main", 0.0, 10.0),
        span(2, 1, "cli.run_verify", 1.0, 4.0),
        span(3, 2, "superpotential.ground_state_wavefunction", 2.0, 3.0),
        span(4, 1, "reporting.canonical_dumps", 6.0, 7.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}


def test_self_time_with_threaded_children_counts_their_union():
    # run_scan's two pool threads overlap: the parent's covered time is the
    # union of its children, never their sum, so self time stays >= 0
    spans = [
        span(1, None, "cli.run_scan", 0.0, 10.0),
        span(2, 1, "solver.verify_spectrum", 0.5, 8.0, thread=2, cpu=4.0),
        span(3, 1, "solver.verify_spectrum", 1.0, 9.0, thread=3, cpu=5.0),
        span(4, 2, "solver.eig_complex_dense", 1.0, 7.0, thread=2),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == 10.0 - 8.5
    assert selfs[2] == 7.5 - 6.0
    assert selfs[3] == 8.0
    # busy time is CPU time: each point waited for the other's lock part of the time
    assert tracing.scan_parallel_efficiency(spans, jobs=2) == (4.0 + 5.0) / (10.0 * 2)


def test_worker_thread_spans_take_the_owner_span_as_parent():
    tracer = Tracer()
    with tracer.span("cli.run_scan"):
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(_traced_leaf, tracer) for _ in range(4)]
            for f in futures:
                f.result(timeout=10)
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (scan,) = by_name["cli.run_scan"]
    assert scan.parent is None
    assert len(by_name["solver.verify_spectrum"]) == 4
    for s in by_name["solver.verify_spectrum"]:
        assert s.parent == scan.id
    for s in by_name["solver.eig_complex_dense"]:
        parent = next(p for p in tracer.spans if p.id == s.parent)
        assert parent.name == "solver.verify_spectrum" and parent.thread == s.thread


def _traced_leaf(tracer):
    with tracer.span("solver.verify_spectrum"):
        with tracer.span("solver.eig_complex_dense"):
            threading.Event().wait(0.001)


def test_instrument_wraps_the_callers_names_and_restores_them():
    before = {name: getattr(cli, name) for name in ("main", "run_potential", "canonical_dumps")}
    handlers = dict(cli._HANDLERS)
    tracer = Tracer()
    with tracing.instrument(tracer):
        with redirect_stdout(io.StringIO()) as buf:
            code = cli.main(["potential", "--A", "1.5", "--B", "2.0", "--cpt", "0.5"])
    assert code == 0
    assert {name: getattr(cli, name) for name in before} == before
    assert cli._HANDLERS == handlers
    names = [s.name for s in tracer.spans]
    for expected in ("cli.main", "cli.build_config", "cli.run_potential", "reporting.canonical_dumps"):
        assert expected in names
    assert "solver.eig_complex_dense" not in names
    assert tracer.counters["reporting.output_bytes"] == len(buf.getvalue().encode())
    assert tracer.counters["params.classify_regime_calls"] >= 1
    by_id = {s.id: s for s in tracer.spans}
    dumps = next(s for s in tracer.spans if s.name == "reporting.canonical_dumps")
    assert by_id[by_id[dumps.parent].parent].name == "cli.main"


def test_per_layer_names_and_units_match_benchmark_json():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    metrics = tracing.per_layer_metrics(Tracer(), attempted=1, jobs=1)
    assert [m["name"] for m in declared] == list(metrics)
    assert all(m["unit"] == tracing.unit(m["name"]) for m in declared)
    assert all(value == 0.0 for value in metrics.values())
