"""Run one ptscarf benchmark workload and print its metrics.

    python3 perfbench/run.py --workload spectrum-ref --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
With ``--trace 0`` the run measures set-up and the end-to-end metrics
untraced.  With ``--trace 1`` it runs the workload untraced and then traced,
reports the per-layer metrics of the traced run and prints the tracing
overhead as the difference of the two; the spans go to ``perfbench/out/``.
The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Every run also writes its environment record and every named metric to
``perfbench/out/result-<workload>-seed<seed>-trace<t>.json``.

The BLAS thread count is pinned before numpy loads, so that a workload runs
at most min(2, nproc) threads (jobs x BLAS threads, ``measure.thread_plan``):
results depend on it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(measure.THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _lines(title: str, metrics: dict[str, tuple[float, str]]) -> list[str]:
    return [f"{title} {name} = {value!r} {unit}" for name, (value, unit) in metrics.items()]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ptscarf" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/ptscarf; run from a checkout", file=sys.stderr)
        return 2
    jobs, threads = measure.thread_plan(args.workload)
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))
    import ptscarf

    if Path(ptscarf.__file__).resolve().parent != SRC / "ptscarf":
        print(f"perfbench: imported ptscarf from {ptscarf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    env = measure.environment(args.workload, args.seed, threads, jobs)
    print("env " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    def run(tracer=None):
        return workloads.run(args.workload, args.seed, args.seconds, tracer=tracer)

    if args.trace == 0:
        setup = measure.setup_seconds(str(SRC))
        outcome = run()
        e2e = measure.end_to_end(
            args.workload, outcome, statistics.median(setup), measure.peak_rss_mb())
        named = measure.named_metrics(args.workload, outcome, e2e)
        print("\n".join(_lines("metric", named)))
        tail = measure.tail_percentile(outcome.op_seconds)
        if tail is not None:
            print(f"metric op_p{tail[0]}_s = {tail[1]!r} s")
        print(f"ops {len(outcome.op_seconds)}, setup samples {setup}")
        outcomes = [outcome]
        metrics = {k: (v, measure.UNITS[k]) for k, v in e2e.items()}
        record = {"named": named}
    else:
        base = run()
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            traced = run(tracer)
        per_layer = tracing.per_layer_metrics(tracer, traced.attempted, jobs)
        metrics = {k: (v, tracing.unit(k)) for k, v in per_layer.items()}
        print("\n".join(_lines("layer", metrics)))
        overhead = {}
        untraced, with_trace = measure.timing(base), measure.timing(traced)
        for name in untraced:
            diff = with_trace[name] - untraced[name]
            overhead[name] = {"untraced": untraced[name], "traced": with_trace[name], "diff": diff}
            print(f"trace overhead {name}: traced {with_trace[name]!r}"
                  f" - untraced {untraced[name]!r} = {diff!r}")
        tracer.write_jsonl(OUT / f"spans-{stem}.jsonl")
        outcomes = [base, traced]
        record = {"trace_overhead": overhead}

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    for problem in problems[:10]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    record.update(env=env, attempted=attempted, failed=failed, problems=problems,
                  op_seconds=[o.op_seconds for o in outcomes],
                  ref_seconds=[o.ref_seconds for o in outcomes],
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
