"""Command-line interface: potential / spectrum / scan / verify.

Exit codes are a stable contract:

    0  success (all requested checks passed)
    1  verify: at least one property failed
    2  regime error (parameters not PT-symmetric, or wrong regime)
    3  validation error (bad flags, config, grid or parameter domain)
    4  match error (analytic level without a numerical partner)
    5  eigensolver convergence failure

Common flags may appear before or after the subcommand.  An optional JSON
config file (--config) may set any other flag, keyed by its dest ("A",
"half_width", "fmt", ...); other keys are refused and explicit flags win.
Log verbosity comes from the PTSCARF_LOG environment variable (error, warn,
info, debug).

The PT verdict (superpotentials, PT defect, ground-state PT overlaps) lives
in superpotential.py; verify and solver.verify_spectrum both take it there.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import solver
from .errors import (
    ConvergenceError,
    DomainError,
    GridError,
    MatchError,
    NonNormalizableError,
    PtScarfError,
    RegimeError,
    ValidationError,
)
from .grids import Grid, overlap_ratio  # noqa: F401  (a re-export, see below)
from .params import (
    TAU_PARAM,
    Params,
    Regime,
    Sector,
    broken_constraint_params,
    check_pt_condition,
    classify_regime,
    sl2_exchange,
)
from .reporting import (
    ScanRow,
    canonical_dumps,
    complex_to_json,
    grid_to_dict,
    params_to_dict,
    scan_rows_to_csv,
    spectrum_report_to_dict,
)
from .spectrum import bifurcated_spectrum
from .superpotential import (
    GS_PT_TOL,
    Superpotential,
    check_pt_symmetric_potential,
    ground_state_energy,
    ground_state_pt,
    # not called here, nor is overlap_ratio: re-exported for perfbench's tracer
    ground_state_wavefunction,  # noqa: F401
    partner_potential_minus,
    pt_defect,
    superpotentials,
)

logger = logging.getLogger(__name__)

DEFAULT_ALPHA = 1.0
DEFAULT_CPT = 0.0
DEFAULT_POINTS = 4001
DEFAULT_ORDER = 4
# Property thresholds used by the verify suite.
EXPANSION_TOL = 1e-12
UNIQUENESS_TOL = 1e-14
GS_BROKEN_SELF_MAX = 0.999
_VERIFY_SAMPLES = 1000
_VERIFY_SEED = 1234


@dataclass
class RunConfig:
    """Resolved run configuration (flags over config file over defaults).

    A scan without --B gets B = A + alpha/2, the value the broken constraint
    pins at every c_pt != 0; only its c_pt = 0 endpoint reads params.B.
    """

    command: str
    params: Params
    grid: Grid
    order: int
    match_tol: float
    out: Optional[Path]
    fmt: str
    scan: Optional[tuple[float, float, int]]
    jobs: int


def _setup_logging() -> None:
    levels = {
        "error": logging.ERROR,
        "warn": logging.WARNING,
        "warning": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }
    name = os.environ.get("PTSCARF_LOG", "warn").strip().lower()
    level = levels.get(name)
    if level is None:
        level = logging.WARNING
    logging.basicConfig(
        stream=sys.stderr,
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
    )
    logging.getLogger("ptscarf").setLevel(level)


def _add_common_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    d = argparse.SUPPRESS if suppress else None
    model = parser.add_argument_group("model parameters")
    model.add_argument("--A", dest="A", type=float, default=d, help="depth parameter A")
    model.add_argument("--B", dest="B", type=float, default=d, help="depth parameter B")
    model.add_argument(
        "--alpha", type=float, default=d, help="width parameter alpha > 0 (default 1.0)"
    )
    model.add_argument(
        "--cpt", dest="cpt", type=float, default=d,
        help="PT-breaking parameter c_pt (default 0.0)",
    )
    grid = parser.add_argument_group("grid and tolerances")
    grid.add_argument(
        "--half-width", dest="half_width", type=float, default=d,
        help="domain half width L (default 20/alpha)",
    )
    grid.add_argument(
        "--points", type=int, default=d, help="odd grid point count (default 4001)"
    )
    grid.add_argument(
        "--order", type=int, choices=(2, 4), default=d,
        help="Laplacian stencil order (default 4)",
    )
    grid.add_argument(
        "--match-tol", dest="match_tol", type=float, default=d,
        help="level matching tolerance (default 5e-3)",
    )
    out = parser.add_argument_group("output")
    out.add_argument("--out", type=str, default=d, help="output file (default stdout)")
    out.add_argument(
        "--format", dest="fmt", choices=("json", "csv"), default=d,
        help="output format (json; scan defaults to csv)",
    )
    scan = parser.add_argument_group("scan")
    scan.add_argument("--scan-min", dest="scan_min", type=float, default=d)
    scan.add_argument("--scan-max", dest="scan_max", type=float, default=d)
    scan.add_argument("--scan-steps", dest="scan_steps", type=int, default=d)
    scan.add_argument(
        "--jobs", type=int, default=d, help="concurrent scan points (default 1)"
    )
    parser.add_argument(
        "--config", type=str, default=d,
        help="JSON file with grid/tolerance overrides (flags take precedence)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ptscarf argument parser, built once per process and shared.

    Parsing leaves the parser unchanged (every flag defaults to SUPPRESS,
    so each parse returns a fresh namespace); callers must not modify it.
    """
    parser = argparse.ArgumentParser(
        prog="ptscarf",
        description=(
            "Complex Scarf-II PT-symmetric spectra: analytic construction "
            "checked by a non-Hermitian eigensolver"
        ),
    )
    _add_common_flags(parser, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("potential", "emit superpotential(s) and potential coefficients"),
        ("spectrum", "match analytic levels against the numerical spectrum"),
        ("scan", "sweep c_pt and emit the bifurcation table"),
        ("verify", "run the analytic property suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p, suppress=True)
    return parser


def _load_config_file(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"config file {path} must hold a JSON object")
    keys = {a.dest for a in build_parser()._actions} - {"help", "command", "config"}
    if set(data) - keys:
        unknown, accepted = ", ".join(sorted(set(data) - keys)), ", ".join(sorted(keys))
        raise ValidationError(f"config file {path}: unknown keys {unknown}; accepted: {accepted}")
    return data


def build_config(ns: argparse.Namespace) -> RunConfig:
    """Resolve the run configuration; raises ValidationError on bad input."""
    file_cfg = _load_config_file(getattr(ns, "config", None))

    def pick(name: str, default=None):
        value = getattr(ns, name, None)
        if value is not None:
            return value
        if name in file_cfg:
            return file_cfg[name]
        return default

    command = ns.command
    raw_a = pick("A")
    raw_b = pick("B")
    alpha = float(pick("alpha", DEFAULT_ALPHA))
    c_pt = float(pick("cpt", DEFAULT_CPT))
    if alpha <= 0.0 or not np.isfinite(alpha):
        raise ValidationError(f"--alpha must be positive and finite, got {alpha}")

    scan = None
    if command == "scan":
        scan_min = pick("scan_min")
        scan_max = pick("scan_max")
        steps = pick("scan_steps")
        if scan_min is None or scan_max is None or steps is None:
            raise ValidationError("scan requires --scan-min, --scan-max, --scan-steps")
        steps = int(steps)
        if steps < 2:
            raise ValidationError(f"--scan-steps must be >= 2, got {steps}")
        scan = (float(scan_min), float(scan_max), steps)
        for flag, value in zip(("--scan-min", "--scan-max"), scan):
            if not math.isfinite(value):
                raise ValidationError(f"{flag} must be finite, got {value}")
        if raw_a is None:
            raise ValidationError("scan requires --A")
        if raw_b is None:
            raw_b = float(raw_a) + alpha / 2.0
    elif raw_a is None or raw_b is None:
        raise ValidationError(f"{command} requires --A and --B")

    try:
        params = Params(float(raw_a), float(raw_b), alpha, c_pt)
    except DomainError as exc:
        raise ValidationError(str(exc)) from exc

    half_width = float(pick("half_width", 20.0 / alpha))
    points = int(pick("points", DEFAULT_POINTS))
    try:
        grid = Grid(half_width=half_width, n_points=points)
    except GridError as exc:
        raise ValidationError(str(exc)) from exc

    order = int(pick("order", DEFAULT_ORDER))
    if order not in (2, 4):
        raise ValidationError(f"--order must be 2 or 4, got {order}")
    match_tol = float(pick("match_tol", solver.MATCH_TOL))
    # a NaN tolerance would make every "error > tol" test false: all matched
    if not math.isfinite(match_tol):
        raise ValidationError(f"match_tol must be finite, got {match_tol}")
    if match_tol <= 0.0:
        raise ValidationError(f"match_tol must be > 0, got {match_tol}")

    fmt = pick("fmt", "csv" if command == "scan" else "json")
    if fmt not in ("json", "csv"):
        raise ValidationError(f"--format must be json or csv, got {fmt}")
    out = pick("out")
    jobs = int(pick("jobs", 1))
    if jobs < 1:
        raise ValidationError(f"--jobs must be >= 1, got {jobs}")

    return RunConfig(
        command=command,
        params=params,
        grid=grid,
        order=order,
        match_tol=match_tol,
        out=Path(out) if out is not None else None,
        fmt=fmt,
        scan=scan,
        jobs=jobs,
    )


def _superpotential_dict(label: str, w: Superpotential) -> dict:
    try:
        gs: Optional[dict] = complex_to_json(ground_state_energy(w))
    except NonNormalizableError:
        gs = None
    return {
        "label": label,
        "a": complex_to_json(w.a),
        "b": complex_to_json(w.b),
        "alpha": w.alpha,
        "ground_state_energy": gs,
    }


def run_potential(cfg: RunConfig) -> tuple[int, str]:
    """Emit superpotential(s), potential coefficients, regime and PT verdict."""
    p = cfg.params
    ws = superpotentials(p)
    if not ws:
        raise RegimeError(
            "parameters violate the PT-symmetry condition c_pt*(2*(A-B)+alpha) = 0"
        )
    v = partner_potential_minus(ws[0][1])
    payload = {
        "params": params_to_dict(p),
        "regime": classify_regime(p).value,
        "pt_condition": check_pt_condition(p),
        "superpotentials": [_superpotential_dict(label, w) for label, w in ws],
        "potential": {
            "s": complex_to_json(v.s),
            "t": complex_to_json(v.t),
            "c0": complex_to_json(v.c0),
            "alpha": v.alpha,
        },
        "pt_symmetric_potential": check_pt_symmetric_potential(v),
    }
    return 0, canonical_dumps(payload)


def _solve(cfg: RunConfig, p: Params) -> tuple[solver.SpectrumReport, Optional[MatchError]]:
    """solver.verify_spectrum on the run's grid; a MatchError is returned, not raised."""
    try:
        return solver.verify_spectrum(p, cfg.grid, order=cfg.order, match_tol=cfg.match_tol), None
    except MatchError as exc:
        return exc.report, exc


def run_spectrum(cfg: RunConfig) -> tuple[int, str]:
    """Verify the analytic spectrum numerically; exit 0 iff fully matched."""
    report, unmatched = _solve(cfg, cfg.params)
    if unmatched is not None:
        print(f"ptscarf spectrum: {unmatched}", file=sys.stderr)
    payload = {**spectrum_report_to_dict(report), "grid": grid_to_dict(cfg.grid)}
    return (0 if unmatched is None else 4), canonical_dumps(payload)


_SECTOR_RANK = {"plus": 0, "minus": 1, "primary": 0, "sl2_exchanged": 1}


def _scan_point_rows(cfg: RunConfig, run_id: str, c_pt: float) -> list[ScanRow]:
    # c_pt != 0 pins B = A + alpha/2 (the PT condition forces it); the
    # c_pt = 0 endpoint keeps the run's B for continuity inspection.
    p = cfg.params.with_c_pt(0.0)
    try:
        if abs(c_pt) > TAU_PARAM:
            p = broken_constraint_params(p.A, p.alpha, c_pt)
        report, _ = _solve(cfg, p)
    except PtScarfError as exc:
        return [ScanRow(run_id, c_pt, "", None, None, None, None, None, None, str(exc))]
    by_analytic = {m.analytic_index: m for m in report.matches}
    rows = []
    for idx, level in enumerate(report.analytic):
        match = by_analytic.get(idx)
        numeric = (None, None, None, "unmatched")
        if match is not None:
            en = report.numerical[match.numerical_index]
            numeric = (en.real, en.imag, match.abs_error, "")
        e = level.energy
        rows.append(ScanRow(run_id, c_pt, level.family, level.n, e.real, e.imag, *numeric))
    rows.sort(key=lambda r: (_SECTOR_RANK.get(r.sector, 9), r.n if r.n is not None else -1))
    return rows


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_scan(cfg: RunConfig) -> tuple[int, str]:
    """Sweep c_pt along the broken constraint and tabulate both branches."""
    from . import lapack

    lo, hi, steps = cfg.scan
    values = list(np.linspace(lo, hi, steps))
    # collapse exact duplicates (e.g. a [0, 0] sweep) to a single point
    c_values = []
    for c in values:
        if not c_values or c != c_values[-1]:
            c_values.append(float(c))
    # One BLAS thread for every job count: the thread count moves the last
    # digits of the eigenvalues, and the output must not depend on --jobs.
    # The window count's banded LUs and the dense dgeev release the
    # interpreter lock; ARPACK and the Python around them hold it, so jobs
    # overlap only in those LAPACK calls.
    blas_before = lapack.blas_thread_count()
    rows: list[ScanRow] = []
    with lapack.blas_threads(1):
        logger.debug(
            "scan: points=%d jobs=%d usable_cpus=%d blas_threads=%s->%s",
            len(c_values),
            cfg.jobs,
            _usable_cpus(),
            blas_before,
            lapack.blas_thread_count(),
        )
        pool = ThreadPoolExecutor(max_workers=cfg.jobs)
        try:
            futures = [
                pool.submit(_scan_point_rows, cfg, f"{i:03d}", c)
                for i, c in enumerate(c_values)
            ]
            for i, (c, future) in enumerate(zip(c_values, futures)):
                rows.extend(future.result())
                logger.info("scan point %d/%d done (c_pt=%g)", i + 1, len(c_values), c)
        finally:
            # not a with block: that would run every queued point before a
            # failure or an interrupt propagates
            pool.shutdown(cancel_futures=True)
    if cfg.fmt == "csv":
        return 0, scan_rows_to_csv(rows)
    return 0, canonical_dumps({"rows": [r.as_dict() for r in rows]})


def _pt_condition(p: Params, ws, x, g):
    return check_pt_condition(p), abs(p.c_pt * (2.0 * (p.A - p.B) + p.alpha)), ""


def _potential_expansion(p: Params, ws, x, g):
    """The closed-form coefficients reproduce W^2 - W' - a^2 pointwise."""
    defect = 0.0
    for _, w in ws:
        direct = w.evaluate(x) ** 2 - w.derivative(x) - w.a * w.a
        defect = max(defect, float(np.max(np.abs(partner_potential_minus(w).evaluate(x) - direct))))
    return defect <= EXPANSION_TOL, defect, ""


def _unique_broken_potential(p: Params, ws, x, g):
    """Both broken-sector superpotentials share one potential."""
    vp, vm = (partner_potential_minus(w) for _, w in ws)
    defect = max(abs(vp.s - vm.s), abs(vp.t - vm.t), abs(vp.c0 - vm.c0))
    return defect <= UNIQUENESS_TOL, defect, ""


def _exchange_negates_cpt(p: Params, ws, x, g):
    """The parameter exchange reduces to c_pt negation, and is an involution."""
    q = sl2_exchange(p, Sector.PLUS)
    r = sl2_exchange(q, Sector.PLUS)
    defect = max(
        abs(q.A - p.A), abs(q.B - p.B), abs(q.c_pt + p.c_pt),
        abs(r.A - p.A), abs(r.B - p.B), abs(r.c_pt - p.c_pt),
    )
    return defect <= TAU_PARAM, defect, ""


def _exchange_swaps_sectors(p: Params, ws, x, g):
    """The exchange swaps the two bifurcated families and nothing else."""
    fam_plus, fam_minus = bifurcated_spectrum(p)
    x_plus, x_minus = bifurcated_spectrum(sl2_exchange(p, Sector.PLUS))
    defect = 0.0
    for fam, swapped in ((fam_plus, x_minus), (fam_minus, x_plus)):
        for (_, e1), (_, e2) in zip(fam.levels, swapped.levels):
            defect = max(defect, abs(e1 - e2))
        if len(fam.levels) != len(swapped.levels):
            defect = float("inf")
    return defect <= TAU_PARAM, defect, ""


def _pt_symmetric_potential(p: Params, ws, x, g):
    """The potential itself is PT-symmetric, in its coefficients and sampled."""
    v = partner_potential_minus(ws[0][1])
    defect = max(pt_defect(v, x), abs(v.s.imag), abs(v.t.real), abs(v.c0.imag))
    return check_pt_symmetric_potential(v) and defect <= 1e-12, defect, ""


def _ground_state_pt(p: Params, ws, x, g):
    """The ground state is PT-invariant iff unbroken; broken sectors' are PT-images."""
    self_overlap, swap = ground_state_pt(ws, g)
    if swap is None:
        detail = f"pt_self_overlap={self_overlap!r}"
        return self_overlap >= 1.0 - GS_PT_TOL, 1.0 - self_overlap, detail
    return (
        swap >= 1.0 - GS_PT_TOL and self_overlap <= GS_BROKEN_SELF_MAX,
        max(1.0 - swap, self_overlap - GS_BROKEN_SELF_MAX),
        f"sector_swap_overlap={swap!r} pt_self_overlap={self_overlap!r}",
    )


_PT_REGIMES = frozenset({Regime.UNBROKEN, Regime.BROKEN})
_BROKEN_ONLY = frozenset({Regime.BROKEN})
# The verify suite: (name, the regimes it applies to, check), skipped in the
# others.  A check takes (p, superpotentials(p), sample points x, grid) and
# returns (passed, defect, detail).
_PROPERTIES = (
    ("pt_condition", frozenset(Regime), _pt_condition),
    ("potential_expansion", _PT_REGIMES, _potential_expansion),
    ("unique_broken_potential", _BROKEN_ONLY, _unique_broken_potential),
    ("exchange_negates_cpt", _BROKEN_ONLY, _exchange_negates_cpt),
    ("exchange_swaps_sectors", _BROKEN_ONLY, _exchange_swaps_sectors),
    ("pt_symmetric_potential", _PT_REGIMES, _pt_symmetric_potential),
    ("ground_state_pt", _PT_REGIMES, _ground_state_pt),
)


def run_verify(cfg: RunConfig) -> tuple[int, str]:
    """Run the analytic property suite; exit 0 iff no property fails."""
    p = cfg.params
    regime = classify_regime(p)
    ws = superpotentials(p)
    rng = np.random.default_rng(_VERIFY_SEED)
    x = rng.uniform(-10.0 / p.alpha, 10.0 / p.alpha, size=_VERIFY_SAMPLES)
    props: list[dict] = []
    for name, regimes, check in _PROPERTIES:
        defect = None
        if regime not in regimes:
            status = "skipped"
            detail = "broken regime only" if regimes is _BROKEN_ONLY else "no regime"
        else:
            try:
                passed, defect, detail = check(p, ws, x, cfg.grid)
                status = "pass" if passed else "fail"
            except NonNormalizableError as exc:
                status, detail = "fail", str(exc)
        props.append(
            {
                "name": name,
                "status": status,
                "defect": float(defect) if defect is not None else None,
                "detail": detail,
            }
        )

    failed = [q["name"] for q in props if q["status"] == "fail"]
    payload = {
        "params": params_to_dict(p),
        "regime": regime.value,
        "properties": props,
        "all_pass": not failed,
    }
    if failed:
        print(f"ptscarf verify: failing properties: {', '.join(failed)}", file=sys.stderr)
    return (0 if not failed else 1), canonical_dumps(payload)


def _emit(text: str, out: Optional[Path]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


_HANDLERS = {
    "potential": run_potential,
    "spectrum": run_spectrum,
    "scan": run_scan,
    "verify": run_verify,
}


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join "--flag -8e-05" into "--flag=-8e-05".

    argparse reads a token that starts with "-" as an option unless it is a
    plain decimal such as -1 or -0.5, so exponent-form negative values would
    be refused; attached with "=" they parse for every numeric flag.
    """
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if token.startswith("-") and prev.startswith("--") and "=" not in prev:
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] = f"{prev}={token}"
                continue
        out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = parser.parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; remap onto the validation code
        code = exc.code if exc.code is not None else 0
        return 3 if code == 2 else int(code)
    _setup_logging()
    try:
        cfg = build_config(ns)
        code, text = _HANDLERS[ns.command](cfg)
        _emit(text, cfg.out)
        return code
    except ValidationError as exc:
        print(f"ptscarf: invalid configuration: {exc}", file=sys.stderr)
        return 3
    except (DomainError, GridError, NonNormalizableError, ValueError) as exc:
        print(f"ptscarf: {exc}", file=sys.stderr)
        return 3
    except RegimeError as exc:
        print(f"ptscarf: {exc}", file=sys.stderr)
        return 2
    except MatchError as exc:
        print(f"ptscarf: {exc}", file=sys.stderr)
        return 4
    except ConvergenceError as exc:
        print(f"ptscarf: eigensolver did not converge: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
