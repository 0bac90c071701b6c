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
"half_width", "fmt", ...), with a value of the flag's type (a JSON integer,
number or string; never a boolean) and among its choices; other keys and
values are refused.  Each setting is resolved in one merge: the flags given
over the config file over the _DEFAULTS table.
Log verbosity comes from the PTSCARF_LOG environment variable (error, warn,
info, debug).

The PT verdict (superpotentials, PT defect, ground-state PT overlaps) lives
in superpotential.py; verify and solver.verify_spectrum both take it there.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import logging
import math
import os
import sys
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
    Superpotential,
    check_pt_symmetric_on,
    check_pt_symmetric_potential,
    coefficient_scale,
    ground_state_energy,
    ground_state_pt,
    # not called here, nor is overlap_ratio: re-exported for perfbench's tracer
    ground_state_wavefunction,  # noqa: F401
    partner_potential_minus,
    pt_coefficient_defect,
    pt_superpotentials,
    superpotentials,
)

logger = logging.getLogger(__name__)

# The settings' constant defaults, under the config file and the flags;
# build_config works out half_width = 20/alpha, fmt by command and a scan's B.
_DEFAULTS = {
    "alpha": 1.0, "cpt": 0.0, "points": 4001, "order": 4, "match_tol": solver.MATCH_TOL, "jobs": 1,
}
# Property thresholds used by the verify suite, relative to the potential's
# size: max(1, max |V|) for the expansion, max(1, |s|, |t|, |c0|) for the
# uniqueness; pt_symmetric_potential takes superpotential.PT_ROUNDING_TOL.
EXPANSION_TOL = 1e-12
UNIQUENESS_TOL = 1e-14
_VERIFY_SAMPLES = 1000
_VERIFY_SEED = 1234
# What a config value must be, by its flag's argparse type (--format has
# none and takes a string): a description and the JSON-decoded types.
_CONFIG_TYPES = {
    int: ("an integer", int),
    float: ("a number", (int, float)),
    str: ("a string", str),
}


@dataclass
class RunConfig:
    """Resolved run configuration (flags over config file over defaults).

    A scan without --B gets B = A + alpha/2, the value the broken constraint
    pins at every c_pt != 0; only its c_pt = 0 endpoint reads params.B.
    """

    params: Params
    grid: Grid
    order: int
    match_tol: float
    out: Optional[Path]
    fmt: str
    scan: Optional[tuple[float, float, int]]


def _setup_logging() -> None:
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    name = os.environ.get("PTSCARF_LOG", "warn").strip().lower()
    level = levels.get(name, logging.WARNING)
    logging.basicConfig(
        stream=sys.stderr,
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
    )
    logging.getLogger("ptscarf").setLevel(level)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    d = argparse.SUPPRESS
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
        help="output format (json; csv for scan only, its default)",
    )
    scan = parser.add_argument_group("scan")
    scan.add_argument("--scan-min", dest="scan_min", type=float, default=d)
    scan.add_argument("--scan-max", dest="scan_max", type=float, default=d)
    scan.add_argument("--scan-steps", dest="scan_steps", type=int, default=d)
    scan.add_argument(
        "--jobs", type=int, default=d, help="accepted (>= 1) but has no effect"
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
    _add_common_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("potential", "emit superpotential(s) and potential coefficients"),
        ("spectrum", "match analytic levels against the numerical spectrum"),
        ("scan", "sweep c_pt and emit the bifurcation table"),
        ("verify", "run the analytic property suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
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
    actions = {a.dest: a for a in build_parser()._actions}
    keys = set(actions) - {"help", "command", "config"}
    if set(data) - keys:
        unknown, accepted = ", ".join(sorted(set(data) - keys)), ", ".join(sorted(keys))
        raise ValidationError(f"config file {path}: unknown keys {unknown}; accepted: {accepted}")
    for key, value in data.items():
        action = actions[key]
        kind, types = _CONFIG_TYPES[action.type or str]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValidationError(
                f"config file {path}: {key} must be {kind}, got {json.dumps(value)}"
            )
        if action.type is float:
            try:
                data[key] = float(value)
            except OverflowError as exc:  # an integer beyond the float range
                raise ValidationError(f"config file {path}: {key}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            choices = " or ".join(map(str, action.choices))
            raise ValidationError(f"{action.option_strings[0]} must be {choices}, got {value}")
    return data


def build_config(ns: argparse.Namespace) -> RunConfig:
    """Resolve the run configuration; raises ValidationError on bad input.

    One merge: the flags given (vars(ns), as every flag defaults to SUPPRESS)
    over the config file over _DEFAULTS."""
    given = vars(ns)
    settings = {**_DEFAULTS, **_load_config_file(given.get("config")), **given}
    command, alpha = settings["command"], settings["alpha"]
    if alpha <= 0.0 or not np.isfinite(alpha):
        raise ValidationError(f"--alpha must be positive and finite, got {alpha}")

    scan = None
    if command == "scan":
        if not {"scan_min", "scan_max", "scan_steps"} <= settings.keys():
            raise ValidationError("scan requires --scan-min, --scan-max, --scan-steps")
        scan = (settings["scan_min"], settings["scan_max"], settings["scan_steps"])
        if scan[2] < 2:
            raise ValidationError(f"--scan-steps must be >= 2, got {scan[2]}")
        for flag, value in zip(("--scan-min", "--scan-max"), scan):
            if not math.isfinite(value):
                raise ValidationError(f"{flag} must be finite, got {value}")
        if "A" not in settings:
            raise ValidationError("scan requires --A")
        settings.setdefault("B", settings["A"] + alpha / 2.0)
    elif "A" not in settings or "B" not in settings:
        raise ValidationError(f"{command} requires --A and --B")

    try:
        params = Params(settings["A"], settings["B"], alpha, settings["cpt"])
        half_width = settings.get("half_width", 20.0 / alpha)
        grid = Grid(half_width=half_width, n_points=settings["points"])
    except (DomainError, GridError) as exc:
        raise ValidationError(str(exc)) from exc

    match_tol = settings["match_tol"]
    # a NaN tolerance would make every "error > tol" test false: all matched
    if not math.isfinite(match_tol):
        raise ValidationError(f"match_tol must be finite, got {match_tol}")
    if match_tol <= 0.0:
        raise ValidationError(f"match_tol must be > 0, got {match_tol}")

    fmt = settings.get("fmt", "csv" if command == "scan" else "json")
    if fmt == "csv" and command != "scan":
        raise ValidationError(f"--format csv is for scan only; {command} writes json")
    if settings["jobs"] < 1:  # checked but unused: scan points run in one loop
        raise ValidationError(f"--jobs must be >= 1, got {settings['jobs']}")

    return RunConfig(
        params=params,
        grid=grid,
        order=settings["order"],
        match_tol=match_tol,
        out=Path(settings["out"]) if "out" in settings else None,
        fmt=fmt,
        scan=scan,
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
    ws, v = pt_superpotentials(p)
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
    # report.analytic runs by family (plus then minus, primary then
    # sl2_exchanged), then by n: the rows keep that order
    rows = []
    for idx, level in enumerate(report.analytic):
        match = by_analytic.get(idx)
        numeric = (None, None, None, "unmatched")
        if match is not None:
            en = report.numerical[match.numerical_index]
            numeric = (en.real, en.imag, match.abs_error, "")
        e = level.energy
        rows.append(ScanRow(run_id, c_pt, level.family, level.n, e.real, e.imag, *numeric))
    return rows


def run_scan(cfg: RunConfig) -> tuple[int, str]:
    """Sweep c_pt along the broken constraint and tabulate both branches."""
    lo, hi, steps = cfg.scan
    # exact duplicates (e.g. a [0, 0] sweep) collapse to a single point
    c_values = list(dict.fromkeys(float(c) for c in np.linspace(lo, hi, steps)))
    logger.debug("scan: points=%d", len(c_values))
    rows: list[ScanRow] = []
    for i, c in enumerate(c_values):
        rows.extend(_scan_point_rows(cfg, f"{i:03d}", c))
        logger.info("scan point %d/%d done (c_pt=%g)", i + 1, len(c_values), c)
    if cfg.fmt == "csv":
        return 0, scan_rows_to_csv(rows)
    return 0, canonical_dumps({"rows": [r.as_dict() for r in rows]})


def _pt_condition(p: Params, ws, x, g):
    return check_pt_condition(p), abs(p.c_pt * (2.0 * (p.A - p.B) + p.alpha)), ""


def _potential_expansion(p: Params, ws, x, g):
    """The closed-form coefficients reproduce W^2 - W' - a^2 pointwise.

    The bound is relative to max(1, max |V|) on the samples: a deep well
    (|V| ~ 1e4) leaves a few 1e-12 of rounding between the two forms.
    """
    defect, scale = 0.0, 1.0
    for _, w in ws:
        v = partner_potential_minus(w).evaluate(x)
        direct = w.evaluate(x) ** 2 - w.derivative(x) - w.a * w.a
        defect = max(defect, float(np.max(np.abs(v - direct))))
        scale = max(scale, float(np.max(np.abs(v))))
    return defect <= EXPANSION_TOL * scale, defect, ""


def _unique_broken_potential(p: Params, ws, x, g):
    """Both broken-sector superpotentials share one potential.

    The bound is relative to max(1, |s|, |t|, |c0|): at |s| ~ 1.5e3 the two
    forms differ by 1.4e-14 of rounding in Im s.
    """
    vp, vm = (partner_potential_minus(w) for _, w in ws)
    defect = max(abs(vp.s - vm.s), abs(vp.t - vm.t), abs(vp.c0 - vm.c0))
    return defect <= UNIQUENESS_TOL * coefficient_scale(vp), defect, ""


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
    """The exchange swaps the two bifurcated families and nothing else.

    Levels pair up by n.  A level that only one family of a pair has must
    be a rung on the threshold Re(a - n alpha) = 0 that rounding moved to
    the other side of it (the exchange moves A by an ulp or so): its
    defect is its distance from the threshold, Re sqrt(-E).
    """
    fam_plus, fam_minus = bifurcated_spectrum(p)
    x_plus, x_minus = bifurcated_spectrum(sl2_exchange(p, Sector.PLUS))
    defect, details = 0.0, []
    for fam, swapped in ((fam_plus, x_minus), (fam_minus, x_plus)):
        mine, theirs = fam.energies, swapped.energies
        for e1, e2 in zip(mine, theirs):
            defect = max(defect, abs(e1 - e2))
        unpaired = mine[len(theirs):] + theirs[len(mine):]
        for e in unpaired:
            defect = max(defect, cmath.sqrt(-e).real)
        if unpaired:
            details.append(
                f"levels: {fam.label()} {len(mine)}, exchanged {swapped.label()} {len(theirs)}"
            )
    return defect <= TAU_PARAM, defect, "; ".join(details)


def _pt_symmetric_potential(p: Params, ws, x, g):
    """The potential itself is PT-symmetric, in its coefficients and sampled.

    Both are judged to rounding relative to the potential's size
    (check_pt_symmetric_on); the defect is the larger of the two.
    """
    v = partner_potential_minus(ws[0][1])
    symmetric, sampled = check_pt_symmetric_on(v, x)
    return symmetric, max(sampled, pt_coefficient_defect(v)), ""


def _ground_state_pt(p: Params, ws, x, g):
    """ground_state_pt's verdict; the defect is 1 - the overlap that decides it."""
    self_overlap, swap, passed = ground_state_pt(ws, g)
    if swap is None:
        return passed, 1.0 - self_overlap, f"pt_self_overlap={self_overlap!r}"
    detail = f"sector_swap_overlap={swap!r} pt_self_overlap={self_overlap!r}"
    return passed, 1.0 - swap, detail


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
    argv = sys.argv[1:] if argv is None else argv
    try:
        ns = build_parser().parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; remap onto the validation code
        code = exc.code if exc.code is not None else 0
        return 3 if code == 2 else int(code)
    _setup_logging()
    try:
        cfg = build_config(ns)
        code, text = _HANDLERS[ns.command](cfg)
        if cfg.out is None:
            sys.stdout.write(text)
        else:
            cfg.out.write_text(text, encoding="utf-8")
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
