"""Machine-readable outputs: canonical JSON reports and CSV sweep tables.

Complex numbers are emitted as {"re": x, "im": y} objects (never strings),
and JSON is always produced by canonical_dumps so that parse + re-serialize
round-trips byte-identically: sorted keys, two-space indent, no NaN/Inf.
canonical_dumps writes that text with its own encoder, in one pass; the
tests check it byte for byte against json.dumps(data, sort_keys=True,
indent=2, allow_nan=False), whose indenting encoder is pure Python.
CSV columns carry re/im parts separately, formatted with repr so the floats
survive a round trip through text.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from typing import Optional

from .grids import Grid
from .params import Params
from .solver import PairingReport, SpectrumReport
from .spectrum import EnergyFamily


def complex_to_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def complex_from_json(d: dict) -> complex:
    return complex(d["re"], d["im"])


def canonical_dumps(data) -> str:
    """Canonical JSON text: sorted keys, indent 2, trailing newline.

    The bytes of json.dumps(data, sort_keys=True, indent=2, allow_nan=False)
    and a newline: a NaN or infinite float raises json's ValueError, and any
    other type, or a dict key that is not a str, raises TypeError.
    """
    out: list[str] = []
    _encode(data, out, "\n")
    out.append("\n")
    return "".join(out)


def _encode(o, out: list[str], newline: str) -> None:
    """Append the canonical text of o to out; newline is a line break and o's indent."""
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError("Out of range float values are not JSON compliant: " + repr(o))
        out.append(float.__repr__(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in o:
            out.append(sep)
            _encode(value, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(o):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _encode(o[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def params_to_dict(p: Params) -> dict:
    return {"A": p.A, "B": p.B, "alpha": p.alpha, "c_pt": p.c_pt}


def grid_to_dict(g: Grid) -> dict:
    return {"half_width": g.half_width, "n_points": g.n_points, "h": g.h}


def family_to_dict(fam: EnergyFamily) -> dict:
    return {
        "label": fam.label(),
        "origin": fam.origin.value,
        "sector": fam.sector.value if fam.sector is not None else None,
        "levels": [
            {"n": n, "energy": complex_to_json(e)} for n, e in fam.levels
        ],
    }


def pairing_to_dict(pr: PairingReport) -> dict:
    return {
        "pairs": [
            {"first": i, "second": j, "defect": d} for i, j, d in pr.pairs
        ],
        "self_paired": list(pr.self_paired),
        "unpaired": list(pr.unpaired),
        "max_defect": pr.max_defect,
    }


def spectrum_report_to_dict(report: SpectrumReport) -> dict:
    return {
        "params": params_to_dict(report.params),
        "regime": report.regime.value,
        "analytic_families": [family_to_dict(f) for f in report.families],
        "analytic_levels": [
            {
                "family": l.family,
                "n": l.n,
                "energy": complex_to_json(l.energy),
            }
            for l in report.analytic
        ],
        "numerical_bound_states": [complex_to_json(e) for e in report.numerical],
        "matches": [
            {
                "analytic_index": m.analytic_index,
                "numerical_index": m.numerical_index,
                "abs_error": m.abs_error,
            }
            for m in report.matches
        ],
        "unmatched_analytic": list(report.unmatched_analytic),
        "unmatched_numerical": list(report.unmatched_numerical),
        "match_tol": report.match_tol,
        "pairing": pairing_to_dict(report.pairing),
        "pt_potential_defect": report.pt_potential_defect,
        "pt_potential_symmetric": report.pt_potential_symmetric,
        "ground_state_pt_overlap": report.ground_state_pt_overlap,
        "sector_swap_overlap": report.sector_swap_overlap,
        "ground_state_pt_invariant": report.ground_state_pt_invariant,
    }


@dataclass(frozen=True)
class ScanRow:
    """One (scan point, level) record of a bifurcation sweep; its fields are the CSV columns."""

    run_id: str
    c_pt: float
    sector: str
    n: Optional[int]
    re_E_analytic: Optional[float]
    im_E_analytic: Optional[float]
    re_E_numeric: Optional[float]
    im_E_numeric: Optional[float]
    abs_err: Optional[float]
    error: str = ""

    def as_list(self) -> list[str]:
        """The CSV cells in SCAN_COLUMNS order: floats by repr, None empty."""
        return [
            "" if v is None else repr(v) if isinstance(v, float) else str(v)
            for v in (getattr(self, name) for name in SCAN_COLUMNS)
        ]


SCAN_COLUMNS = [f.name for f in fields(ScanRow)]


def scan_rows_to_csv(rows: list[ScanRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCAN_COLUMNS)
    for row in rows:
        writer.writerow(row.as_list())
    return buf.getvalue()
