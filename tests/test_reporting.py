import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptscarf import Grid, Params, verify_spectrum
from ptscarf.reporting import (
    SCAN_COLUMNS,
    ScanRow,
    canonical_dumps,
    complex_from_json,
    complex_to_json,
    scan_rows_to_csv,
    spectrum_report_to_dict,
)


class TestComplexEncoding:
    def test_round_trip(self):
        for z in (0.0, 1.5 - 2.25j, -6.25 + 0j, 1e-300 + 1e300j):
            assert complex_from_json(complex_to_json(z)) == complex(z)

    def test_object_shape(self):
        assert complex_to_json(-2.0 - 1.5j) == {"re": -2.0, "im": -1.5}


def _reference(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"


EDGE_FLOATS = (-0.0, 1e-05, 5e-324, 1e16, 1.7976931348623157e308)
TEXT = st.text(max_size=6) | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é ü", "\u2028", "😀"])
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(EDGE_FLOATS)
    | TEXT
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=24,
)


class TestCanonicalJson:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(DOCUMENTS)
    @example({"b": [], "a": {}, "": [(), {"x": None}], "é": [True, False, 0, -1]})
    @example([*EDGE_FLOATS, -(2**200), 2**200])
    def test_bytes_are_json_dumps(self, doc):
        # perfbench's check re-encodes with canonical_dumps itself, so only
        # json.dumps can tell that the encoder writes the canonical bytes
        assert canonical_dumps(doc) == _reference(doc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_raise_jsons_error(self, bad):
        for doc in (bad, [1.0, bad], {"a": {"b": bad}}):
            with pytest.raises(ValueError) as expected:
                _reference(doc)
            with pytest.raises(ValueError) as got:
                canonical_dumps(doc)
            assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("doc", [object(), {1.5j}, [b"x"], {"a": 1j}, {1: "a"}, {"a": {None: 1}}])
    def test_other_types_and_keys_raise_type_error(self, doc):
        with pytest.raises(TypeError):
            canonical_dumps(doc)

    def test_parse_and_reserialize_is_identity(self):
        payload = {
            "b": [1, 2.5, {"im": -0.5, "re": 0.0}],
            "a": "text",
            "nested": {"z": 1e-17, "y": -0.0},
        }
        text = canonical_dumps(payload)
        assert canonical_dumps(json.loads(text)) == text

    def test_spectrum_report_round_trips(self):
        report = verify_spectrum(Params(1.5, 2.0, 1.0, 0.5), Grid(20.0, 301), order=4)
        text = canonical_dumps(spectrum_report_to_dict(report))
        assert canonical_dumps(json.loads(text)) == text

    def test_keys_sorted(self):
        text = canonical_dumps({"z": 1, "a": 2})
        assert text.index('"a"') < text.index('"z"')


class TestScanCsv:
    def test_header_and_layout(self):
        row = ScanRow(
            run_id="000", c_pt=0.25, sector="plus", n=0,
            re_E_analytic=-2.1875, im_E_analytic=-0.75,
            re_E_numeric=-2.18750001, im_E_numeric=-0.7500002,
            abs_err=2.1e-7, error="",
        )
        text = scan_rows_to_csv([row])
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(SCAN_COLUMNS)
        fields = lines[1].split(",")
        assert fields[0] == "000"
        assert float(fields[4]) == -2.1875

    def test_floats_survive_text_round_trip(self):
        value = -2.0000000915695733
        row = ScanRow(
            run_id="001", c_pt=0.5, sector="minus", n=1,
            re_E_analytic=value, im_E_analytic=0.0,
            re_E_numeric=None, im_E_numeric=None, abs_err=None, error="unmatched",
        )
        fields = scan_rows_to_csv([row]).strip().split("\n")[1].split(",")
        assert float(fields[4]) == value
        assert fields[6] == ""  # absent numeric values stay empty

    def test_deterministic(self):
        rows = [
            ScanRow("000", 0.0, "primary", 0, -2.25, 0.0, -2.25, 1e-10, 1e-10, "")
        ]
        assert scan_rows_to_csv(rows) == scan_rows_to_csv(rows)
