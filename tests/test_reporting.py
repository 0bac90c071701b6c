import json

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


class TestCanonicalJson:
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
