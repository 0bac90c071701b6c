import contextlib
import csv
import io
import json
import logging
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import ptscarf
from ptscarf import cli, region, solver
from ptscarf.cli import build_config, build_parser, main


def run_cli(tmp_path, args, name="out.json"):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    return code, text


class TestPotentialCommand:
    def test_broken_point(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            ["potential", "--A", "1.5", "--B", "2", "--alpha", "1", "--cpt", "0.5"],
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["regime"] == "broken"
        assert payload["potential"]["s"] == {"re": -7.25, "im": 0.0}
        assert payload["potential"]["t"] == {"re": 0.0, "im": 8.5}
        assert payload["pt_symmetric_potential"] is True
        assert [w["label"] for w in payload["superpotentials"]] == ["plus", "minus"]

    def test_unbroken_point(self, tmp_path):
        code, text = run_cli(
            tmp_path, ["potential", "--A", "1", "--B", "2", "--alpha", "1", "--cpt", "0"]
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["regime"] == "unbroken"
        assert payload["potential"]["s"] == {"re": -6.0, "im": 0.0}
        assert payload["potential"]["t"] == {"re": 0.0, "im": 6.0}

    def test_flags_before_subcommand(self, tmp_path):
        code, text = run_cli(
            tmp_path, ["--A", "1.5", "--B", "2", "--alpha", "1", "--cpt", "0.5", "potential"]
        )
        assert code == 0
        assert json.loads(text)["regime"] == "broken"

    def test_not_pt_symmetric_exits_2(self, tmp_path, capsys):
        code, text = run_cli(
            tmp_path, ["potential", "--A", "1", "--B", "1", "--cpt", "0.5"]
        )
        assert code == 2
        assert text == ""
        assert "PT-symmetry condition" in capsys.readouterr().err

    def test_output_is_canonical_json(self, tmp_path):
        _, text = run_cli(
            tmp_path, ["potential", "--A", "1.5", "--B", "2", "--cpt", "0.5"]
        )
        assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text


class TestNegativeExponentValues:
    """Exponent-form negatives such as -8.02e-05 parse for every numeric flag."""

    def test_potential(self, tmp_path):
        code, text = run_cli(
            tmp_path, ["potential", "--A", "1.5", "--B", "2e0", "--cpt", "-5e-1"]
        )
        assert code == 0
        assert json.loads(text)["params"]["c_pt"] == -0.5

    def test_verify(self, tmp_path):
        code, text = run_cli(tmp_path, ["--B", "-8.02e-05", "verify", "--A", "1.5"])
        assert code == 0
        assert json.loads(text)["params"]["B"] == -8.02e-05

    def test_scan(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            [
                "scan", "--A", "1.5", "--points", "301",
                "--scan-min", "-5e-1", "--scan-max", "-2.5E-1", "--scan-steps", "2",
            ],
            name="scan.csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert sorted({float(r["c_pt"]) for r in rows}) == [-0.5, -0.25]

    def test_non_numeric_dash_token_is_still_an_option(self, tmp_path):
        code, _ = run_cli(tmp_path, ["potential", "--A", "-x1", "--B", "2"])
        assert code == 3


class TestValidation:
    def test_missing_b(self, tmp_path):
        code, _ = run_cli(tmp_path, ["potential", "--A", "1"])
        assert code == 3

    def test_bad_alpha(self, tmp_path):
        code, _ = run_cli(tmp_path, ["potential", "--A", "1", "--B", "2", "--alpha", "-1"])
        assert code == 3

    def test_even_points(self, tmp_path):
        code, _ = run_cli(
            tmp_path, ["spectrum", "--A", "1", "--B", "2", "--points", "600"]
        )
        assert code == 3

    def test_scan_needs_bounds(self, tmp_path):
        code, _ = run_cli(tmp_path, ["scan", "--A", "1.5"])
        assert code == 3

    def test_scan_steps_minimum(self, tmp_path):
        code, _ = run_cli(
            tmp_path,
            ["scan", "--A", "1.5", "--scan-min", "0", "--scan-max", "1", "--scan-steps", "1"],
        )
        assert code == 3

    def test_unknown_flag_maps_to_validation(self, tmp_path):
        assert main(["potential", "--A", "1", "--B", "2", "--bogus", "3"]) == 3

    def test_invalid_order_choice(self, tmp_path):
        code, _ = run_cli(
            tmp_path, ["spectrum", "--A", "1", "--B", "2", "--order", "3"]
        )
        assert code == 3

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


class TestNonFiniteInputs:
    """Tolerances and scan bounds must be finite numbers, from flags or config."""

    SCAN = [
        "scan", "--A", "1.5", "--scan-min", "0.1", "--scan-max", "0.2",
        "--scan-steps", "2", "--points", "61",
    ]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_match_tol_flag(self, tmp_path, capsys, value):
        # a NaN tolerance used to match levels 1.8-2.5 away and exit 0
        code, text = run_cli(tmp_path, [*self.SCAN, "--match-tol", value], name="scan.csv")
        assert (code, text) == (3, "")
        assert f"match_tol must be finite, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_match_tol_from_config(self, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"match_tol": %s}' % value)
        code, text = run_cli(tmp_path, [*self.SCAN, "--config", str(cfg)], name="scan.csv")
        assert (code, text) == (3, "")
        assert "match_tol must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--scan-min", "--scan-max"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_scan_bounds(self, tmp_path, capsys, flag, value):
        # a NaN bound used to write rows with c_pt = nan, inf error rows; both exit 0
        args = [*self.SCAN, f"{flag}={value}"]
        code, text = run_cli(tmp_path, args, name="scan.csv")
        assert (code, text) == (3, "")
        assert f"{flag} must be finite, got {value}" in capsys.readouterr().err

    def test_infinite_a_in_a_scan_without_b(self, tmp_path, capsys):
        # exit 3 as with --B; it used to give an error row per point and exit 0
        args = ["scan", "--A", "inf", "--scan-min", "0", "--scan-max", "0.5", "--scan-steps", "2"]
        code, text = run_cli(tmp_path, args, name="scan.csv")
        assert (code, text) == (3, "")
        assert "parameter A must be finite" in capsys.readouterr().err


class TestSpectrumCommand:
    def test_broken_small_grid(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            [
                "spectrum", "--A", "1.5", "--B", "2", "--cpt", "0.5",
                "--points", "601", "--order", "4",
            ],
        )
        assert code == 0
        payload = json.loads(text)
        assert len(payload["matches"]) == 4
        assert payload["unmatched_analytic"] == []
        assert payload["pairing"]["max_defect"] <= 1e-3
        assert payload["ground_state_pt_invariant"] is False
        assert payload["grid"]["n_points"] == 601

    def test_unresolvable_grid_exits_4(self, tmp_path, capsys):
        code, text = run_cli(
            tmp_path,
            [
                "spectrum", "--A", "2.5", "--B", "1",
                "--points", "7", "--order", "2",
            ],
        )
        assert code == 4
        payload = json.loads(text)
        assert payload["unmatched_analytic"]
        assert "without numerical partner" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "point",
        [["--A", "2.5", "--B", "1"], ["--A", "1.5", "--B", "2", "--cpt", "0.5"]],
        ids=["unbroken", "broken"],
    )
    def test_stdout_does_not_depend_on_the_blas_thread_count(self, point, capsys):
        if region.blas_thread_count() is None:
            pytest.skip("scipy's bundled OpenBLAS is not present")
        # at 201 points the broken point leaves its threshold pair unmatched (exit 4)
        outputs = []
        for threads in (1, 2):
            with region.blas_threads(threads):
                code = main(["spectrum", *point, "--points", "201"])
            outputs.append((code, capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    def test_emitted_json_round_trips(self, tmp_path):
        _, text = run_cli(
            tmp_path,
            ["spectrum", "--A", "1.5", "--B", "2", "--cpt", "0.5", "--points", "601"],
        )
        assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text


class TestScanCommand:
    BASE = [
        "scan", "--A", "1.5", "--B", "2", "--alpha", "1",
        "--points", "601", "--order", "4",
    ]

    def test_two_step_scan_hits_endpoints(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            [*self.BASE, "--scan-min", "0", "--scan-max", "0.5", "--scan-steps", "2"],
            name="scan.csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        c_values = sorted({float(r["c_pt"]) for r in rows})
        assert c_values == [0.0, 0.5]
        broken_rows = [r for r in rows if float(r["c_pt"]) == 0.5]
        assert {r["sector"] for r in broken_rows} == {"plus", "minus"}
        for r in broken_rows:
            assert r["error"] == ""
            assert abs(float(r["abs_err"])) <= 5e-3

    def test_deterministic_and_jobs_invariant(self, tmp_path):
        args = [*self.BASE, "--scan-min", "0.2", "--scan-max", "0.5", "--scan-steps", "2"]
        _, first = run_cli(tmp_path, args, name="a.csv")
        _, second = run_cli(tmp_path, args, name="b.csv")
        _, threaded = run_cli(tmp_path, [*args, "--jobs", "2"], name="c.csv")
        assert first == second == threaded

    def test_jobs_never_change_the_bytes(self, tmp_path):
        args = [*self.BASE, "--scan-min", "0", "--scan-max", "0.6", "--scan-steps", "4"]
        outputs = [
            run_cli(tmp_path, [*args, "--jobs", str(jobs)], name=f"jobs{jobs}.csv")
            for jobs in (1, 2, 3)
        ]
        assert outputs[0][0] == 0
        assert "\n000,0.0," in outputs[0][1]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_scan_solves_on_one_blas_thread_and_restores_the_count(
        self, tmp_path, monkeypatch
    ):
        if region.blas_thread_count() is None:
            pytest.skip("scipy's bundled OpenBLAS is not present")
        # the first and the last stage of each solve record the count they run on
        seen: dict[str, list] = {"_pt_real_band": [], "_inverse_iteration": []}
        for name, calls in seen.items():
            def recording(*args, _stage=getattr(solver, name), _calls=calls, **kwargs):
                _calls.append(region.blas_thread_count())
                return _stage(*args, **kwargs)

            monkeypatch.setattr(solver, name, recording)
        args = [*self.BASE, "--scan-min", "0.2", "--scan-max", "0.5", "--scan-steps", "2"]
        with region.blas_threads(2):
            code, _ = run_cli(tmp_path, [*args, "--jobs", "2"], name="scan.csv")
            assert region.blas_thread_count() == 2
        assert code == 0
        assert seen["_pt_real_band"] == [1, 1]
        assert seen["_inverse_iteration"] and set(seen["_inverse_iteration"]) == {1}

    def test_blas_thread_count_restored_when_a_point_raises(self, tmp_path, monkeypatch):
        if region.blas_thread_count() is None:
            pytest.skip("scipy's bundled OpenBLAS is not present")
        seen = []

        def failing(*args, **kwargs):
            seen.append(region.blas_thread_count())
            raise RuntimeError("solve failed")

        monkeypatch.setattr(solver, "_pt_real_band", failing)
        args = [*self.BASE, "--scan-min", "0.2", "--scan-max", "0.5", "--scan-steps", "4"]
        with region.blas_threads(2):
            with pytest.raises(RuntimeError, match="solve failed"):
                main([*args, "--out", str(tmp_path / "scan.csv")])
            assert region.blas_thread_count() == 2
        assert seen == [1]

    def test_a_scan_starts_no_thread(self, tmp_path, monkeypatch):
        started = []
        start = threading.Thread.start

        def counting(thread):
            started.append(thread.name)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        args = [*self.BASE, "--scan-min", "0.2", "--scan-max", "0.5", "--scan-steps", "2"]
        code, _ = run_cli(tmp_path, [*args, "--jobs", "2"], name="scan.csv")
        assert code == 0
        assert started == []

    def test_debug_line_records_points_and_blas_threads(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setenv("PTSCARF_LOG", "debug")
        caplog.set_level(logging.DEBUG, logger="ptscarf")
        args = [*self.BASE, "--scan-min", "0.5", "--scan-max", "0.5", "--scan-steps", "2"]
        code, _ = run_cli(tmp_path, [*args, "--jobs", "2"], name="scan.csv")
        assert code == 0
        lines = [
            r.getMessage() for r in caplog.records
            if r.name == "ptscarf.cli" and r.getMessage().startswith("scan: ")
        ]
        assert lines == ["scan: points=1"]
        solves = [
            r.getMessage() for r in caplog.records
            if r.name == "ptscarf.solver" and r.getMessage().startswith("solve order 599: ")
        ]
        during = None if region.blas_thread_count() is None else 1
        assert len(solves) == 1
        assert f" blas_threads={during} took " in solves[0]

    def test_degenerate_span_collapses_to_one_point(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            [
                "scan", "--A", "1.5", "--B", "0.4", "--points", "601",
                "--scan-min", "0", "--scan-max", "0", "--scan-steps", "2",
            ],
            name="scan.csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert {r["run_id"] for r in rows} == {"000"}
        assert {r["sector"] for r in rows} == {"primary"}
        for r in rows:
            assert abs(float(r["im_E_numeric"])) <= 1e-6

    def test_json_format(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            [
                *self.BASE, "--scan-min", "0.5", "--scan-max", "0.5",
                "--scan-steps", "2", "--format", "json",
            ],
        )
        assert code == 0
        payload = json.loads(text)
        assert {row["sector"] for row in payload["rows"]} == {"plus", "minus"}


class TestVerifyCommand:
    def test_broken_point_all_pass(self, tmp_path):
        code, text = run_cli(
            tmp_path, ["verify", "--A", "1.5", "--B", "2", "--cpt", "0.5"]
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["all_pass"] is True
        assert len(payload["properties"]) == 7
        assert {p["status"] for p in payload["properties"]} == {"pass"}

    def test_unbroken_point_skips_broken_only_checks(self, tmp_path):
        code, text = run_cli(tmp_path, ["verify", "--A", "1", "--B", "2"])
        assert code == 0
        payload = json.loads(text)
        statuses = {p["name"]: p["status"] for p in payload["properties"]}
        assert statuses["unique_broken_potential"] == "skipped"
        assert statuses["exchange_negates_cpt"] == "skipped"
        assert statuses["exchange_swaps_sectors"] == "skipped"
        assert statuses["pt_condition"] == "pass"
        assert statuses["ground_state_pt"] == "pass"

    def test_non_normalizable_ground_state_fails(self, tmp_path, capsys):
        code, text = run_cli(
            tmp_path, ["verify", "--A", "-1", "--B", "-0.5", "--cpt", "0.5"]
        )
        assert code == 1
        payload = json.loads(text)
        statuses = {p["name"]: p["status"] for p in payload["properties"]}
        assert statuses["ground_state_pt"] == "fail"
        assert "ground_state_pt" in capsys.readouterr().err

    @pytest.mark.parametrize("point", [("1", "100"), ("100", "1"), ("2", "80")], ids=str)
    def test_deep_wells_pass_the_expansion_despite_rounding(self, tmp_path, point):
        # |V| reaches ~1e4 here: the two forms differ by a few 1e-12 of rounding
        a, b = point
        code, text = run_cli(tmp_path, ["verify", "--A", a, "--B", b, "--points=101"])
        assert code == 0
        props = {q["name"]: q for q in json.loads(text)["properties"]}
        assert props["potential_expansion"]["status"] == "pass"
        assert props["potential_expansion"]["defect"] > 1e-12

    def test_a_level_count_that_rounding_moves_passes_the_exchange(self, tmp_path):
        # sl2_exchange moves A from 1.3 to 1.3000000000000003, which puts
        # level n = 1 2.2e-16 above its threshold: 2 exchanged levels against 1
        code, text = run_cli(
            tmp_path, ["verify", "--A=1.3", "--alpha=1.3", "--B=1.9500000000000002", "--cpt=22.8"]
        )
        assert code == 0
        prop = {q["name"]: q for q in json.loads(text)["properties"]}["exchange_swaps_sectors"]
        assert prop["status"] == "pass" and prop["defect"] <= ptscarf.TAU_PARAM
        assert prop["detail"] == (
            "levels: plus 1, exchanged minus 2; levels: minus 1, exchanged plus 2"
        )

    def test_a_real_level_count_mismatch_fails_with_a_finite_defect(self, tmp_path, monkeypatch):
        exchange = cli.sl2_exchange

        def one_rung_deeper(p, sector):
            q = exchange(p, sector)
            return ptscarf.Params(q.A + q.alpha, q.B + q.alpha, q.alpha, q.c_pt)

        monkeypatch.setattr(cli, "sl2_exchange", one_rung_deeper)
        code, text = run_cli(tmp_path, ["verify", "--A", "1.5", "--B", "2", "--cpt", "0.5"])
        assert code == 1
        prop = {q["name"]: q for q in json.loads(text)["properties"]}["exchange_swaps_sectors"]
        assert prop["status"] == "fail" and math.isfinite(prop["defect"]) and prop["defect"] > 1.0
        assert prop["detail"] == (
            "levels: plus 2, exchanged minus 3; levels: minus 2, exchanged plus 3"
        )

    @pytest.mark.parametrize(
        "point, name, defect",
        [
            (["--A", "1", "--alpha", "1.2", "--B", "1.6", "--cpt", "27.2"],
             "unique_broken_potential", 1.42e-14),
            (["--A=35.6", "--alpha=1.4", "--B=36.300000000000004", "--cpt=28.9"],
             "pt_symmetric_potential", 1.02e-12),
        ],
        ids=["unique", "pt_symmetric"],
    )
    def test_large_potentials_pass_despite_rounding(self, tmp_path, point, name, defect):
        # |V| ~ 1.5e3 and 2.2e3: their rounding exceeds 1e-14 and 1e-12 absolute
        code, text = run_cli(tmp_path, ["verify", *point])
        assert code == 0
        prop = {q["name"]: q for q in json.loads(text)["properties"]}[name]
        assert prop["status"] == "pass"
        assert prop["defect"] == pytest.approx(defect, rel=0.01)

    @pytest.mark.parametrize("alpha", [0.01, 0.3, 0.7, 1.0, 1.2277864616474525, 1.9])
    def test_the_sample_points_are_the_seeded_uniforms(self, alpha):
        # one unit draw per process, scaled as Generator.uniform scales it
        expected = np.random.default_rng(1234).uniform(-10.0 / alpha, 10.0 / alpha, size=1000)
        assert np.array_equal(cli._verify_points(alpha), expected)
        assert cli._unit_uniforms() is cli._unit_uniforms()

    def test_not_pt_symmetric_fails_condition(self, tmp_path):
        code, text = run_cli(tmp_path, ["verify", "--A", "1", "--B", "1", "--cpt", "0.5"])
        assert code == 1
        payload = json.loads(text)
        statuses = {p["name"]: p["status"] for p in payload["properties"]}
        assert statuses["pt_condition"] == "fail"


class TestConfigFile:
    def test_config_supplies_grid(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"points": 8}))
        code, _ = run_cli(
            tmp_path, ["potential", "--A", "1", "--B", "2", "--config", str(cfg)]
        )
        assert code == 3  # even point count from the config is rejected

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"points": 8}))
        code, _ = run_cli(
            tmp_path,
            ["potential", "--A", "1", "--B", "2", "--config", str(cfg), "--points", "601"],
        )
        assert code == 0

    @pytest.mark.parametrize(
        "key", ["pairing_tol", "boundary_tol", "energy_margin", "config", "match-tol", "bogus"]
    )
    def test_unknown_key_is_refused(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1e-4}))
        code, _ = run_cli(tmp_path, ["potential", "--A", "1", "--B", "2", "--config", str(cfg)])
        assert code == 3
        err = capsys.readouterr().err
        assert f"unknown keys {key};" in err
        assert err.rstrip().endswith(
            "accepted: A, B, alpha, cpt, fmt, half_width, jobs, match_tol, order, out, "
            "points, scan_max, scan_min, scan_steps"
        )

    @pytest.mark.parametrize(
        "key, value, kind",
        [
            ("points", [1], "an integer"),
            ("points", 601.7, "an integer"),
            ("points", True, "an integer"),
            ("order", 4.0, "an integer"),
            ("scan_steps", "3", "an integer"),
            ("jobs", None, "an integer"),
            ("A", "1.5", "a number"),
            ("half_width", False, "a number"),
            ("out", 7, "a string"),
            ("fmt", ["json"], "a string"),
        ],
    )
    def test_a_value_of_the_wrong_json_type_is_refused(self, tmp_path, capsys, key, value, kind):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, text = run_cli(tmp_path, ["potential", "--A", "1", "--B", "2", "--config", str(cfg)])
        assert (code, text) == (3, "")
        assert capsys.readouterr().err == (
            f"ptscarf: invalid configuration: config file {cfg}: {key} must be {kind}, "
            f"got {json.dumps(value)}\n"
        )

    @pytest.mark.parametrize(
        "action",
        [a for a in build_parser()._actions if a.choices is not None and a.dest != "command"],
        ids=lambda a: a.dest,
    )
    def test_a_value_outside_the_flags_choices_is_refused(self, tmp_path, capsys, action):
        value = max(action.choices) + 1 if action.type is int else "x" + "".join(action.choices)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({action.dest: value}))
        code, text = run_cli(tmp_path, ["spectrum", "--A", "1", "--B", "2", "--config", str(cfg)])
        assert (code, text) == (3, "")
        choices = " or ".join(map(str, action.choices))
        assert capsys.readouterr().err == (
            f"ptscarf: invalid configuration: {action.option_strings[0]} must be {choices}, "
            f"got {value}\n"
        )

    def test_a_bad_order_is_reported_before_a_bad_point_count(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"points": 8, "order": 3}))
        code, _ = run_cli(tmp_path, ["spectrum", "--A", "1", "--B", "2", "--config", str(cfg)])
        assert code == 3
        assert capsys.readouterr().err == (
            "ptscarf: invalid configuration: --order must be 2 or 4, got 3\n"
        )

    def test_every_default_is_a_parser_dest(self):
        dests = {a.dest for a in build_parser()._actions}
        assert set(cli._DEFAULTS) <= dests

    def test_an_integer_beyond_the_float_range_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"A": 1' + "0" * 400 + "}")
        code, _ = run_cli(tmp_path, ["potential", "--B", "2", "--config", str(cfg)])
        assert code == 3
        assert capsys.readouterr().err == (
            f"ptscarf: invalid configuration: config file {cfg}: A: "
            "int too large to convert to float\n"
        )

    def test_every_flag_but_config_can_come_from_the_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = {
            "A": 1.5, "B": 2.0, "alpha": 1.0, "cpt": 0.0, "half_width": 20.0,
            "points": 201, "order": 4, "match_tol": 5e-3, "out": "scan.json", "fmt": "json",
            "scan_min": 0.5, "scan_max": 0.5, "scan_steps": 2, "jobs": 1,
        }
        Path("cfg.json").write_text(json.dumps(cfg))
        assert main(["scan", "--config", "cfg.json"]) == 0
        rows = json.loads(Path("scan.json").read_text())["rows"]
        assert {row["sector"] for row in rows} == {"plus", "minus"}

    def test_scan_without_b_pins_the_broken_constraint(self):
        ns = build_parser().parse_args(
            ["scan", "--A", "1.5", "--alpha", "0.5", "--scan-min", "0",
             "--scan-max", "1", "--scan-steps", "2"]
        )
        assert build_config(ns).params == ptscarf.Params(1.5, 1.75, 0.5, 0.0)

    def test_unreadable_config(self, tmp_path):
        code, _ = run_cli(
            tmp_path,
            ["potential", "--A", "1", "--B", "2", "--config", str(tmp_path / "nope.json")],
        )
        assert code == 3


class TestLogging:
    def test_log_level_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PTSCARF_LOG", "debug")
        code, _ = run_cli(tmp_path, ["potential", "--A", "1.5", "--B", "2", "--cpt", "0.5"])
        assert code == 0

    def test_unknown_level_falls_back(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PTSCARF_LOG", "chatty")
        code, _ = run_cli(tmp_path, ["potential", "--A", "1.5", "--B", "2", "--cpt", "0.5"])
        assert code == 0


def _help_text(parser, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 0
    return buf.getvalue()


class TestParserReuse:
    """main parses with one parser per process; no call may see another's flags."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_no_flag_leaks_into_the_next_parse(self, tmp_path):
        code, text = run_cli(tmp_path, ["verify", "--A", "2.5", "--B", "1", "--points=101"])
        assert code == 0
        assert json.loads(text)["all_pass"] is True
        ns = build_parser().parse_args(["verify", "--A", "2.5", "--B", "1"])
        assert not hasattr(ns, "points")
        assert build_config(ns).grid.n_points == 4001

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["scan", "-h"]])
    def test_help_is_byte_identical_to_a_fresh_parser(self, tmp_path, argv):
        run_cli(tmp_path, ["potential", "--A", "1.5", "--B", "2", "--cpt", "0.5"])
        main(["verify", "--bogus"])
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        fresh = build_parser.__wrapped__()
        assert fresh is not build_parser()
        assert buf.getvalue() == _help_text(fresh, argv)

    def test_usage_errors_still_return_3(self, tmp_path):
        assert main(["verify", "--A"]) == 3
        assert main(["nonsense"]) == 3
        code, text = run_cli(tmp_path, ["potential", "--A", "1.5", "--B", "2", "--cpt", "0.5"])
        assert code == 0
        assert json.loads(text)["regime"] == "broken"


_CHILD = """
import contextlib, io, json, sys

def watched_modules():
    return sorted(
        m for m in sys.modules
        if m == "scipy" or m.startswith("scipy.") or m == "concurrent.futures"
    )

loaded, random = {}, {}
import numpy
random["import numpy"] = "numpy.random" in sys.modules
import ptscarf
loaded["import ptscarf"] = watched_modules()
import ptscarf.cli
loaded["import ptscarf.cli"] = watched_modules()
random["import ptscarf.cli"] = "numpy.random" in sys.modules
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(ptscarf.cli.main(argv))
    loaded[" ".join(argv)] = watched_modules()
    random[" ".join(argv)] = "numpy.random" in sys.modules
print(json.dumps({"codes": codes, "loaded": loaded, "random": random}))
"""


def _run_child(argvs):
    """Run the CLI calls in a fresh interpreter; report exit codes, the
    scipy and concurrent.futures modules loaded after each step and whether
    numpy.random is."""
    env = dict(os.environ)
    src = str(Path(ptscarf.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportPath:
    """The closed-form commands run on numpy alone; scipy loads at the first solve.

    Nor does import ptscarf.cli load concurrent.futures: a scan runs its
    points in one loop, on no thread pool.
    """

    def test_potential_and_verify_never_load_scipy(self):
        unbroken = ["--A=2.5", "--B=1", "--points=201"]
        broken = ["--A=1.5", "--B=2", "--cpt=0.5", "--points=201"]
        result = _run_child(
            [
                ["verify", *unbroken],
                ["potential", *unbroken],
                ["verify", *broken],
                ["potential", *broken],
            ]
        )
        assert result["codes"] == [0, 0, 0, 0]
        assert len(result["loaded"]) == 6
        assert "concurrent.futures" not in result["loaded"]["import ptscarf.cli"]
        assert all(mods == [] for mods in result["loaded"].values()), result["loaded"]

    def test_import_and_potential_leave_numpy_random_unloaded(self):
        # verify draws its samples at its first call, so the import that the
        # benchmark's setup_s times and a potential call never load numpy.random
        result = _run_child(
            [
                ["potential", "--A=2.5", "--B=1"],
                ["potential", "--A=1.5", "--B=2", "--cpt=0.5"],
                ["verify", "--A=2.5", "--B=1", "--points=201"],
            ]
        )
        if result["random"]["import numpy"]:
            pytest.skip("this numpy loads numpy.random with itself")
        assert result["codes"] == [0, 0, 0]
        assert list(result["random"].values()) == [False, False, False, False, True]

    def test_arpack_loads_only_for_a_solve_above_the_crossover(self):
        # scipy.sparse.linalg (ARPACK) serves the region solve alone: the
        # closed-form commands and a small dense solve never import it
        small = ["spectrum", "--A=2.5", "--B=1", "--points=201"]
        large = ["spectrum", "--A=2.5", "--B=1", "--points=601"]
        result = _run_child(
            [
                ["verify", "--A=1.5", "--B=2", "--cpt=0.5", "--points=201"],
                ["potential", "--A=1.5", "--B=2", "--cpt=0.5"],
                small,
                large,
            ]
        )
        assert result["codes"] == [0, 0, 0, 0]
        arpack = {k: "scipy.sparse.linalg" in mods for k, mods in result["loaded"].items()}
        assert arpack.pop(" ".join(large)) is True
        assert not any(arpack.values()), arpack

    def test_spectrum_still_solves_and_loads_scipy(self):
        argv = ["spectrum", "--A=2.5", "--B=1", "--points=201"]
        result = _run_child([argv])
        assert result["codes"] == [0]
        assert result["loaded"]["import ptscarf.cli"] == []
        assert "scipy.linalg" in result["loaded"][" ".join(argv)]

    def test_a_dense_solve_loads_no_scipy_sparse(self):
        # the real form is built straight into band storage: below the
        # crossover nothing of scipy.sparse loads, above it ARPACK does
        small = ["spectrum", "--A=2.5", "--B=1", "--points=201"]
        large = ["spectrum", "--A=2.5", "--B=1", "--points=601"]
        result = _run_child([small, large])
        assert result["codes"] == [0, 0]
        sparse = {
            k: [m for m in mods if m == "scipy.sparse" or m.startswith("scipy.sparse.")]
            for k, mods in result["loaded"].items()
        }
        assert sparse.pop(" ".join(large))
        assert all(mods == [] for mods in sparse.values()), sparse

    def test_an_unmatched_level_does_not_load_scipy_optimize(self):
        # on this coarse grid the shallow point loses a level: matching
        # leaves it unmatched and the run exits 4, on scipy.linalg alone
        argv = ["spectrum", "--A=1.633", "--B=2.703", "--alpha=0.716", "--points=61"]
        result = _run_child([argv])
        assert result["codes"] == [4]
        assert not any(
            m == "scipy.optimize" or m.startswith("scipy.optimize.")
            for mods in result["loaded"].values() for m in mods
        ), result["loaded"]


@pytest.mark.parametrize(
    "point",
    [
        ["--A", "2.5", "--B", "1"],
        *(["--A", "1.5", "--B", "2", "--cpt", c] for c in ("0.5", "0.01", "1e-3", "1e-4")),
    ],
    ids=str,
)
def test_verify_and_spectrum_report_the_same_ground_state_overlaps(tmp_path, point):
    code_v, verify = run_cli(tmp_path, ["verify", *point, "--points=601"], name="v.json")
    code_s, spectrum = run_cli(tmp_path, ["spectrum", *point, "--points=601"], name="s.json")
    assert code_v == code_s == 0
    props = {q["name"]: q for q in json.loads(verify)["properties"]}
    detail = dict(item.split("=") for item in props["ground_state_pt"]["detail"].split())
    report = json.loads(spectrum)
    assert float(detail["pt_self_overlap"]) == report["ground_state_pt_overlap"]
    swap = detail.get("sector_swap_overlap")
    assert report["sector_swap_overlap"] == (None if swap is None else float(swap))
    assert (len(point) == 6) == (swap is not None)
    # one verdict: near the exceptional point the broken ground state still
    # passes verify and is not reported PT-invariant
    assert props["ground_state_pt"]["status"] == "pass"
    assert report["ground_state_pt_invariant"] is (swap is None)
