import contextlib
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_profile import csv_payloads, json_payloads

from specbounds import cli
from specbounds.cli import main


def _run(capsys, argv):
    status = main(argv)
    out = capsys.readouterr().out
    return status, out


def _run_json(capsys, argv):
    status, out = _run(capsys, argv)
    return status, json.loads(out)


def _assert_input_error(capsys, argv):
    # exit 1, nothing on stdout, and exactly one "error:" line on stderr
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    err_lines = captured.err.strip().splitlines()
    assert err_lines[-1].startswith("error:")
    assert sum(line.startswith("error:") for line in err_lines) == 1
    return err_lines[-1]


class TestBoundsCommand:
    def test_wigner_16(self, capsys):
        status, report = _run_json(
            capsys, ["bounds", "--family", "wigner:d=16", "--replicates", "20"]
        )
        assert status == 0
        assert report["schema"] == 1
        assert report["report"]["bounds"]["bvh"] == pytest.approx(
            4.0 + math.sqrt(math.log(16)), rel=1e-12
        )

    def test_diagonal_unit_d1(self, capsys):
        status, report = _run_json(
            capsys, ["bounds", "--family", "diagonal_unit:d=1", "--replicates", "10"]
        )
        assert status == 0
        assert report["report"]["bounds"]["equiv_expression"] == 1.0

    def test_csv_input_file(self, capsys, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("1,0\n0,1\n")
        status, report = _run_json(
            capsys, ["bounds", "--input", str(path), "--replicates", "10"]
        )
        assert status == 0
        assert report["profile"]["d"] == 2

    def test_missing_profile_source_is_usage_error(self, capsys):
        assert main(["bounds"]) == 1

    def test_unknown_family_is_input_error(self, capsys):
        assert main(["bounds", "--family", "nope:d=4"]) == 1

    @pytest.mark.parametrize("payload", ['{"d": 2}', "[[1, 0], [0, 1]]"])
    def test_malformed_json_input_is_input_error(self, capsys, tmp_path, payload):
        path = tmp_path / "profile.json"
        path.write_text(payload)
        _assert_input_error(capsys, ["bounds", "--input", str(path)])

    def test_non_integer_dimension_is_input_error(self, capsys):
        _assert_input_error(capsys, ["bounds", "--family", "wigner:d=inf"])

    @pytest.mark.parametrize("command", [
        ["bounds", "--family", "wigner:d=4"],
        ["mc", "--family", "wigner:d=4", "--quantity", "norm"],
        ["scan", "--families", "wigner", "--dims", "4"],
    ])
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_nonpositive_workers_is_usage_error(self, capsys, command, workers):
        _assert_input_error(capsys, command + ["--workers", workers])

    @pytest.mark.parametrize("command", [
        ["bounds", "--family", "wigner:d=4"],
        ["mc", "--family", "wigner:d=4", "--quantity", "norm"],
        ["verify", "--check", "basic", "--trials", "5"],
        ["scan", "--families", "wigner", "--dims", "4"],
    ])
    def test_negative_seed_is_usage_error(self, capsys, command):
        assert "--seed" in _assert_input_error(capsys, command + ["--seed", "-1"])

    @pytest.mark.parametrize("command, flag, value, low", [
        (["bounds", "--family", "wigner:d=4"], "--replicates", "1", 2),
        (["mc", "--family", "wigner:d=4", "--quantity", "norm"], "--replicates", "1", 2),
        (["scan", "--families", "wigner", "--dims", "4"], "--replicates", "1", 2),
        (["verify", "--check", "slice"], "--replicates", "0", 1),
        (["ball", "--family", "bandeira:delta=0.5"], "--points", "2", 3),
        (["verify", "--check", "equiv"], "--replicates", "1", 2),
    ])
    def test_count_below_floor_names_the_flag(self, capsys, command, flag, value, low):
        line = _assert_input_error(capsys, command + [flag, value])
        assert line == f"error: argument {flag}: expected an integer >= {low}, got {value}"

    @pytest.mark.parametrize("spec", ["kronecker_flip:d=4,seed=-1", "sparse_random:d=4,seed=-1"])
    def test_negative_family_seed_is_input_error(self, capsys, spec):
        assert "seed" in _assert_input_error(capsys, ["bounds", "--family", spec])

    def test_unexpected_family_parameter_is_input_error(self, capsys):
        line = _assert_input_error(capsys, ["bounds", "--family", "wigner:d=4,w=2"])
        assert line == "error: unexpected parameter(s) ['w'] for family 'wigner'"

    @pytest.mark.parametrize("flag", ["--c", "--gamma"])
    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
    def test_nonpositive_or_non_finite_constant_is_usage_error(self, capsys, flag, value):
        line = _assert_input_error(
            capsys, ["bounds", "--family", "wigner:d=4", f"{flag}={value}"]
        )
        assert f"argument {flag}:" in line and value in line

    @pytest.mark.parametrize("flag, value, bound", [("--gamma", "1e-320", "thm41"),
                                                    ("--c", "1.7e308", "remark_upper")])
    def test_constant_that_overflows_a_bound_names_the_flag(self, capsys, flag, value, bound):
        # both pass the parser as finite numbers > 0, but 1/gamma, or C times
        # the profile's gamma_star, overflows
        line = _assert_input_error(capsys, ["bounds", "--family", "wigner:d=4",
                                            "--replicates", "10", flag, value])
        assert line == (f"error: argument {flag}: bound {bound} is not finite at "
                        f"{flag[2:]}={float(value)!r}")

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        assert main(["bounds", "--input", str(tmp_path / "absent.csv")]) == 1

    def test_out_file_written(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        status, _ = _run(
            capsys,
            ["bounds", "--family", "wigner:d=4", "--replicates", "10", "--out", str(out)],
        )
        assert status == 0
        assert json.loads(out.read_text())["command"] == "bounds"

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_out_is_input_error(self, capsys, tmp_path, target):
        # a missing directory, and a directory in place of a file
        _assert_input_error(capsys, ["bounds", "--family", "wigner:d=4", "--replicates", "10",
                                     "--out", str(tmp_path / target)])

    def test_deeply_nested_json_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text('{"b": ' + "[" * 5000 + "]" * 5000 + "}")
        assert "nested" in _assert_input_error(capsys, ["bounds", "--input", str(path)])

    def test_oversized_family_entry_is_input_error(self, capsys):
        # delta = 1e308 puts b_11^4 = 1e616 beyond float64
        line = _assert_input_error(capsys, ["bounds", "--family", "bandeira:delta=1e308"])
        assert "profile entries" in line


class TestMcCommand:
    def test_zero_profile_all_quantities(self, capsys):
        status, report = _run_json(
            capsys,
            ["mc", "--family", "sparse_random:d=8,density=0,seed=1",
             "--quantity", "all", "--replicates", "20"],
        )
        assert status == 0
        assert set(report["estimates"]) == {"norm", "rowmax", "entrymax", "gdot", "ymax"}
        assert all(e["mean"] == 0.0 for e in report["estimates"].values())

    def test_rerun_is_byte_identical(self, capsys):
        argv = ["mc", "--family", "wigner:d=12", "--quantity", "all",
                "--replicates", "50", "--seed", "7"]
        _, first = _run_json(capsys, argv)
        _, second = _run_json(capsys, argv)
        assert json.dumps(first["estimates"]) == json.dumps(second["estimates"])

    def test_worker_count_invariance(self, capsys):
        base = ["mc", "--family", "diagonal_decay:d=24", "--quantity", "all",
                "--replicates", "40", "--seed", "3"]
        _, serial = _run_json(capsys, base + ["--workers", "1"])
        _, threaded = _run_json(capsys, base + ["--workers", "4"])
        assert json.dumps(serial["estimates"]) == json.dumps(threaded["estimates"])

    def test_oversized_input_entries_are_input_error(self, capsys, tmp_path):
        # ||B||_F overflows here, which once made ymax read exactly 0.0
        path = tmp_path / "profile.json"
        path.write_text('{"b": [[1e154, 1e154], [1e154, 0]]}')
        line = _assert_input_error(capsys, ["mc", "--input", str(path), "--quantity", "ymax"])
        assert "profile entries" in line

    def test_bad_quantity_is_usage_error(self, capsys):
        assert main(["mc", "--family", "wigner:d=4", "--quantity", "trace"]) == 1

    def test_huge_dimension_is_input_error(self, capsys):
        # 284 PiB is more than a 57-bit virtual address space (128 PiB) holds,
        # so the request fails before anything is allocated, whatever the
        # overcommit policy.
        line = _assert_input_error(
            capsys, ["mc", "--family", "wigner:d=200000000", "--quantity", "norm"]
        )
        assert "out of memory" in line and "PiB" in line

    @pytest.mark.parametrize("spec", ["diagonal_unit:d=100000000",
                                      "kronecker_flip:d=100000000,seed=1"])
    def test_dimension_beyond_physical_memory_is_refused_first(self, capsys, spec):
        # Refused from d alone, before any d x d (or d/2 x d/2) array exists.
        line = _assert_input_error(capsys, ["mc", "--family", spec, "--quantity", "norm"])
        assert line.startswith("error: out of memory: d=100000000 needs about")
        assert "PiB" in line and "of physical memory" in line

    def test_dimension_past_float_digits_is_shown_short(self, capsys):
        for spec, shown in (("wigner:d=1e308", "1e+308"), ("wigner:d=1e200", "1e+200")):
            line = _assert_input_error(capsys, ["bounds", "--family", spec])
            assert line.startswith(f"error: out of memory: d={shown} needs about")
            assert "inf" not in line  # 32 d^2 bytes is past float64 here
            assert len(line) < 200

    @pytest.mark.parametrize("argv", [
        ["mc", "--family", "wigner:d=4", "--quantity", "norm"],
        ["bounds", "--family", "wigner:d=4"],
        ["scan", "--families", "wigner,diagonal_unit", "--dims", "2,4"],
        ["verify", "--check", "slice", "--family", "wigner:d=4"],
    ], ids=["mc", "bounds", "scan", "verify"])
    def test_replicates_beyond_physical_memory_are_refused_first(self, capsys, monkeypatch,
                                                                 argv):
        # 8 bytes per replicate value: 800 TB, refused before any draw.
        monkeypatch.setattr(cli.montecarlo.RandomStream, "generator",
                            lambda self: pytest.fail("drew a replicate"))
        line = _assert_input_error(capsys, [*argv, "--replicates", "99999999999999"])
        assert line.startswith("error: out of memory: --replicates=99999999999999 needs about "
                               "727.6 TiB, more than the")
        assert line.endswith("of physical memory")


class TestVerifyCommand:
    def test_basic_check_passes(self, capsys):
        status, report = _run_json(
            capsys, ["verify", "--check", "basic", "--trials", "500", "--seed", "2"]
        )
        assert status == 0
        assert report["passed"] is True and report["failures"] == []

    def test_comparison_check_passes(self, capsys):
        status, report = _run_json(
            capsys, ["verify", "--check", "comparison", "--trials", "300"]
        )
        assert status == 0 and report["passed"]

    def test_split_check_passes(self, capsys):
        status, report = _run_json(
            capsys, ["verify", "--check", "split", "--trials", "200"]
        )
        assert status == 0 and report["passed"]

    def test_slice_check_reports_ratio_one_for_diagonal(self, capsys):
        status, report = _run_json(
            capsys,
            ["verify", "--check", "slice", "--family", "diagonal_decay:d=256",
             "--replicates", "5"],
        )
        assert status == 0
        outcome = report["reports"]["diagonal_decay:d=256"]
        assert outcome["ratio_slice_min"] == 1.0
        assert outcome["ratio_slice_max"] == 1.0
        assert outcome["decomposition"]["bands"] == [[1, 4], [5, 16], [17, 256]]

    def test_equiv_check_passes(self, capsys):
        status, report = _run_json(
            capsys,
            ["verify", "--check", "equiv", "--family", "wigner:d=16",
             "--replicates", "80"],
        )
        assert status == 0 and report["passed"]

    @pytest.mark.parametrize("check, module, name, fake, keys", [
        ("basic", "geometry", "_basic_gap", lambda b2, v, *args: np.full(len(v), -1.0),
         {"trial", "d", "gamma", "gap"}),
        ("comparison", "geometry", "_comparison_dist_sq",
         lambda b2, bminus, v, *args: np.full(len(v), -1.0),
         {"trial", "d", "gamma", "comparison", "natural"}),
        ("split", "linalg", "split_invariant_violations",
         lambda stack, split: [["faked"]] * len(stack),
         {"trial", "d", "problems"}),
        ("slice", "slicing", "verify_slice_inequality", lambda *args: {"holds": False},
         {"family", "outcome"}),
        ("equiv", None, "equivalence_report",
         lambda p, estimates: {"ratios": {"norm": {"rowmax": 100.0}}},
         {"family", "pair", "ratio"}),
    ], ids=["basic", "comparison", "split", "slice", "equiv"])
    def test_failing_trials_exit_2(self, capsys, monkeypatch, check, module, name, fake, keys):
        monkeypatch.setattr(getattr(cli.checks, module) if module else cli.checks, name, fake)
        status, report = _run_json(
            capsys,
            ["verify", "--check", check, "--trials", "50"],
        )
        assert status == 2
        assert report["passed"] is False
        assert report["failures"]
        assert keys <= set(report["failures"][0])
        if check in ("basic", "comparison", "split"):
            assert len(report["failures"]) == 20  # the cap

    @pytest.mark.parametrize("check", ["basic", "comparison", "split", "slice", "equiv"])
    def test_zero_trials_is_input_error(self, capsys, check):
        _assert_input_error(capsys, ["verify", "--check", check, "--trials", "0"])

    @pytest.mark.parametrize("check", ["basic", "comparison"])
    @pytest.mark.parametrize("flag", [["--tol", "-1"], ["--tol=-1"], ["--tol=-1e-300"],
                                      ["--tol", "1"], ["--tol=1e308"]])
    def test_negative_tolerance_is_usage_error(self, capsys, check, flag):
        # a negative tolerance would fail every trial, a vacuous failure; a
        # tolerance >= 1 could fail none, as every scaled margin is in (-1, 1)
        line = _assert_input_error(capsys, ["verify", "--check", check, "--trials", "5", *flag])
        value = flag[-1].removeprefix("--tol=")
        assert line == f"error: argument --tol: expected a finite number >= 0 and < 1, got {value}"

    def test_zero_tolerance_is_accepted(self, capsys):
        status, report = _run_json(
            capsys, ["verify", "--check", "split", "--trials", "5", "--tol", "0"]
        )
        assert status == 0 and report["tol"] == 0.0

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_is_usage_error(self, capsys, tol):
        _assert_input_error(
            capsys, ["verify", "--check", "basic", "--trials", "5", f"--tol={tol}"]
        )
        # rejected while parsing, so the error names the flag
        assert main(["verify", "--check", "basic", f"--tol={tol}"]) == 1
        assert "--tol" in capsys.readouterr().err

    def test_non_finite_report_value_is_input_error(self, capsys, monkeypatch):
        # strict JSON: a non-finite number exits 1 instead of printing Infinity
        monkeypatch.setattr(cli.checks, "split", lambda *args: ([], {"worst": math.inf}))
        _assert_input_error(capsys, ["verify", "--check", "split", "--trials", "1"])

    def test_unknown_check_is_usage_error(self, capsys):
        assert main(["verify", "--check", "everything"]) == 1

    @pytest.mark.parametrize("check", ["slice", "equiv"])
    def test_repeated_family_is_input_error(self, capsys, check):
        # the reports are keyed by spec, so a repeat would run twice and
        # list its failures twice under one report
        line = _assert_input_error(capsys, ["verify", "--check", check, "--replicates", "2",
                                            "--family", "wigner:d=2", "--family", "wigner:d=2"])
        assert "--family" in line and "'wigner:d=2'" in line


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_back_to_back_calls_share_no_state(self, capsys):
        # an appended --family must not carry over to the next call
        argv = ["verify", "--check", "equiv", "--replicates", "2"]
        _, first = _run_json(capsys, argv + ["--family", "diagonal_unit:d=2"])
        _, second = _run_json(capsys, argv)
        assert list(first["reports"]) == ["diagonal_unit:d=2"]
        assert list(second["reports"]) == cli.DEFAULT_EQUIV_FAMILIES


class TestBallCommand:
    def test_wigner_unit_circle(self, capsys):
        status, out = _run(
            capsys, ["ball", "--family", "wigner:d=2", "--points", "4"]
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta,x1,x2"
        points = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
        np.testing.assert_allclose(np.hypot(points[:, 1], points[:, 2]), 1.0, rtol=1e-12)
        np.testing.assert_allclose(points[:, 0], [0, np.pi / 2, np.pi, 3 * np.pi / 2])

    def test_out_csv_written(self, capsys, tmp_path):
        out = tmp_path / "ball.csv"
        status, _ = _run(
            capsys,
            ["ball", "--family", "bandeira:delta=0.125", "--points", "16",
             "--out", str(out)],
        )
        assert status == 0
        assert out.read_text().startswith("theta,x1,x2\n")

    def test_wrong_dimension_is_input_error(self, capsys):
        assert main(["ball", "--family", "wigner:d=3"]) == 1

    def test_memory_error_is_input_error(self, capsys, monkeypatch):
        # raised in place of the allocation, so nothing is allocated
        def refuse(*args):
            raise MemoryError("Unable to allocate 8.00 PiB for an array")
        monkeypatch.setattr(cli.geometry, "ball_boundary_2d", refuse)
        line = _assert_input_error(capsys, ["ball", "--family", "wigner:d=2"])
        assert line == "error: out of memory: Unable to allocate 8.00 PiB for an array"

    def test_points_beyond_physical_memory_are_refused_first(self, capsys, monkeypatch):
        # 256 bytes per point against a reported 64 KiB: 256 points fit and
        # 257 are refused before the boundary is traced.
        pages = {"SC_PHYS_PAGES": 16, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        argv = ["ball", "--family", "wigner:d=2", "--points"]
        status, out = _run(capsys, [*argv, "256"])
        assert status == 0 and len(out.splitlines()) == 257
        monkeypatch.setattr(cli.geometry, "ball_boundary_2d",
                            lambda *args: pytest.fail("traced the boundary"))
        line = _assert_input_error(capsys, [*argv, "257"])
        assert line == ("error: out of memory: --points=257 needs about 64.2 KiB, "
                        "more than the 64.0 KiB of physical memory")


class TestReportEnvelope:
    @pytest.mark.parametrize("argv", [
        ["bounds", "--family", "wigner:d=4", "--replicates", "10"],
        ["mc", "--family", "wigner:d=4", "--quantity", "norm", "--replicates", "10"],
        ["verify", "--check", "split", "--trials", "2"],
        ["scan", "--families", "wigner", "--dims", "4", "--replicates", "10"],
    ], ids=lambda argv: argv[0])
    def test_schema_and_command_first_wall_time_last(self, capsys, argv):
        status, report = _run_json(capsys, argv)
        keys = list(report)
        assert status == 0
        assert keys[:2] == ["schema", "command"] and keys[-1] == "wall_time_s"
        assert report["schema"] == cli.SCHEMA_VERSION and report["command"] == argv[0]

    @pytest.mark.parametrize("argv", [
        ["ball", "--family", "wigner:d=2", "--points", "4"],
        ["bounds", "--family", "wigner:d=4", "--replicates", "10"],
    ], ids=lambda argv: argv[0])
    def test_stdout_equals_out_file(self, capsys, tmp_path, argv):
        out = tmp_path / "report"
        status, printed = _run(capsys, argv + ["--out", str(out)])
        assert status == 0
        assert printed == out.read_text()
        assert printed.endswith("\n") and not printed.endswith("\n\n")

    def test_ball_prints_plain_csv(self, capsys):
        status, out = _run(capsys, ["ball", "--family", "wigner:d=2", "--points", "4"])
        assert status == 0
        assert out.startswith("theta,x1,x2\n")
        assert "schema" not in out and "wall_time_s" not in out


class TestScanCommand:
    def test_two_families_two_dims(self, capsys):
        status, report = _run_json(
            capsys,
            ["scan", "--families", "wigner,diagonal_unit", "--dims", "16,64",
             "--replicates", "30", "--seed", "5"],
        )
        assert status == 0
        assert len(report["rows"]) == 4
        for row in report["rows"]:
            assert "conjecture_ratio" in row and "norm_over_rowmax" in row
            assert set(row["estimates"]) == {"norm", "rowmax", "entrymax", "gdot", "ymax"}

    def test_conjecture_ratio_is_norm_over_equiv_expression(self, capsys):
        _, report = _run_json(
            capsys,
            ["scan", "--families", "band:w=3,diagonal_decay", "--dims", "16",
             "--replicates", "20", "--seed", "3"],
        )
        for row in report["rows"]:
            assert row["conjecture_ratio"] == (row["estimates"]["norm"]["mean"]
                                               / row["bounds"]["equiv_expression"])

    def test_scan_lower_bound_inequality(self, capsys):
        # rowmax <= norm within Monte Carlo resolution on every scanned row
        _, report = _run_json(
            capsys,
            ["scan", "--families", "wigner,diagonal_unit,band:w=2", "--dims", "16",
             "--replicates", "60", "--seed", "8"],
        )
        for row in report["rows"]:
            norm = row["estimates"]["norm"]
            rowmax = row["estimates"]["rowmax"]
            combined = math.hypot(norm["stderr"], rowmax["stderr"])
            assert rowmax["mean"] <= norm["mean"] + 4.0 * combined

    def test_rerun_reproduces_rows(self, capsys):
        argv = ["scan", "--families", "diagonal_decay", "--dims", "8,16",
                "--replicates", "25", "--seed", "4"]
        _, first = _run_json(capsys, argv)
        _, second = _run_json(capsys, argv)
        assert json.dumps(first["rows"]) == json.dumps(second["rows"])

    def test_key_value_token_continues_previous_family(self, capsys):
        status, report = _run_json(
            capsys,
            ["scan", "--families", "sparse_random:density=0.35,seed=9,wigner",
             "--dims", "8", "--replicates", "10"],
        )
        assert status == 0
        assert [row["family"] for row in report["rows"]] == [
            "sparse_random:density=0.35,seed=9,d=8", "wigner:d=8"
        ]

    def test_repeated_family_key_is_input_error(self, capsys):
        # the scanned dimension would silently override d=4
        line = _assert_input_error(capsys, ["scan", "--families", "wigner:d=4", "--dims", "16"])
        assert "'d'" in line and "wigner:d=4,d=16" in line

    def test_empty_families_is_usage_error(self, capsys):
        assert main(["scan", "--families", "", "--dims", "4"]) == 1

    @pytest.mark.parametrize("dims", ["1e3", "4,x", "0", "-3"])
    def test_bad_dims_token_names_the_flag(self, capsys, dims):
        line = _assert_input_error(capsys, ["scan", "--families", "wigner", "--dims", dims])
        assert "--dims" in line


# Tokens for the argv property test: numbers kept small enough that every
# example runs in milliseconds, and junk that is no flag argparse knows.
_JUNK = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e308", "x", "--bogus", ":",
                         "=", ",", "wigner", "d=3", ""])


def _mostly(valid):
    # One value in eight is junk, so that most examples get past the parser.
    return st.integers(0, 7).flatmap(lambda k: _JUNK if k == 7 else valid)


_COUNTS = _mostly(st.integers(1, 50).map(str))
_NUMBERS = _mostly(st.sampled_from(["0.5", "1", "2.5", "1e-3", "10", "0", "-0.5"])
                   | st.integers(-2, 16).map(str))
_DIMS = _mostly(st.integers(1, 16).map(str))


@st.composite
def family_specs(draw, with_d=True):
    name = draw(_mostly(st.sampled_from(["wigner", "diagonal_unit", "diagonal_decay", "band",
                                         "bandeira", "kronecker_flip", "sparse_random"])))
    keys = {"band": ["d", "w"], "bandeira": ["delta"], "kronecker_flip": ["d", "seed"],
            "sparse_random": ["d", "density", "seed"]}.get(name, ["d"])
    values = {"d": _DIMS, "w": _DIMS, "delta": _NUMBERS, "density": _NUMBERS,
              "seed": _COUNTS}
    # scan adds d itself
    params = ",".join(f"{key}={draw(values[key])}" for key in keys if with_d or key != "d")
    return f"{name}:{params}" if params else name


@dataclass(frozen=True)
class _TempPath:
    """A path argument made in each example's temporary directory: a file
    holding data, a directory when data is None, or, when missing, a name
    in a directory that does not exist."""

    name: str
    data: bytes | None = None
    missing: bool = False

    def make(self, root: str) -> str:
        path = Path(root, "missing" if self.missing else "", self.name)
        if self.data is not None:
            path.write_bytes(self.data)
        elif not self.missing:
            path.mkdir()
        return str(path)


@st.composite
def input_files(draw):
    """An --input profile: a CSV or JSON payload of the profile tests,
    bytes that are not UTF-8, or a directory."""
    kind = draw(st.sampled_from(["csv", "json", "bytes", "directory"]))
    if kind == "directory":
        return _TempPath("profile.csv")
    if kind == "bytes":  # 0xff starts no UTF-8 sequence
        name = draw(st.sampled_from(["profile.csv", "profile.json"]))
        return _TempPath(name, b"\xff" + draw(st.binary(max_size=8)))
    payload = draw(csv_payloads() if kind == "csv" else json_payloads())
    return _TempPath(f"profile.{kind}", payload.encode())


# An --out path in a missing directory, or naming a directory.
_BAD_OUTS = st.sampled_from([_TempPath("out.json", missing=True), _TempPath("out.json")])


@st.composite
def cli_argvs(draw):
    """A real subcommand with its real flags at small values, profiles
    from family specs or --input files, a bad --out path at times, and junk
    tokens spliced in anywhere."""
    command = draw(st.sampled_from(["bounds", "mc", "verify", "ball", "scan"]))
    flags = {"--seed": _COUNTS, "--out": _BAD_OUTS}
    if command in ("bounds", "mc", "ball"):
        if draw(st.integers(0, 2)):
            flags["--family"] = family_specs()
        else:
            flags["--input"] = input_files()
    if command in ("bounds", "mc", "verify", "scan"):
        flags["--replicates"] = _COUNTS
    if command in ("bounds", "mc", "scan"):
        flags["--workers"] = _COUNTS
    if command == "bounds":
        flags.update({"--c": _NUMBERS, "--gamma": _NUMBERS})
    elif command == "mc":
        flags["--quantity"] = _mostly(st.sampled_from(["norm", "rowmax", "entrymax", "gdot",
                                                       "ymax", "all"]))
    elif command == "verify":
        flags.update({"--check": _mostly(st.sampled_from(["basic", "comparison", "slice",
                                                          "split", "equiv"])),
                      "--trials": _COUNTS, "--tol": _NUMBERS, "--family": family_specs()})
    elif command == "ball":
        flags["--points"] = _mostly(st.integers(1, 64).map(str))
    else:
        flags.update({"--families": st.lists(family_specs(with_d=False), min_size=1,
                                             max_size=2).map(",".join),
                      "--dims": st.lists(_DIMS, min_size=1, max_size=2).map(",".join)})
    # The required flags and those that set the amount of work are always
    # given; the default --trials, for one, runs 10000 trials.
    needed = {"--family", "--input", "--families", "--dims", "--quantity", "--check",
              "--replicates", "--trials", "--points"}
    argv = [command]
    for flag, values in flags.items():
        if flag in needed or draw(st.booleans()):
            argv += [flag, draw(values)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv.insert(draw(st.integers(1, len(argv))), draw(_JUNK))
    return argv


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


class TestArgvProperties:
    @settings(max_examples=200, deadline=None)
    @given(cli_argvs())
    # a --tol near the float maximum is refused, never left to overflow the
    # scaled slack of basic
    @example(["verify", "--check", "basic", "--trials", "1", "--tol", "1e308"])
    def test_exit_status_and_output_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as root:
            argv = [token.make(root) if isinstance(token, _TempPath) else token
                    for token in argv]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert status in (0, 1, 2)
        assert "Traceback" not in err
        if status == 1:
            assert out == ""
            assert sum(line.startswith("error:") for line in err.splitlines()) == 1
        elif argv[0] == "ball":
            assert out.endswith("\n") and not out.endswith("\n\n")
            lines = out.splitlines()
            assert lines[0] == "theta,x1,x2" and len(lines) >= 4
            assert all(math.isfinite(float(field))
                       for line in lines[1:] for field in line.split(","))
        else:
            assert isinstance(json.loads(out, parse_constant=_reject_constant), dict)
