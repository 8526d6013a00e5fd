import json
import math

import numpy as np
import pytest

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

    @pytest.mark.parametrize("spec", ["kronecker_flip:d=4,seed=-1", "sparse_random:d=4,seed=-1"])
    def test_negative_family_seed_is_input_error(self, capsys, spec):
        assert "seed" in _assert_input_error(capsys, ["bounds", "--family", spec])

    @pytest.mark.parametrize("flag", ["--c", "--gamma"])
    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
    def test_nonpositive_or_non_finite_constant_is_usage_error(self, capsys, flag, value):
        line = _assert_input_error(
            capsys, ["bounds", "--family", "wigner:d=4", f"{flag}={value}"]
        )
        assert f"argument {flag}:" in line and value in line

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

    def test_failing_trials_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.geometry, "basic_gap", lambda *args: -1.0)
        status, report = _run_json(
            capsys,
            ["verify", "--check", "basic", "--trials", "50"],
        )
        assert status == 2
        assert report["passed"] is False
        assert report["failures"]
        assert {"trial", "d", "gamma", "gap"} <= set(report["failures"][0])

    @pytest.mark.parametrize("check", ["basic", "comparison", "split"])
    def test_zero_trials_is_input_error(self, capsys, check):
        _assert_input_error(capsys, ["verify", "--check", check, "--trials", "0"])

    @pytest.mark.parametrize("flag", [["--tol", "-1"], ["--tol=-1"], ["--tol=-1e-300"]])
    def test_negative_tolerance_is_usage_error(self, capsys, flag):
        # a negative tolerance would fail every trial, a vacuous failure
        line = _assert_input_error(capsys, ["verify", "--check", "basic", "--trials", "5", *flag])
        value = flag[-1].removeprefix("--tol=")
        assert line == f"error: argument --tol: expected a finite number >= 0, got {value}"

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
        monkeypatch.setattr(cli, "_check_split", lambda args: ([], {"worst": math.inf}))
        _assert_input_error(capsys, ["verify", "--check", "split", "--trials", "1"])

    def test_unknown_check_is_usage_error(self, capsys):
        assert main(["verify", "--check", "everything"]) == 1


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
