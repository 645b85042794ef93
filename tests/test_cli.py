import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import udbound
from udbound import load_certificate, save_certificate, save_ensemble, save_measurement
from udbound.jsonio import matrix_to_json, write_json
from udbound import cli
from udbound.cli import main
from udbound.ensembles import Ensemble, build_example1, build_two_pure, measurement_to_dict
from udbound.operators import DimVector, HermitianOperator, StateVector, basis_state
from helpers import (
    forged_global_as_protocol,
    forged_global_as_separable,
    mixed_shape_protocol,
    one_site_global,
    unhermitian_singlet_povm,
    unhermitian_singlet_terms,
)


@pytest.fixture()
def example1_files(tmp_path):
    code = main(["example1", "--out", str(tmp_path)])
    assert code == 0
    return {
        "ensemble": tmp_path / "example1_ensemble.json",
        "global_measurement": tmp_path / "example1_measurement_global.json",
        "global_certificate": tmp_path / "example1_certificate_global.json",
        "locc_measurement": tmp_path / "example1_measurement_locc.json",
        "sep_certificate": tmp_path / "example1_certificate_sep.json",
        "cones": tmp_path / "example1_cones.json",
    }


class TestExampleCommands:
    def test_example1_writes_files(self, example1_files, capsys):
        for path in example1_files.values():
            assert path.exists()

    def test_example1_summary(self, tmp_path, capsys):
        assert main(["example1", "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr().out
        assert "n=3" in captured and "2x2" in captured

    def test_example1_json_lists_the_six_paths(self, example1_files, tmp_path, capsys):
        capsys.readouterr()
        assert main(["example1", "--format", "json", "--out", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out) == {k: str(p) for k, p in example1_files.items()}

    def test_example2_d3(self, tmp_path):
        assert main(["example2", "--d", "3", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "example2_d3_ensemble.json").exists()

    def test_example2_bad_d(self, tmp_path, capsys):
        assert main(["example2", "--d", "2", "--out", str(tmp_path)]) == 2
        assert "d must be >= 3" in capsys.readouterr().err


def _zero_coordinate_entries(tree):
    """How many stored entries of the coordinate objects in a JSON tree have re and im both zero."""
    if isinstance(tree, dict):
        if tree.keys() == {"side", "rows", "cols", "re", "im"}:
            return sum(re == 0 and im == 0 for re, im in zip(tree["re"], tree["im"]))
        return sum(map(_zero_coordinate_entries, tree.values()))
    return sum(map(_zero_coordinate_entries, tree)) if isinstance(tree, list) else 0


class TestSolveCommand:
    def test_global(self, example1_files, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "solve",
                "global",
                "--ensemble",
                str(example1_files["ensemble"]),
                "--tol",
                "1e-8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["status"] == "optimal"
        assert abs(payload["value"] - 0.75) < 1e-6

    def test_sep_bound(self, example1_files, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "solve",
                "sep-bound",
                "--ensemble",
                str(example1_files["ensemble"]),
                "--cones",
                str(example1_files["cones"]),
                "--tol",
                "1e-8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert abs(payload["value"] - 0.5) < 1e-6

    def test_sep_bound_without_cones(self, example1_files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "sep-bound", "--ensemble", str(example1_files["ensemble"])])
        assert exc.value.code == 2
        assert "--cones" in capsys.readouterr().err

    def test_two_pure_global(self, tmp_path):
        plus = StateVector.normalized([1, 1], (2,))
        ensemble = build_two_pure(basis_state((2,), (0,)), plus, 0.5)
        path = tmp_path / "pair.json"
        save_ensemble(ensemble, path)
        out = tmp_path / "report.json"
        assert main(["solve", "global", "--ensemble", str(path), "--tol", "1e-8", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert abs(payload["value"] - (1 - 1 / math.sqrt(2))) < 1e-5

    def test_example2_d4_global_report_keeps_the_ensemble_zeros(self, tmp_path):
        # the split by component keeps every solved matrix sparse, so each is written as coordinates
        assert main(["example2", "--d", "4", "--out", str(tmp_path)]) == 0
        out = tmp_path / "report.json"
        assert main(["solve", "global", "--ensemble", str(tmp_path / "example2_d4_ensemble.json"), "--out", str(out)]) == 0
        assert out.stat().st_size < 50_000

    @pytest.mark.parametrize("family", ["example1", "example2_d3", "example2_d4"])
    def test_reports_store_no_zero_entry(self, tmp_path, family):
        # the writer stores an entry by its bits, so a -0.0 imaginary part of a zero entry is stored
        name, _, d = family.partition("_d")
        assert main([name, *(["--d", d] if d else []), "--out", str(tmp_path)]) == 0
        stem = str(tmp_path / family)
        for kind, extra in (("global", []), ("sep-bound", ["--cones", f"{stem}_cones.json"])):
            out = tmp_path / f"{kind}.json"
            assert main(["solve", kind, "--ensemble", f"{stem}_ensemble.json", *extra, "--out", str(out)]) == 0
            assert _zero_coordinate_entries(json.loads(out.read_text())) == 0, kind

    def test_never_conclusive_state(self, tmp_path, capsys):
        # |0><0| is never identified: the other state, I/2, has full rank
        dims = DimVector((2,))
        states = (basis_state(dims, (0,)).projector(), HermitianOperator(np.eye(2) / 2, dims))
        path = tmp_path / "ensemble.json"
        save_ensemble(Ensemble(dims, (0.5, 0.5), states), path)
        argv = ["solve", "global", "--ensemble", str(path), "--tol", "1e-8"]
        assert main(argv) == 0
        assert "states never conclusively identified: 1\n" in capsys.readouterr().out
        assert main(argv + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["never_conclusive"] == [0]
        assert payload["value"] == pytest.approx(0.25, abs=1e-6)

    def test_max_iterations_exit_code(self, example1_files):
        code = main(
            [
                "solve",
                "global",
                "--ensemble",
                str(example1_files["ensemble"]),
                "--max-iter",
                "10",
                "--tol",
                "1e-16",
            ]
        )
        assert code == 3

    @pytest.mark.parametrize("status", ["infeasible", "unbounded"])
    def test_failed_status_exit_code(self, example1_files, monkeypatch, status):
        solve_global = cli.solve_global

        def with_status(*args, **kwargs):
            report = solve_global(*args, **kwargs)
            report.status = status
            return report

        monkeypatch.setattr(cli, "solve_global", with_status)
        assert main(["solve", "global", "--ensemble", str(example1_files["ensemble"])]) == 4

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["solve", "global", "--ensemble", str(tmp_path / "nope.json")]) == 2


class TestVerifyCommand:
    def test_prop1_pass(self, example1_files, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "verify",
                "prop1",
                "--ensemble",
                str(example1_files["ensemble"]),
                "--measurement",
                str(example1_files["global_measurement"]),
                "--certificate",
                str(example1_files["global_certificate"]),
                "--tol",
                "1e-8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "pass"
        assert abs(payload["value"] - 0.75) < 1e-12

    def test_prop1_doubled_certificate_fails(self, example1_files, tmp_path):
        cert = load_certificate(example1_files["global_certificate"])
        bad = tmp_path / "doubled.json"
        save_certificate(HermitianOperator(2.0 * cert.matrix, cert.dims), bad)
        out = tmp_path / "report.json"
        code = main(
            [
                "verify",
                "prop1",
                "--ensemble",
                str(example1_files["ensemble"]),
                "--measurement",
                str(example1_files["global_measurement"]),
                "--certificate",
                str(bad),
                "--out",
                str(out),
            ]
        )
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "fail"
        assert "7d" in payload["failing"]

    def test_cor3_example2(self, tmp_path):
        assert main(["example2", "--d", "3", "--out", str(tmp_path)]) == 0
        out = tmp_path / "report.json"
        code = main(
            [
                "verify",
                "cor3",
                "--ensemble",
                str(tmp_path / "example2_d3_ensemble.json"),
                "--measurement",
                str(tmp_path / "example2_d3_measurement_locc.json"),
                "--certificate",
                str(tmp_path / "example2_d3_certificate_sep.json"),
                "--cones",
                str(tmp_path / "example2_d3_cones.json"),
                "--tol",
                "1e-8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert abs(payload["value"] - 0.2) < 1e-12

    def test_nlwe_witnessed(self, example1_files):
        code = main(
            [
                "verify",
                "nlwe",
                "--ensemble",
                str(example1_files["ensemble"]),
                "--cones",
                str(example1_files["cones"]),
            ]
        )
        assert code == 0

    @pytest.mark.parametrize("max_iter", ["1", "2"])
    def test_nlwe_short_of_optimal_exits_3(self, example1_files, capsys, max_iter):
        # p and q read 0 after one iteration, and p_global is above 1 after two: neither is an optimum
        code = main(
            [
                "verify",
                "nlwe",
                "--ensemble",
                str(example1_files["ensemble"]),
                "--cones",
                str(example1_files["cones"]),
                "--max-iter",
                max_iter,
                "--format",
                "json",
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.out)["witnessed"] is False
        assert "WARNING: global solve stopped short of optimal (max_iterations)" in captured.err

    @pytest.mark.parametrize(
        "max_iter, statuses, code",
        [("2", ("max_iterations", "max_iterations"), 3), ("200000", ("optimal", "optimal"), 0)],
    )
    def test_nlwe_report_carries_both_statuses(self, example1_files, capsys, max_iter, statuses, code):
        # after two iterations p_global reads 1.3846, above any probability: the statuses say why
        argv = ["verify", "nlwe", "--ensemble", str(example1_files["ensemble"]), "--cones", str(example1_files["cones"])]
        assert main([*argv, "--max-iter", max_iter, "--format", "json"]) == code
        payload = json.loads(capsys.readouterr().out)
        assert (payload["global_status"], payload["bound_status"]) == statuses
        assert "status" not in payload
        if max_iter == "2":
            assert payload["p_global"] > 1

    @pytest.mark.parametrize(
        "kind, forge", [("thm3", forged_global_as_separable), ("cor3", forged_global_as_protocol)]
    )
    def test_forged_product_structure_is_input_error(self, example1_files, tmp_path, capsys, kind, forge):
        forged = tmp_path / "forged.json"
        save_measurement(forge(*build_example1()), forged)
        code = main(
            [
                "verify",
                kind,
                "--ensemble",
                str(example1_files["ensemble"]),
                "--measurement",
                str(forged),
                "--certificate",
                str(example1_files["global_certificate"]),
                "--cones",
                str(example1_files["cones"]),
            ]
        )
        assert code == 2
        assert "term 0 has factor shapes [(4, 4), (1, 1)], expected sides (2, 2)" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["prop1", "thm3", "cor3"])
    def test_measurement_on_other_dims_exits_2(self, example1_files, tmp_path, capsys, kind):
        flat = tmp_path / "flat.json"
        save_measurement(one_site_global(build_example1()[1], protocol=kind == "cor3"), flat)
        out = tmp_path / "report.json"
        code = main(
            [
                "verify",
                kind,
                "--ensemble",
                str(example1_files["ensemble"]),
                "--measurement",
                str(flat),
                "--certificate",
                str(example1_files["global_certificate"]),
                "--out",
                str(out),
            ]
            + ([] if kind == "prop1" else ["--cones", str(example1_files["cones"])])
        )
        assert code == 2
        assert capsys.readouterr().err == "error: measurement dims (4,) do not match ensemble (2, 2)\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["prop1", "thm3", "cor3"])
    def test_certificate_on_other_dims_exits_2(self, example1_files, tmp_path, capsys, kind):
        payload = json.loads(example1_files["global_certificate"].read_text())
        payload["dims"] = [4]
        flat = tmp_path / "flat.json"
        write_json(flat, payload)
        out = tmp_path / "report.json"
        code = main(
            [
                "verify",
                kind,
                "--ensemble",
                str(example1_files["ensemble"]),
                "--measurement",
                str(example1_files["global_measurement" if kind == "prop1" else "locc_measurement"]),
                "--certificate",
                str(flat),
                "--out",
                str(out),
            ]
            + ([] if kind == "prop1" else ["--cones", str(example1_files["cones"])])
        )
        assert code == 2
        assert capsys.readouterr().err == "error: certificate dims (4,) do not match ensemble (2, 2)\n"
        assert not out.exists()

    def _cor3(self, files, measurement):
        return main(
            [
                "verify",
                "cor3",
                "--ensemble",
                str(files["ensemble"]),
                "--measurement",
                str(measurement),
                "--certificate",
                str(files["sep_certificate"]),
                "--cones",
                str(files["cones"]),
            ]
        )

    def test_mixed_povm_element_shapes_are_input_error(self, example1_files, tmp_path, capsys):
        mixed = tmp_path / "mixed.json"
        save_measurement(mixed_shape_protocol(*build_example1()), mixed)
        assert self._cor3(example1_files, mixed) == 2
        assert "local POVM at site 0 needs one element shape, has [(2, 2), (3, 3)]" in capsys.readouterr().err

    def test_boolean_assignment_element_is_input_error(self, example1_files, tmp_path, capsys):
        payload = measurement_to_dict(build_example1()[1].locc_measurement)
        payload["locc_protocol"]["assignment"][0][1] = True
        bad = tmp_path / "bad.json"
        write_json(bad, payload)
        assert self._cor3(example1_files, bad) == 2
        assert "locc_protocol.assignment[0][1]: expected an integer element index" in capsys.readouterr().err

    def test_non_string_protocol_description_is_input_error(self, example1_files, tmp_path, capsys):
        payload = measurement_to_dict(build_example1()[1].locc_measurement)
        payload["locc_protocol"]["description"] = [1, None]
        bad = tmp_path / "bad.json"
        write_json(bad, payload)
        assert self._cor3(example1_files, bad) == 2
        assert "locc_protocol.description: expected a string" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, message",
        [
            ("elements[1].decomposition", "term 0 factor 0: hermiticity deviation 1.414e+00 exceeds tolerance 1.0e-08"),
            ("locc_protocol", "local POVM element 0 at site 0: hermiticity deviation 5.774e-01 exceeds tolerance 1.0e-08"),
        ],
        ids=["decomposition", "locc_protocol"],
    )
    @pytest.mark.parametrize("kind", ["thm3", "cor3"])
    def test_non_hermitian_factors_are_input_error(self, example1_files, capsys, kind, field, message):
        # factors with PSD Hermitian parts that rebuild the entangled singlet
        path = example1_files["locc_measurement"]
        payload = json.loads(path.read_text())
        if field == "locc_protocol":
            povm = [matrix_to_json(e) for e in unhermitian_singlet_povm()]
            payload["locc_protocol"]["site_povms"] = [povm, povm]
        else:
            terms = [[matrix_to_json(a), matrix_to_json(b)] for a, b in unhermitian_singlet_terms()]
            payload["elements"][1]["decomposition"] = {"terms": terms}
        write_json(path, payload)
        argv = ["verify", kind, "--ensemble", str(example1_files["ensemble"]), "--measurement", str(path)]
        argv += ["--certificate", str(example1_files["sep_certificate"]), "--cones", str(example1_files["cones"])]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}.{field}: {message}\n"

    def test_malformed_certificate(self, example1_files, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dims": [2, 2], "matrix": "nope"}')
        code = main(
            [
                "verify",
                "prop1",
                "--ensemble",
                str(example1_files["ensemble"]),
                "--measurement",
                str(example1_files["global_measurement"]),
                "--certificate",
                str(bad),
            ]
        )
        assert code == 2


class TestOutOfRangeBounds:
    """An out-of-range ``--tol`` or ``--max-iter`` is an input error that names the value."""

    def test_solve_global_with_an_infinite_tol(self, example1_files, capsys):
        # it reported optimal with value 0 (p_G is 0.75) and exited 0
        assert main(["solve", "global", "--ensemble", str(example1_files["ensemble"]), "--tol", "inf"]) == 2
        assert capsys.readouterr().err == "error: tol must be finite and > 0, got inf\n"

    def test_prop1_with_an_infinite_tol(self, example1_files, capsys):
        # it passed the LOCC measurement (value 0.5, 7c = 0.3) with the separable certificate and exited 0
        argv = ["verify", "prop1", "--ensemble", str(example1_files["ensemble"])]
        argv += ["--measurement", str(example1_files["locc_measurement"])]
        argv += ["--certificate", str(example1_files["sep_certificate"]), "--tol", "inf"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: tol must be finite and > 0, got inf\n"

    def test_solve_global_with_no_iterations(self, example1_files, tmp_path, capsys):
        # it wrote Infinity residuals, which is not valid JSON
        out = tmp_path / "report.json"
        argv = ["solve", "global", "--ensemble", str(example1_files["ensemble"]), "--max-iter", "0", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: max_iter must be >= 1, got 0\n"
        assert not out.exists()


class TestTableCommand:
    def test_single_row(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["table", "--d-min", "3", "--d-max", "3", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "d,dim,p_G,q_bound,nlwe_witnessed"
        fields = lines[1].split(",")
        assert fields[0] == "3" and fields[1] == "9"
        assert abs(float(fields[2]) - 0.4) < 1e-5
        assert abs(float(fields[3]) - 0.2) < 1e-5
        assert fields[4] == "true"

    def test_short_of_optimal_exits_3_and_writes_the_row(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["table", "--d-min", "3", "--d-max", "3", "--max-iter", "1", "--out", str(out)]) == 3
        assert out.read_text().splitlines()[1] == "3,9,0,0,false"
        assert "WARNING d=3: global solve stopped short of optimal (max_iterations)" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["p_global", "q_bound"])
    def test_relative_deviation_warns(self, tmp_path, capsys, monkeypatch, which):
        # 2e-5 relative is 8e-6 (p = 0.4) or 4e-6 (q = 0.2) absolute: under the old 1e-5 absolute gate
        solve = cli.nlwe_witness

        def nudged(*args, **kwargs):
            result = solve(*args, **kwargs)
            return dataclasses.replace(result, **{which: getattr(result, which) * (1 + 2e-5)})

        monkeypatch.setattr(cli, "nlwe_witness", nudged)
        out = tmp_path / "table.csv"
        assert main(["table", "--d-min", "3", "--d-max", "3", "--out", str(out)]) == 0
        assert "WARNING d=3: solver values" in capsys.readouterr().err
        monkeypatch.setattr(cli, "nlwe_witness", solve)
        assert main(["table", "--d-min", "3", "--d-max", "3", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""

    def test_stdout_holds_the_bytes_written_to_out(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["table", "--d-min", "3", "--d-max", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["table", "--d-min", "3", "--d-max", "3"]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_empty_range_header_only(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["table", "--d-min", "4", "--d-max", "3", "--out", str(out)]) == 0
        assert out.read_text() == "d,dim,p_G,q_bound,nlwe_witnessed\n"

    def test_cap_exceeded(self, capsys, monkeypatch):
        monkeypatch.setenv("UDBOUND_DIM_CAP", "8")
        assert main(["table", "--d-min", "3", "--d-max", "3"]) == 2
        assert "exceeds cap" in capsys.readouterr().err


# Flags a command or kind does not read, and the csv format, which printed text: each is a usage error.
# Each base argv holds every flag its kind requires, so the removed flag is what argparse rejects.
_CHECKED = ["--ensemble", "e.json", "--measurement", "m.json", "--certificate", "c.json"]
_UNSEEDED = [["--seed", "1"], ["--max-iter", "5"]]
_REMOVED_FLAGS = {
    "example1": (["example1"], [["--tol", "1e-8"], ["--seed", "1"], ["--max-iter", "5"], ["--d", "3"], ["--format", "csv"]]),
    "example2": (["example2", "--d", "3"], [["--tol", "1e-8"], ["--seed", "1"], ["--max-iter", "5"], ["--format", "csv"]]),
    "solve": (["solve", "global", "--ensemble", "e.json"], [["--format", "csv"], ["--cones", "k.json"]]),
    "verify": (["verify", "prop1"] + _CHECKED, [["--format", "csv"], ["--cones", "k.json"]] + _UNSEEDED),
    "verify thm3": (["verify", "thm3", "--cones", "k.json"] + _CHECKED, _UNSEEDED),
    "verify cor3": (["verify", "cor3", "--cones", "k.json"] + _CHECKED, _UNSEEDED),
    "verify nlwe": (
        ["verify", "nlwe", "--ensemble", "e.json", "--cones", "k.json"],
        [["--measurement", "m.json"], ["--certificate", "c.json"]],
    ),
    "table": (["table", "--d-min", "3", "--d-max", "3"], [["--format", "csv"], ["--format", "text"]]),
}


@pytest.mark.parametrize("command", sorted(_REMOVED_FLAGS))
def test_removed_flags_are_usage_errors(command, tmp_path, capsys):
    base, removed = _REMOVED_FLAGS[command]
    for flag in removed:
        argv = base + (["--out", str(tmp_path)] if command.startswith("example") else []) + flag
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: udbound ")
        assert "unrecognized arguments" in err or "invalid choice: 'csv'" in err, (flag, err)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "kind, flag",
    [("solve sep-bound", "--cones")]
    + [(f"verify {k}", f) for k in ("prop1", "thm3", "cor3") for f in ("--measurement", "--certificate")]
    + [(f"verify {k}", "--cones") for k in ("thm3", "cor3", "nlwe")],
)
def test_missing_required_flag_is_usage_error(kind, flag, capsys):
    required = {
        "solve sep-bound": ["--ensemble", "--cones"],
        "verify prop1": ["--ensemble", "--measurement", "--certificate"],
        "verify thm3": ["--ensemble", "--measurement", "--certificate", "--cones"],
        "verify cor3": ["--ensemble", "--measurement", "--certificate", "--cones"],
        "verify nlwe": ["--ensemble", "--cones"],
    }[kind]
    argv = kind.split() + [arg for f in required if f != flag for arg in (f, "missing.json")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: the following arguments are required: {flag}\n")


class TestDeterminism:
    def test_report_files_byte_identical(self, example1_files, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            code = main(
                [
                    "solve",
                    "global",
                    "--ensemble",
                    str(example1_files["ensemble"]),
                    "--seed",
                    "7",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


def _edited_cones(files, tmp_path, edit):
    payload = json.loads(files["cones"].read_text())
    edit(payload["cones"])
    path = tmp_path / "edited_cones.json"
    path.write_text(json.dumps(payload))
    return path


def _swap_first_two(cones):
    cones[0], cones[1] = cones[1], cones[0]


def _append_zero_generator(cones):
    cones[0].append({"matrix": [[[0.0, 0.0]] * 4] * 4})


class TestConeFilesAreChecked:
    def _verify(self, files, kind, cones, out):
        argv = ["verify", kind, "--ensemble", str(files["ensemble"]), "--cones", str(cones)]
        argv += ["--out", str(out)]
        if kind != "nlwe":
            argv += ["--measurement", str(files["locc_measurement"])]
            argv += ["--certificate", str(files["sep_certificate"])]
        return main(argv)

    @pytest.mark.parametrize("kind", ["thm3", "cor3", "nlwe"])
    def test_swapped_cones_exit_2(self, example1_files, tmp_path, capsys, kind):
        cones = _edited_cones(example1_files, tmp_path, _swap_first_two)
        out = tmp_path / "report.json"
        assert self._verify(example1_files, kind, cones, out) == 2
        captured = capsys.readouterr()
        message = "cone 0 generator 0 is not orthogonal to state 1 (|Tr(g rho)| = 5.625e-01)"
        assert captured.err == f"error: {message}\n"
        assert captured.out == "" and not out.exists()

    def test_sep_bound_solves_swapped_cones_as_given(self, example1_files, tmp_path, capsys):
        cones = _edited_cones(example1_files, tmp_path, _swap_first_two)
        argv = ["solve", "sep-bound", "--ensemble", str(example1_files["ensemble"]), "--cones", str(cones)]
        assert main(argv + ["--tol", "1e-8", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(0.3, abs=1e-6)

    @pytest.mark.parametrize("kind", ["sep-bound", "thm3"])
    def test_zero_generator_exits_2(self, example1_files, tmp_path, capsys, kind):
        cones = _edited_cones(example1_files, tmp_path, _append_zero_generator)
        out = tmp_path / "report.json"
        if kind == "thm3":
            code = self._verify(example1_files, kind, cones, out)
        else:
            argv = ["solve", kind, "--ensemble", str(example1_files["ensemble"]), "--cones", str(cones)]
            code = main(argv + ["--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {cones}.cones[0]: generator 2 is zero\n"
        assert not out.exists()


def test_cli_imports_without_scipy():
    # every command starts a fresh interpreter, so what the package imports is start-up time
    probe = "import sys, udbound, udbound.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(udbound.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
