import codecs
import hashlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import sleeping_solver

import lgnsat
from lgnsat import cli
from lgnsat.cli import build_parser, main
from lgnsat.driver import DEFAULT_TOLERANCE
from lgnsat.netlist import serialize_netlist
from lgnsat.schema import serialize_schema
from lgnsat.solver import BUILTIN_SOLVER, find_solver


@pytest.fixture
def files(tmp_path, flip_net, flip_schema, const_net, const_sure_net):
    paths = {
        "flip": tmp_path / "flip.lgn",
        "const": tmp_path / "const.lgn",
        "const_sure": tmp_path / "const_sure.lgn",
        "schema": tmp_path / "schema.fs",
        "dir": tmp_path,
    }
    paths["flip"].write_bytes(serialize_netlist(flip_net))
    paths["const"].write_bytes(serialize_netlist(const_net))
    paths["const_sure"].write_bytes(serialize_netlist(const_sure_net))
    paths["schema"].write_bytes(serialize_schema(flip_schema))
    return paths


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestValidate:
    def test_ok(self, capsys, files):
        code, report = run_cli(capsys, "validate", files["flip"], "-s", files["schema"])
        assert code == 0
        assert report["result"]["ok"] is True
        assert report["inputs"]["netlist"]["sha256"]

    def test_violations_exit_2(self, capsys, tmp_path, files):
        bad = tmp_path / "bad.lgn"
        bad.write_text(
            "lgn 1\ninput_width 2\nnum_classes 2\nblock_size 3\n"
            "layer (8, i0, i1) (14, i0, i1)\n"
        )
        code, report = run_cli(capsys, "validate", bad)
        assert code == 2
        assert any("output count" in v for v in report["result"]["violations"])

    def test_bad_op_code_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.lgn"
        bad.write_text(
            "lgn 1\ninput_width 2\nnum_classes 2\nblock_size 1\n"
            "layer (16, i0, i1) (14, i0, i1)\n"
        )
        code, report = run_cli(capsys, "validate", bad)
        assert code == 2
        assert report["error"]["type"] == "NetlistFormatError"

    def test_input_bit_out_of_range_is_a_violation(self, capsys, tmp_path):
        bad = tmp_path / "bad.lgn"
        bad.write_text(
            "lgn 1\ninput_width 2\nnum_classes 2\nblock_size 1\n"
            "layer (8, i5, i1) (14, i0, i1)\n"
        )
        code, report = run_cli(capsys, "validate", bad)
        assert code == 2
        assert "error" not in report
        assert report["result"]["violations"] == [
            "layer 0 gate 0 input a: input bit 5 outside 0..1"
        ]

    def test_missing_file_exit_3(self, capsys, files):
        code, _ = run_cli(capsys, "validate", files["dir"] / "nope.lgn")
        assert code == 3


class TestVerify:
    def test_constant_net_holds_exit_0(self, capsys, files):
        code, report = run_cli(
            capsys, "verify", files["const"], "-s", files["schema"],
            "--mode", "robust", "--kappa", "1/2",
        )
        assert code == 0
        assert report["result"]["status"] == "holds"
        assert report["result"]["witness"] is None

    def test_flip_net_counterexample_exit_1(self, capsys, files):
        code, report = run_cli(
            capsys, "verify", files["flip"], "-s", files["schema"],
            "--mode", "fair", "--kappa", "0.5",
        )
        assert code == 1
        witness = report["result"]["witness"]
        assert witness["x"]["class"] != witness["x_prime"]["class"]
        assert witness["x"]["confidence"]["exact"] == "1"
        assert report["result"]["kappa"]["exact"] == "1/2"

    def test_decimal_kappa_is_exact(self, capsys, files):
        code, report = run_cli(
            capsys, "verify", files["flip"], "-s", files["schema"],
            "--mode", "fair", "--kappa", "0.99",
        )
        assert report["result"]["kappa"]["exact"] == "99/100"

    def test_unparsable_kappa_exit_3(self, capsys, files):
        code, _ = run_cli(
            capsys, "verify", files["flip"], "-s", files["schema"],
            "--mode", "fair", "--kappa", "about-half",
        )
        assert code == 3

    @pytest.mark.parametrize("timeout", ["0", "-1"])
    def test_nonpositive_timeout_exit_3(self, capsys, files, timeout):
        code, report = run_cli(
            capsys, "verify", files["flip"], "-s", files["schema"],
            "--mode", "fair", "--kappa", "1/2", "--timeout", timeout,
        )
        assert code == 3
        assert report is None

    def test_forced_timeout_exit_4(self, capsys, tmp_path, files):
        code, _ = run_cli(
            capsys, "gen-random", "-d", "12", "--layers", "48,48,16",
            "-C", "2", "-L", "8", "--seed", "1", "-o", tmp_path / "big.lgn",
        )
        assert code == 0
        schema = tmp_path / "big.fs"
        schema.write_text(
            "num a bits=5 lo=0 hi=5\nnum b bits=5 lo=0 hi=5\n"
            "cat s arity=2 sensitive=1\n"
        )
        code, report = run_cli(
            capsys, "verify", tmp_path / "big.lgn", "-s", schema,
            "--mode", "fair", "--kappa", "1/2", "--timeout", "0.001",
        )
        assert code == 4
        assert report["result"]["status"] == "unknown"


class TestSearchKappa:
    def test_constant_net(self, capsys, files):
        code, report = run_cli(
            capsys, "search-kappa", files["const"], "-s", files["schema"],
            "--mode", "fair",
        )
        assert code == 0
        result = report["result"]
        assert result["kappa_star"]["exact"] == "1/2"
        assert result["converged"] is True
        assert result["kappa_lower"]["exact"] == "1/2"
        # constant scores (1,1) sit exactly at 1/2: strictly above is absent
        assert result["attainable"] is False
        # Holds at the bracket's floor 1/C ends the search; 1 is never probed
        assert len(result["probes"]) == 1

    def test_flip_net(self, capsys, files):
        code, report = run_cli(
            capsys, "search-kappa", files["flip"], "-s", files["schema"],
            "--mode", "fair", "--tol", "0.05",
        )
        assert code == 0
        result = report["result"]
        assert result["converged"] is True
        assert 1 - Fraction(result["kappa_star"]["exact"]) <= Fraction(1, 20)
        # the witness at 1/2 has confidence 1, which closes the bracket at 1;
        # no input exceeds confidence 1, hence not attainable
        assert Fraction(result["kappa_star"]["exact"]) == 1
        assert Fraction(result["kappa_lower"]["exact"]) == 1
        assert [p["kappa"]["exact"] for p in result["probes"]] == ["1/2"]
        assert result["attainable"] is False
        assert result["total_time_s"] == pytest.approx(
            sum(p["wall_time_s"] for p in result["probes"]), abs=1e-3
        )

    def test_confident_constant_net_attainable(self, capsys, files):
        code, report = run_cli(
            capsys, "search-kappa", files["const_sure"], "-s", files["schema"],
            "--mode", "fair",
        )
        assert code == 0
        result = report["result"]
        assert result["kappa_star"]["exact"] == "1/2"
        assert result["attainable"] is True

    def test_tolerance_default_is_the_drivers(self, capsys, files):
        _, report = run_cli(
            capsys, "search-kappa", files["const"], "-s", files["schema"],
            "--mode", "fair",
        )
        assert report["result"]["tolerance"]["exact"] == str(DEFAULT_TOLERANCE)

    def test_negative_tolerance_exit_3(self, capsys, files):
        code, _ = run_cli(
            capsys, "search-kappa", files["flip"], "-s", files["schema"],
            "--mode", "fair", "--tol=-1/20",
        )
        assert code == 3


class TestSweepAndAttainable:
    def test_sweep_rows(self, capsys, files):
        code, report = run_cli(
            capsys, "sweep", files["flip"], "-s", files["schema"],
            "--mode", "fair", "--kappas", "0.5,0.99",
        )
        assert code == 0
        rows = report["result"]["rows"]
        assert [r["status"] for r in rows] == ["counterexample", "counterexample"]

    def test_sweep_rows_and_search_probes_share_keys(self, capsys, files):
        _, sweep_report = run_cli(
            capsys, "sweep", files["flip"], "-s", files["schema"],
            "--mode", "fair", "--kappas", "0.5,0.99",
        )
        _, search_report = run_cli(
            capsys, "search-kappa", files["flip"], "-s", files["schema"],
            "--mode", "fair",
        )
        keys = {"kappa", "status", "wall_time_s", "num_vars", "num_clauses"}
        rows = sweep_report["result"]["rows"] + search_report["result"]["probes"]
        assert all(set(r) == keys for r in rows)

    def test_attainable_exit_codes(self, capsys, files):
        code, report = run_cli(
            capsys, "attainable", files["const"], "-s", files["schema"],
            "--kappa", "0.49",
        )
        assert code == 0 and report["result"]["attainable"] is True
        code, report = run_cli(
            capsys, "attainable", files["const"], "-s", files["schema"],
            "--kappa", "1/2",
        )
        assert code == 1 and report["result"]["attainable"] is False


class TestAttainableTimeout:
    def test_attainable_exit_4_with_null(self, capsys, files, tmp_path):
        code, report = run_cli(
            capsys, "attainable", files["const_sure"], "-s", files["schema"],
            "--kappa", "1/2", "--solver", sleeping_solver(tmp_path), "--timeout", "0.3",
        )
        assert code == 4
        assert report["result"]["attainable"] is None

    def test_search_reports_null_attainable(self, capsys, files, tmp_path):
        # The one search probe is answered; the attainability probe sleeps.
        code, report = run_cli(
            capsys, "search-kappa", files["const"], "-s", files["schema"],
            "--mode", "fair", "--solver", sleeping_solver(tmp_path, answered=1),
            "--timeout", "3",
        )
        result = report["result"]
        assert [p["status"] for p in result["probes"]] == ["holds"]
        assert code == 0 and result["converged"] is True
        assert result["attainable"] is None


class TestEncode:
    def test_deterministic_and_solver_equivalent(self, capsys, files, tmp_path):
        out1, out2 = tmp_path / "q1.cnf", tmp_path / "q2.cnf"
        code, report = run_cli(
            capsys, "encode", files["flip"], "-s", files["schema"],
            "--mode", "fair", "--kappa", "1/2", "-o", out1,
            "--varmap", tmp_path / "q1.map",
        )
        assert code == 0
        run_cli(
            capsys, "encode", files["flip"], "-s", files["schema"],
            "--mode", "fair", "--kappa", "1/2", "-o", out2,
        )
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "q1.map").exists()
        # hand-running the solver on the emitted file matches verify's verdict
        exe = find_solver()
        command = [sys.executable, exe] if exe == BUILTIN_SOLVER else [exe]
        proc = subprocess.run([*command, str(out1)], capture_output=True, text=True)
        assert proc.returncode == 10  # SAT, same as the counterexample verdict

    def test_encode_header_counts(self, capsys, files, tmp_path):
        out = tmp_path / "q.cnf"
        _, report = run_cli(
            capsys, "encode", files["flip"], "-s", files["schema"],
            "--mode", "robust", "--kappa", "3/4", "-o", out,
        )
        header = out.read_text().splitlines()[0].split()
        assert header[:2] == ["p", "cnf"]
        assert int(header[2]) == report["result"]["dimacs"]["num_vars"]
        assert int(header[3]) == report["result"]["dimacs"]["num_clauses"]


class TestGenRandomEvalAccuracy:
    def test_gen_random_deterministic(self, capsys, tmp_path):
        args = [
            "gen-random", "-d", "6", "--layers", "5,4", "-C", "2", "-L", "2",
            "--seed", "42",
        ]
        _, r1 = run_cli(capsys, *args, "-o", tmp_path / "a.lgn")
        _, r2 = run_cli(capsys, *args, "-o", tmp_path / "b.lgn")
        assert r1["result"]["sha256"] == r2["result"]["sha256"]
        assert (tmp_path / "a.lgn").read_bytes() == (tmp_path / "b.lgn").read_bytes()

    def test_eval_row_and_bits_agree(self, capsys, files):
        code, by_row = run_cli(
            capsys, "eval", files["flip"], "-s", files["schema"], "--row", "1",
        )
        assert code == 0
        code, by_bits = run_cli(
            capsys, "eval", files["flip"], "-s", files["schema"], "--bits", "01",
        )
        assert by_row["result"] == by_bits["result"]
        assert by_row["result"]["class"] == 1
        assert by_row["result"]["confidence"]["exact"] == "1"

    def test_eval_needs_exactly_one_input_form(self, capsys, files):
        code, _ = run_cli(capsys, "eval", files["flip"], "-s", files["schema"])
        assert code == 3

    def test_eval_matches_verify_witness(self, capsys, files):
        _, report = run_cli(
            capsys, "verify", files["flip"], "-s", files["schema"],
            "--mode", "fair", "--kappa", "1/2",
        )
        witness = report["result"]["witness"]["x"]
        _, evaled = run_cli(
            capsys, "eval", files["flip"], "-s", files["schema"],
            "--bits", witness["bits"],
        )
        assert evaled["result"]["confidence"] == witness["confidence"]
        assert evaled["result"]["class"] == witness["class"]

    def test_accuracy(self, capsys, files, tmp_path):
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("group,label\n0,0\n0,0\n0,1\n1,1\n1,0\n")
        code, report = run_cli(
            capsys, "accuracy", files["flip"], "-s", files["schema"],
            "--csv", csv_path,
        )
        assert code == 0
        # flip net predicts the group bit itself: rows 1,2,4 are hits
        assert report["result"]["accuracy"]["exact"] == "3/5"
        assert report["result"]["rows"] == 5

    def test_accuracy_reports_sha256_of_each_input(self, capsys, files, tmp_path):
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("group,label\n0,0\n1,1\n")
        paths = {"netlist": files["flip"], "schema": files["schema"], "csv": csv_path}
        code, report = run_cli(
            capsys, "accuracy", paths["netlist"], "-s", paths["schema"],
            "--csv", paths["csv"],
        )
        assert code == 0
        assert report["inputs"] == {
            role: {"path": str(p), "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
            for role, p in paths.items()
        }

    def test_accuracy_accepts_a_csv_byte_order_mark(self, capsys, files, tmp_path):
        csv_path = tmp_path / "rows.csv"
        csv_path.write_bytes(codecs.BOM_UTF8 + b"group,label\n0,0\n0,0\n0,1\n1,1\n1,0\n")
        code, report = run_cli(
            capsys, "accuracy", files["flip"], "-s", files["schema"], "--csv", csv_path,
        )
        assert code == 0
        assert report["result"]["accuracy"]["exact"] == "3/5"
        # The hash is of the bytes read, mark included.
        assert report["inputs"]["csv"]["sha256"] == hashlib.sha256(
            csv_path.read_bytes()
        ).hexdigest()


class TestEntryPoint:
    @pytest.mark.skipif(shutil.which("lgnsat") is None, reason="not installed")
    def test_console_script(self, tmp_path, flip_net, flip_schema):
        net = tmp_path / "n.lgn"
        schema = tmp_path / "s.fs"
        net.write_bytes(serialize_netlist(flip_net))
        schema.write_bytes(serialize_schema(flip_schema))
        proc = subprocess.run(
            ["lgnsat", "validate", str(net), "-s", str(schema)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["ok"] is True

    def test_python_m_lgnsat_matches_in_process(self, capsys, files, tmp_path):
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("group,label\n0,0\n0,0\n0,1\n1,1\n1,0\n")
        argv = ["accuracy", files["flip"], "-s", files["schema"], "--csv", csv_path]
        code, report = run_cli(capsys, *argv)
        src = str(Path(lgnsat.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "lgnsat", *map(str, argv)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert (proc.returncode, code) == (0, 0)
        assert json.loads(proc.stdout) == report
        assert proc.stderr == "accuracy: 0.6000 over 5 rows\n"


class TestCachedParser:
    """``build_parser`` runs once per process; the calls that share its
    parser answer as calls with a parser of their own do."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_repeated_calls_match_a_fresh_parser(self, capsys, monkeypatch, files, tmp_path):
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("group,label\n0,0\n0,0\n0,1\n1,1\n1,0\n")
        bad_net = tmp_path / "bad.lgn"
        bad_net.write_text("lgn 2\n")
        net, schema, out = files["flip"], files["schema"], tmp_path / "q.cnf"
        calls = [
            ["accuracy", net, "-s", schema, "--csv", csv_path],
            ["encode", net, "-s", schema, "--mode", "fair", "--kappa", "1/2", "-o", out],
            ["validate", net, "-s", schema],
            ["accuracy", net, "-s", schema],  # no --csv: a usage error
            ["validate", bad_net],
            ["encode", net, "-s", schema, "--mode", "robust", "--eps", "1",
             "--kappa", "3/4", "-o", out],
            ["accuracy", net, "-s", schema, "--csv", csv_path, "--label-col", "group"],
            ["validate", files["const"]],
        ]

        def run_all():
            results = []
            for argv in calls:
                try:
                    code = main([str(a) for a in argv])
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                results.append((code, captured.out, captured.err))
            return results

        cached = run_all()
        assert run_all() == cached
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        assert run_all() == cached
        assert [code for code, _, _ in cached] == [0, 0, 0, 2, 2, 0, 0, 0]
        assert "the following arguments are required: --csv" in cached[3][2]
