import codecs
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import running, sleeping_solver

import lgnsat
from lgnsat import cli
from lgnsat.cli import build_parser, main
from lgnsat.netlist import serialize_netlist
from lgnsat.schema import serialize_schema
from lgnsat.solver import BUILTIN_SOLVER, MAX_TIMEOUT, find_solver


@pytest.fixture
def files(tmp_path, flip_net, flip_schema, const_net):
    paths = {
        "flip": tmp_path / "flip.lgn",
        "const": tmp_path / "const.lgn",
        "schema": tmp_path / "schema.fs",
    }
    paths["flip"].write_bytes(serialize_netlist(flip_net))
    paths["const"].write_bytes(serialize_netlist(const_net))
    paths["schema"].write_bytes(serialize_schema(flip_schema))
    return paths


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestValidate:
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


class TestVerify:
    def test_decimal_kappa_is_exact(self, capsys, files):
        code, report = run_cli(
            capsys, "verify", files["flip"], "-s", files["schema"],
            "--mode", "fair", "--kappa", "0.99",
        )
        assert report["result"]["kappa"]["exact"] == "99/100"

    @pytest.mark.parametrize("timeout", ["0", "-1", "inf", "1e300", str(MAX_TIMEOUT + 1)])
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
    def test_negative_tolerance_exit_3(self, capsys, files):
        code, _ = run_cli(
            capsys, "search-kappa", files["flip"], "-s", files["schema"],
            "--mode", "fair", "--tol=-1/20",
        )
        assert code == 3


class TestAttainableTimeout:
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
        assert result["total_time_s"] == pytest.approx(
            sum(p["wall_time_s"] for p in result["probes"]), abs=1e-3
        )


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_sigterm_stops_solver_and_removes_dimacs(files, tmp_path):
    pid_file = tmp_path / "pid"
    src = str(Path(lgnsat.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "lgnsat", "verify", str(files["flip"]),
            "-s", str(files["schema"]), "--mode", "fair", "--kappa", "1/2",
            "--solver", str(sleeping_solver(tmp_path)), "--timeout", "60",
        ],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env={**os.environ, "PYTHONPATH": src, "TMPDIR": str(tmp_path)},
    )
    solver_pid = None
    try:
        deadline = time.monotonic() + 30
        while not solver_pid and time.monotonic() < deadline and proc.poll() is None:
            time.sleep(0.05)
            text = pid_file.read_text() if pid_file.exists() else ""
            solver_pid = int(text) if text.strip() else None
        assert solver_pid, "the solver did not start"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == -signal.SIGTERM
        assert not running(solver_pid)
        assert not list(tmp_path.glob("lgnsat-*.cnf"))
    finally:
        proc.kill()
        proc.wait()
        if solver_pid and running(solver_pid):
            os.kill(solver_pid, signal.SIGKILL)


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


class TestGenRandomEvalAccuracy:
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

    @pytest.mark.parametrize("bits, message", [
        ("012", "--bits must be a 0/1 string, got '012'"),
        ("0", "expected 2 bits, got 1"),
    ], ids=["not-binary", "too-short"])
    def test_eval_rejects_bad_bits_exit_2(self, capsys, files, bits, message):
        code, report = run_cli(capsys, "eval", files["flip"], "-s", files["schema"], "--bits", bits)
        assert code == 2
        assert report["error"] == {"type": "DataError", "message": message}

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

    def test_usage_error_exit_3(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "n.lgn"])
        assert exc.value.code == 3
        assert "the following arguments are required" in capsys.readouterr().err
        for argv in (["verify", "--help"], ["--version"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0


class TestIntegerOptions:
    """Integer options take the digits every integer field of the input
    files takes: no ``_`` and no ``+``. Fraction options and ``--timeout``
    take no ``_``."""

    @pytest.mark.parametrize("option, value", [
        ("--eps", "1_0"), ("--seed", "1_0"), ("--input-width", "+4"),
        ("--classes", "1_0"), ("--block-size", "1_0"), ("--layers", "4,1_0"),
        ("--kappa", "1_0/2_0"), ("--timeout", "1_0"),
    ])
    def test_rejected_exit_3(self, capsys, files, tmp_path, option, value):
        out = tmp_path / "out"
        if option == "--timeout":
            argv = ["verify", files["flip"], "-s", files["schema"], "--mode", "fair",
                    "--kappa", "1/2", option, value]
        elif option in ("--eps", "--kappa"):
            argv = ["encode", files["flip"], "-s", files["schema"], "--mode", "robust",
                    "--kappa", "1/2", "-o", out, option, value]
        else:
            opts = {"--input-width": "4", "--layers": "4,2", "--classes": "2",
                    "--block-size": "1", "--seed": "1", option: value}
            argv = ["gen-random", "-o", out, *(x for kv in opts.items() for x in kv)]
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, out.exists()) == (3, "", False)
        assert repr(value.split(",")[-1]) in captured.err


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
        assert [code for code, _, _ in cached] == [0, 0, 0, 3, 2, 0, 0, 0]
        assert "the following arguments are required: --csv" in cached[3][2]
