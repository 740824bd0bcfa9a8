"""Every subcommand's report, stderr and exit code, pinned.

``cli_golden.json`` holds, per invocation, the exit code, the stdout JSON
with every wall time zeroed, and the stderr text with every ``N.NNNs``
timing zeroed; the temp directory reads ``TMP`` throughout. The cases
cover each outcome the CLI maps to an exit code: ok or holds (0),
counterexample or not attainable (1), invalid input (2), usage and
environment errors (3), among them a solver whose model fails its recheck,
and unknown through a solver that never answers (4).
To re-pin after an intended report change, write ``run_cases``' result to
the file, one invocation per line.
"""

import json
import re
from pathlib import Path

from helpers import lying_solver, sleeping_solver

from lgnsat.cli import main
from lgnsat.netlist import serialize_netlist
from lgnsat.schema import FeatureSchema, NumericFeature, serialize_schema

GOLDEN = Path(__file__).with_name("cli_golden.json")
_TIMES = ("wall_time_s", "total_time_s")


def _zero_times(value):
    if isinstance(value, dict):
        return {k: 0.0 if k in _TIMES else _zero_times(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_zero_times(v) for v in value]
    return value


def _cases(d: Path, sleepy: Path, liar: Path) -> list[list[str]]:
    flip, const, sure, schema = d / "flip.lgn", d / "const.lgn", d / "sure.lgn", d / "s.fs"
    mixed_net, mixed = d / "mixed.lgn", d / "mixed.fs"
    fair = ["-s", schema, "--mode", "fair"]
    sleep = ["--solver", sleepy, "--timeout", "0.3"]
    return [
        ["validate", flip, "-s", schema],
        ["validate", d / "outputs.lgn"],
        ["validate", d / "op16.lgn"],
        ["validate", d / "nope.lgn"],
        ["verify", const, "-s", schema, "--mode", "robust", "--kappa", "1/2"],
        ["verify", flip, *fair, "--kappa", "1/2"],
        ["verify", flip, *fair, "--kappa", "1/2", *sleep],
        ["verify", flip, *fair, "--kappa", "about-half"],
        ["verify", flip, "-s", d / "bad.fs", "--mode", "fair", "--kappa", "1/2"],
        ["verify", mixed_net, "-s", mixed, "--mode", "fair", "--eps", "1", "--kappa", "1/2"],
        ["search-kappa", flip, *fair, "--tol", "0.05"],
        ["search-kappa", const, *fair],
        ["search-kappa", sure, *fair, "--tol", "0"],
        ["search-kappa", const, *fair, *sleep],
        ["sweep", flip, *fair, "--kappas", "0.5,0.99"],
        ["sweep", const, *fair, "--kappas", "1/2,3/4", *sleep],
        ["attainable", const, "-s", schema, "--kappa", "0.49"],
        ["attainable", const, "-s", schema, "--kappa", "1/2"],
        ["attainable", sure, "-s", schema, "--kappa", "1/2", *sleep],
        ["encode", flip, *fair, "--kappa", "1/2", "-o", d / "q.cnf", "--varmap", d / "q.map"],
        ["encode", flip, "-s", schema, "--mode", "robust", "--eps", "1", "--kappa", "3/4",
         "-o", d / "r.cnf"],
        ["gen-random", "-d", "6", "--layers", "5,4", "-C", "2", "-L", "2", "--seed", "42",
         "-o", d / "g.lgn"],
        ["gen-random", "-d", "6", "--layers", "5,3", "-C", "2", "-L", "2", "--seed", "42",
         "-o", d / "g.lgn"],
        ["eval", flip, "-s", schema, "--row", "1"],
        ["eval", mixed_net, "-s", mixed, "--bits", "11001"],
        ["eval", flip, "-s", schema],
        ["eval", flip, "-s", schema, "--bits", "11"],
        ["accuracy", flip, "-s", schema, "--csv", d / "rows.csv"],
        ["accuracy", flip, "-s", schema, "--csv", d / "badlabel.csv"],
        ["accuracy", flip, "-s", schema, "--csv", d / "rows.csv", "--label-col", "nope"],
        ["verify", flip, *fair, "--kappa", "1/0"],
        ["search-kappa", flip, *fair, "--tol", "1/0"],
        ["sweep", flip, *fair, "--kappas", "1/2,1/0"],
        ["verify", flip, *fair, "--kappa", "1/2", "--timeout", "inf"],
        ["eval", flip, "-s", d / "wide.fs", "--bits", "1111"],
        ["accuracy", flip, "-s", d / "wide.fs", "--csv", d / "wide.csv"],
        ["gen-random", "-d", "6", "--layers", "5,2", "-C", "1", "-L", "2", "--seed", "42",
         "-o", d / "g.lgn"],
        ["verify", flip, *fair, "--kappa", "1/2", "--solver", liar],
        ["validate", d / "latin1.lgn"],
        ["verify", flip, "-s", d / "latin1.fs", "--mode", "fair", "--kappa", "1/2"],
        ["accuracy", flip, "-s", schema, "--csv", d / "latin1.csv"],
    ]


def run_cases(d: Path, capsys, nets, flip_schema, mixed_schema) -> list[dict]:
    """Write the inputs into ``d``, run every case and return what is pinned."""
    flip_net, const_net, const_sure_net = nets
    (d / "flip.lgn").write_bytes(serialize_netlist(flip_net))
    (d / "const.lgn").write_bytes(serialize_netlist(const_net))
    (d / "sure.lgn").write_bytes(serialize_netlist(const_sure_net))
    (d / "s.fs").write_bytes(serialize_schema(flip_schema))
    (d / "mixed.fs").write_bytes(serialize_schema(mixed_schema))
    (d / "bad.fs").write_text("cat group arity=2 sensitive=1\nnum x bits=2\n")
    wide = FeatureSchema((NumericFeature("x", 4, 0.0, 4.0),))  # 4 bits for a 2-bit net
    (d / "wide.fs").write_bytes(serialize_schema(wide))
    header = "lgn 1\ninput_width 2\nnum_classes 2\nblock_size {}\n"
    (d / "outputs.lgn").write_text(header.format(3) + "layer (8, i0, i1) (14, i0, i1)\n")
    (d / "op16.lgn").write_text(header.format(1) + "layer (16, i0, i1) (14, i0, i1)\n")
    (d / "rows.csv").write_text("group,label\n0,0\n0,0\n0,1\n1,1\n1,0\n")
    (d / "badlabel.csv").write_text("group,label\n0,0\n1,one\n")
    (d / "wide.csv").write_text("x,label\n1,0\n")
    # Bytes that are not UTF-8: 0xff, and a Latin-1 e-acute.
    (d / "latin1.lgn").write_bytes(header.format(1).encode() + b"layer (8, i0, \xff1)\n")
    (d / "latin1.fs").write_bytes(b"# features\ncat caf\xe9 arity=2 sensitive=1\n")
    (d / "latin1.csv").write_bytes(b"group,label\n0,0\n1,\xff\n")
    assert main(["gen-random", "-d", "5", "--layers", "12,8,4", "-C", "2", "-L", "2",
                 "--seed", "2", "-o", str(d / "mixed.lgn")]) == 0
    capsys.readouterr()
    tmp, results = str(d), []
    for argv in _cases(d, sleeping_solver(d), lying_solver(d)):
        argv = [str(a) for a in argv]
        code = main(argv)
        out, err = capsys.readouterr()
        report = _zero_times(json.loads(out)) if out.strip() else None
        results.append({
            "argv": [a.replace(tmp, "TMP") for a in argv],
            "code": code,
            "stdout": json.loads(json.dumps(report).replace(tmp, "TMP")),
            "stderr": re.sub(r"\d+\.\d{3}s\b", "0.000s", err.replace(tmp, "TMP")),
        })
    return results


def test_reports_match_golden(tmp_path, capsys, flip_net, const_net, const_sure_net,
                              flip_schema, mixed_schema):
    runs = run_cases(tmp_path, capsys, (flip_net, const_net, const_sure_net), flip_schema,
                     mixed_schema)
    expected = json.loads(GOLDEN.read_text())
    assert [r["argv"] for r in runs] == [e["argv"] for e in expected]
    for run, pinned in zip(runs, expected):
        assert run == pinned, run["argv"]
    assert {r["code"] for r in runs} == {0, 1, 2, 3, 4}
