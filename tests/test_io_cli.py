import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cspiso import selftest
from cspiso.algebra import equality_function, gaussian, unary_function
from cspiso.cli import main
from cspiso.corpus import random_cfset, random_gadget, random_instance
from cspiso.holant import csp_to_grid
from cspiso.instances import CFSet, LabeledInstance, same_up_to_renaming
from cspiso.io import (
    FormatError,
    cfset_from_obj,
    cfset_to_obj,
    gadget_from_obj,
    gadget_to_obj,
    instance_from_obj,
    instance_to_obj,
    parse_pin,
)

EQ_SET_OBJ = {
    "functions": [{"q": 2, "arity": 2, "entries": ["1", "0", "0", "1"]}],
}
EDGE_INSTANCE_OBJ = {
    "k": 0,
    "variables": ["a", "b"],
    "labels": [],
    "constraints": [{"f": 1, "vars": ["a", "b"]}],
}


def test_cfset_round_trip():
    rng = random.Random(81)
    for _ in range(10):
        fset = random_cfset(rng, rng.randint(1, 3), rng.randint(1, 2), weighted=rng.random() < 0.5)
        assert cfset_from_obj(cfset_to_obj(fset)) == fset
    complex_set = CFSet((unary_function((gaussian(1, 2), 0)),))
    assert cfset_from_obj(cfset_to_obj(complex_set)) == complex_set


def test_instance_round_trip():
    rng = random.Random(82)
    fset = random_cfset(rng, 2, 2)
    for _ in range(10):
        inst = random_instance(rng, fset, 3, rng.randint(0, 2))
        again = instance_from_obj(instance_to_obj(inst), fset)
        assert same_up_to_renaming(inst, again)
        assert instance_to_obj(again) == instance_to_obj(inst)


def test_gadget_round_trip():
    rng = random.Random(83)
    for _ in range(10):
        g = random_gadget(rng, 2, rng.randint(0, 2), rng.randint(0, 2))
        assert gadget_from_obj(gadget_to_obj(g)) == g
    fset = CFSet((equality_function(2, 2),))
    inst = LabeledInstance(("a", "b"), ((0, ("a", "b")),), ("a",))
    grid = csp_to_grid(inst, fset)
    assert gadget_from_obj(gadget_to_obj(grid)) == grid


def test_validation_errors():
    with pytest.raises(FormatError):
        cfset_from_obj({"functions": [{"q": 2, "arity": 1, "entries": ["1", "1"]}],
                        "weights": ["1", "0"]})
    with pytest.raises(FormatError):
        instance_from_obj(
            {"variables": ["a"], "labels": [],
             "constraints": [{"f": 1, "vars": ["a"]}]},
            cfset_from_obj(EQ_SET_OBJ),
        )
    with pytest.raises(FormatError):
        instance_from_obj({"variables": ["a", "b"], "labels": ["a", "a"]})


@pytest.mark.parametrize("function, message", [
    ({"q": -1, "arity": 1, "entries": []}, "$.functions[0]: domain size must be >= 1"),
    ({"q": 2, "arity": 0, "entries": ["1"]}, "$.functions[0]: arity must be >= 1"),
    ({"q": 2, "arity": 1, "entries": ["1", "x"]}, "$.functions[0].entries: bad scalar"),
], ids=["q", "arity", "entries"])
def test_format_errors_name_the_bad_field(function, message):
    with pytest.raises(FormatError) as err:
        cfset_from_obj({"functions": [function]})
    assert str(err.value).startswith(message)


def test_parse_pin():
    assert parse_pin("1=2,2=1", 2, 2) == (1, 0)
    with pytest.raises(FormatError):
        parse_pin("1=2", 2, 2)
    with pytest.raises(FormatError):
        parse_pin("1=3", 1, 2)


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_cli_zeval(tmp_path, capsys):
    adjacency = {"functions": [{"q": 2, "arity": 2, "entries": ["0", "1", "1", "0"]}]}
    f = _write(tmp_path, "f.json", adjacency)
    k = _write(tmp_path, "k.json", EDGE_INSTANCE_OBJ)
    assert main(["zeval", "--functions", f, "--instance", k]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cli_zeval_pinned(tmp_path, capsys):
    f = _write(tmp_path, "f.json", EQ_SET_OBJ)
    inst = dict(EDGE_INSTANCE_OBJ)
    inst.update({"k": 2, "labels": ["a", "b"]})
    k = _write(tmp_path, "k.json", inst)
    assert main(["zeval", "--functions", f, "--instance", k, "--pin", "1=1,2=1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_iso_exit_codes(tmp_path, capsys):
    f = _write(tmp_path, "f.json",
               {"functions": [{"q": 2, "arity": 2, "entries": ["1", "0", "0", "2"]}]})
    g = _write(tmp_path, "g.json",
               {"functions": [{"q": 2, "arity": 2, "entries": ["2", "0", "0", "1"]}]})
    assert main(["iso", "--f", f, "--g", g]) == 0
    assert "(2 1)" in capsys.readouterr().out
    h = _write(tmp_path, "h.json", EQ_SET_OBJ)
    assert main(["iso", "--f", f, "--g", h]) == 1
    assert "none" in capsys.readouterr().out


def test_cli_twins(tmp_path, capsys):
    f = _write(tmp_path, "f.json",
               {"functions": [{"q": 3, "arity": 1, "entries": ["3", "3", "5"]}]})
    assert main(["twins", "--f", f]) == 0
    assert capsys.readouterr().out.strip() == "{1,2} {3}"


def test_cli_distinguish(tmp_path, capsys):
    f = _write(tmp_path, "f.json", EQ_SET_OBJ)
    g = _write(tmp_path, "g.json",
               {"functions": [{"q": 2, "arity": 2, "entries": ["1", "0", "0", "2"]}]})
    assert main(["distinguish", "--f", f, "--g", f]) == 0
    out = capsys.readouterr().out
    assert "isomorphic via sigma=" in out
    assert main(["distinguish", "--f", f, "--g", g]) == 1
    out = capsys.readouterr().out
    assert "Z_f = 2" in out and "Z_g = 3" in out


def test_cli_distinguish_with_pins(tmp_path, capsys):
    f = _write(tmp_path, "f.json",
               {"functions": [{"q": 2, "arity": 2, "entries": ["1", "2", "2", "1"]}]})
    pair = ["distinguish", "--f", f, "--g", f]
    assert main(pair + ["--pin-f", "1=1", "--pin-g", "1=2"]) == 0
    assert "isomorphic via sigma=(2 1)" in capsys.readouterr().out
    assert main(pair + ["--pin-f", "1=1,2=1", "--pin-g", "1=1,2=2"]) == 1
    assert "not isomorphic; witness instance:" in capsys.readouterr().out
    assert main(pair + ["--pin-f", "1=3", "--pin-g", "1=1"]) == 2
    assert "value 3 out of range 1..2" in capsys.readouterr().err
    assert main(pair + ["--pin-f", "1=1"]) == 2
    assert "equal length" in capsys.readouterr().err
    assert main(pair + ["--pin-f"]) == 2


def test_cli_sigmat_and_decompose(tmp_path, capsys):
    fset_obj = EQ_SET_OBJ
    f = _write(tmp_path, "f.json", fset_obj)
    fset = cfset_from_obj(fset_obj)
    inst = LabeledInstance(("a", "b"), ((0, ("a", "b")),), ("a", "b"))
    grid = csp_to_grid(inst, fset, 1)
    g = _write(tmp_path, "g.json", gadget_to_obj(grid))
    assert main(["sigmat", "--gadget", g]) == 0
    assert capsys.readouterr().out.split() == ["1", "0", "0", "1"]
    assert main(["decompose", "--gadget", g, "--functions", f]) == 0
    assert "signature matrix match: yes" in capsys.readouterr().out


def test_cli_intertwiners(tmp_path, capsys):
    f = _write(tmp_path, "f.json",
               {"functions": [{"q": 2, "arity": 2, "entries": ["0", "1", "1", "0"]}]})
    assert main(["intertwiners", "--f", f, "--k", "1", "--l", "1"]) == 0
    out = capsys.readouterr().out
    assert "orbit basis dimension: 2" in out
    assert "span equals orbit space: yes" in out
    # the span holds still at sizes 2-4 and reaches the orbit space at 5
    f = _write(tmp_path, "f.json",
               {"functions": [{"q": 2, "arity": 2, "entries": ["0", "1", "0", "0"]}]})
    assert main(["intertwiners", "--f", f, "--k", "1", "--l", "1"]) == 0
    out = capsys.readouterr().out
    assert "span dimension by size: [0, 2, 2, 2, 4]" in out
    assert "span equals orbit space: yes" in out


def test_cli_json_format_is_deterministic(tmp_path, capsys):
    f = _write(tmp_path, "f.json", EQ_SET_OBJ)
    assert main(["--format", "json", "twins", "--f", f]) == 0
    first = capsys.readouterr().out
    assert main(["--format", "json", "twins", "--f", f]) == 0
    assert capsys.readouterr().out == first
    json.loads(first)


def test_cli_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    f = _write(tmp_path, "f.json", EQ_SET_OBJ)
    assert main(["twins", "--f", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err
    big = dict(EDGE_INSTANCE_OBJ)
    big["variables"] = [f"v{i}" for i in range(40)]
    big["constraints"] = []
    k = _write(tmp_path, "k.json", big)
    assert main(["--term-cap", "100", "zeval", "--functions", f, "--instance", k]) == 3
    assert main(["nonsense"]) == 2


def test_cli_division_by_zero_scalar_is_an_input_error(tmp_path, capsys):
    f = _write(tmp_path, "f.json",
               {"functions": [{"q": 2, "arity": 2, "entries": ["1/0", "0", "0", "1"]}]})
    k = _write(tmp_path, "k.json", EDGE_INSTANCE_OBJ)
    assert main(["zeval", "--functions", f, "--instance", k]) == 2
    assert "1/0" in capsys.readouterr().err


def test_cli_zero_caps_are_honoured(tmp_path, capsys):
    f = _write(tmp_path, "f.json", EQ_SET_OBJ)
    g = _write(tmp_path, "g.json",
               {"functions": [{"q": 2, "arity": 2, "entries": ["1", "0", "0", "2"]}]})
    k = _write(tmp_path, "k.json", EDGE_INSTANCE_OBJ)
    inst = LabeledInstance(("a", "b"), ((0, ("a", "b")),), ("a",))
    grid = _write(tmp_path, "grid.json",
                  gadget_to_obj(csp_to_grid(inst, cfset_from_obj(EQ_SET_OBJ))))
    assert main(["--term-cap", "0", "zeval", "--functions", f, "--instance", k]) == 3
    assert main(["distinguish", "--f", f, "--g", g, "--max-probes", "0"]) == 3
    assert main(["--term-cap", "0", "sigmat", "--gadget", grid]) == 3
    err = capsys.readouterr().err
    assert err.count("cap exceeded") == 3


def test_cli_negative_caps_are_input_errors(tmp_path, capsys):
    f = _write(tmp_path, "f.json", EQ_SET_OBJ)
    g = _write(tmp_path, "g.json",
               {"functions": [{"q": 2, "arity": 2, "entries": ["1", "0", "0", "2"]}]})
    k = _write(tmp_path, "k.json", EDGE_INSTANCE_OBJ)
    assert main(["--term-cap", "-5", "zeval", "--functions", f, "--instance", k]) == 2
    assert main(["distinguish", "--f", f, "--g", g, "--max-probes", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error: ") == 2
    assert "cap exceeded" not in captured.err and captured.out == ""


def test_cli_zero_span_bound_is_an_input_error(tmp_path, capsys):
    f = _write(tmp_path, "f.json",
               {"functions": [{"q": 2, "arity": 2, "entries": ["0", "1", "1", "0"]}]})
    command = ["intertwiners", "--f", f, "--k", "1", "--l", "1"]
    assert main(command + ["--span-bound", "0"]) == 2
    assert capsys.readouterr().err.count("error: size bound must be at least 1") == 1


def test_cli_limits_are_not_read_from_the_environment(tmp_path, capsys, monkeypatch):
    f = _write(tmp_path, "f.json", EQ_SET_OBJ)
    g = _write(tmp_path, "g.json",
               {"functions": [{"q": 2, "arity": 2, "entries": ["1", "0", "0", "2"]}]})
    k = _write(tmp_path, "k.json", EDGE_INSTANCE_OBJ)
    commands = [
        (["twins", "--f", f], 0),
        (["zeval", "--functions", f, "--instance", k], 0),
        (["distinguish", "--f", f, "--g", g], 1),
    ]
    plain = []
    for argv, code in commands:
        assert main(argv) == code
        plain.append(capsys.readouterr().out)
    monkeypatch.setenv("CSPISO_TERM_CAP", "many")
    monkeypatch.setenv("CSPISO_MAX_PROBES", "-2")
    for (argv, code), out in zip(commands, plain):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, "")


@pytest.mark.parametrize("argv, bad", [
    (["twins", "--f", "{bad}"], 5),
    (["twins", "--f", "{bad}"], {"functions": 5}),
    (["twins", "--f", "{bad}"], {"functions": [{"q": 2, "arity": 1, "entries": 5}]}),
    (["twins", "--f", "{bad}"],
     {"functions": [{"q": 2, "arity": 1, "entries": ["1", "2"]}], "weights": 3}),
    (["sigmat", "--gadget", "{bad}"], {"q": 2, "vertices": 5}),
    (["sigmat", "--gadget", "{bad}", "--functions", "{eq}"],
     {"q": 2, "vertices": [{"sig": {"f": [1]}}]}),
    # algebra.all_tuples never ends for q = 0, so Gadget has to refuse it
    (["sigmat", "--gadget", "{bad}"], {"q": 0, "vertices": ["eq"], "outputs": [[0, 0]]}),
    (["zeval", "--functions", "{eq}", "--instance", "{bad}"],
     {"variables": ["a"], "constraints": 5}),
    (["zeval", "--functions", "{eq}", "--instance", "{bad}"], {"variables": ["a"], "k": [1]}),
    (["intertwiners", "--f", "{eq}", "--k", "-1", "--l", "0"], None),
    (["intertwiners", "--f", "{eq}", "--k", "1", "--l", "-2"], None),
    (["twins", "--f", "{dir}"], None),
], ids=["set-not-an-object", "functions", "entries", "weights", "vertices",
        "function-reference", "gadget-domain-0", "constraints", "instance-k",
        "negative-k", "negative-l", "directory"])
def test_cli_malformed_input_exits_2_without_a_traceback(tmp_path, argv, bad):
    files = {"eq": _write(tmp_path, "eq.json", EQ_SET_OBJ),
             "bad": _write(tmp_path, "bad.json", bad), "dir": str(tmp_path)}
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "cspiso.cli", *(a.format(**files) for a in argv)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert "error:" in done.stderr
    assert "Traceback" not in done.stderr


def test_cli_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "10/10 suites passed" in out
    assert sum(line.startswith("PASS  ") for line in out.splitlines()) == 10


def test_cli_selftest_reports_a_failing_requirement(monkeypatch, capsys):
    failing = ("12 a broken invariant", lambda: ([("case",)], "1 case"))
    monkeypatch.setattr(selftest, "REQUIREMENTS", (failing,))
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["FAIL  12 a broken invariant  [1 case]", "0/1 suites passed"]
