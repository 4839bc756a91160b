"""Tests of the benchmark itself: every check rejects a planted wrong answer,
the oracles agree with plain enumeration, and each workload runs end to
end on small inputs.

    python3 -m pytest -q perfbench
"""

import itertools
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import cspiso  # noqa: E402

import oracles as O  # noqa: E402
import workloads as W  # noqa: E402
from cspiso.interpolation import DistinguishResult  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def graph_set(graph):
    return W.Symmetry(cspiso, 0, False).cfset(graph)


# ---------------------------------------------------------------------------
# planted wrong answers
# ---------------------------------------------------------------------------

def test_wrong_sigma_is_rejected():
    g = W.cube()
    fset = graph_set(g)
    right = DistinguishResult(sigma=g.generators[0])
    wrong = DistinguishResult(sigma=(1, 0) + tuple(range(2, 8)))
    assert O.check_isomorphism_verdict(right, fset, fset, True) is None
    assert "not an isomorphism" in O.check_isomorphism_verdict(wrong, fset, fset, True)
    # a sigma for a pair the S_q walk calls non-isomorphic
    sweep = W.Sweep(cspiso, 0, True)
    fi, gi = next((a, b) for a, b in itertools.combinations(range(len(sweep.sets)), 2)
                  if sweep.sets[a].q == sweep.sets[b].q == 2 and sweep.canon(a) != sweep.canon(b))
    assert "not isomorphic" in sweep.check(fi, gi, DistinguishResult(sigma=(0, 1)))


def test_equal_witness_values_are_rejected():
    f = cspiso.CFSet((cspiso.ConstraintFunction(2, 1, (0, 2)), cspiso.ConstraintFunction(2, 2, (1,) * 4)))
    g = cspiso.CFSet((cspiso.ConstraintFunction(2, 1, (1, 1)), cspiso.ConstraintFunction(2, 2, (1,) * 4)))
    v = ("v", 1)
    simple = cspiso.LabeledInstance((v,), ((0, (v,)),))
    repeated = cspiso.LabeledInstance((v,), ((0, (v,)), (0, (v,))))
    assert O.check_witness(repeated, 4, 2, f, g) is None
    assert "equal" in O.check_witness(simple, 2, 2, f, g)
    assert "naive" in O.check_witness(repeated, 4, 3, f, g)
    # the deep check also refuses a simple witness on a certified pair
    assert "simple witness" in W.Deep.check(f, g, DistinguishResult(witness=simple, z_f=2, z_g=2))


def test_wrong_partition_value_is_rejected():
    contract = W.Contract(cspiso, 3, True)
    low_width = [op for op in contract.ops if op.kind in ("Z:path", "Z:cycle", "Z:tree")]
    assert {op.kind for op in low_width} == {"Z:path", "Z:cycle", "Z:tree"}
    for op in low_width:
        z = op.call()
        assert op.check(z) is None
        assert "expected" in op.check(z + 1)
    matrix = next(op for op in contract.ops if op.kind == "decompose")
    value = matrix.call()
    assert matrix.check(value) is None
    planted = cspiso.Matrix(((value.data[0][0] + 1,) + value.data[0][1:],) + value.data[1:])
    assert "differ" in matrix.check(planted)


def test_wrong_group_order_is_rejected():
    g = W.cycles([4, 4])
    fset = graph_set(g)
    elements = O.closure(g.q, g.generators)
    assert len(elements) == g.order == 128
    assert W.Symmetry.check_group(fset, g.order, elements) is None
    assert "closed form" in W.Symmetry.check_group(fset, g.order, elements[:-1])
    not_aut = (1, 0) + tuple(range(2, 8))
    assert "not an automorphism" in W.Symmetry.check_group(fset, g.order, elements[:-1] + (not_aut,))


# ---------------------------------------------------------------------------
# the oracles against plain enumeration
# ---------------------------------------------------------------------------

def test_low_width_oracles_match_enumeration():
    rng = random.Random(5)
    for q, n in ((2, 5), (3, 4)):
        fset = cspiso.CFSet(
            (cspiso.ConstraintFunction(q, 2, tuple(rng.randint(0, 3) for _ in range(q * q))),
             cspiso.ConstraintFunction(q, 1, tuple(Fraction(rng.randint(1, 3), 2) for _ in range(q)))),
            tuple(rng.randint(1, 3) for _ in range(q)),
        )
        names = tuple(range(n))
        unary = [(1, (v,)) for v in names]
        tree = [(rng.randrange(i), i) for i in range(1, n)]
        inst = cspiso.LabeledInstance(names, tuple((0, e) for e in tree) + tuple(unary))
        assert O.tree_partition(fset, n, tree, 0, 1) == O.naive_pinned(fset, inst)
        pinned = cspiso.LabeledInstance(names, inst.constraints, (0, n - 1))
        assert O.tree_partition(fset, n, tree, 0, 1, {0: 1, n - 1: 0}) == O.naive_pinned(fset, pinned, (1, 0))
        ring = [(i, (i + 1) % n) for i in range(n)]
        cyc = cspiso.LabeledInstance(names, tuple((0, e) for e in ring) + tuple(unary))
        assert O.cycle_partition(fset, n, 0, 1) == O.naive_pinned(fset, cyc)


def test_burnside_matches_orbit_enumeration():
    g = W.cycles([3, 4])
    elements = O.closure(g.q, g.generators)
    assert len(elements) == g.order == 48
    for length in (1, 2):
        orbits = {frozenset(tuple(s[x] for x in xs) for s in elements)
                  for xs in itertools.product(range(g.q), repeat=length)}
        assert O.burnside_orbits(g.q, elements, length) == len(orbits)


def test_spread_keeps_each_group_in_order_and_spreads_it():
    a, b, c = list("ab"), list("1234"), list("xy")
    out = W.spread(a, b, c)
    assert sorted(out) == sorted(a + b + c)
    for group in (a, b, c):
        assert [x for x in out if x in group] == group
    assert out.index("a") < out.index("3") < out.index("b")


def test_symmetry_rounds_repeat_the_ops_on_fresh_labellings():
    sym = W.Symmetry(cspiso, 4, True)
    first, second = sym.round(0), sym.round(1)
    assert [op.kind for op in first] == [op.kind for op in second]
    assert [op.call.args for op in first] != [op.call.args for op in second]
    assert [op.call.args for op in W.Symmetry(cspiso, 4, True).round(1)] == [op.call.args for op in second]


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------

def run_bench(cwd, *args, timeout=120):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload", ["sweep", "deep", "contract", "symmetry"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "2", "--seconds", "0.2",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    if workload == "contract":
        per_round = W.Contract(cspiso, 2, True).ops
        share = sum(op.known_fault for op in per_round) / len(per_round)
        assert result["failed"] == result["attempted"] * share
    else:
        assert result["failed"] == 0


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
