"""The cspiso benchmark.

    python3 perfbench/run.py --workload symmetry --seed 1 --seconds 50 --trace 0

Runs one workload (or ``--workload all``) in fresh interpreters and prints
its metrics; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A workload
times whole rounds of ops in one interpreter, or, if it has cold rounds, each
round in an interpreter of its own, until ``--seconds`` of op time have
passed.  With ``--trace 0`` the metrics are the end-to-end ones; set-up is
timed in at least ``SETUPS`` interpreters and the median is reported.  With
``--trace 1`` the interpreters are traced and give the per-layer metrics.
See README.md for the workloads and the metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import latency_metrics

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
WORKLOADS = ("sweep", "deep", "contract", "symmetry")
COLD_ROUNDS = ("symmetry",)
SETUPS = 3
DEADLINE_S = 175
END_TO_END_UNITS = {"ops_per_s": "op/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def worker(args, deadline: float, setup_only: bool = False, round_index=None) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--smoke"] * args.smoke + ["--setup-only"] * setup_only
    if round_index is not None:
        cmd += ["--round", str(round_index)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{args.workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def merge_layers(outs) -> dict:
    """Per-op metrics weighted by ops, the overhead share by op time, and
    cache sizes at their largest."""
    merged = {}
    for name, first in outs[0]["per_layer"].items():
        values = [o["per_layer"][name]["value"] for o in outs]
        if first["unit"] == "count":
            value = max(values)
        else:
            weight = "timed_s" if first["unit"] == "%" else "attempted"
            total = sum(o[weight] for o in outs)
            value = sum(v * o[weight] for v, o in zip(values, outs)) / total
        merged[name] = {"value": value, "unit": first["unit"]}
    return merged


def merge_rounds(outs) -> dict:
    """One result from rounds run in interpreters of their own."""
    out = {
        "attempted": sum(o["attempted"] for o in outs),
        "failed": sum(o["failed"] for o in outs),
        "problems": [p for o in outs for p in o["problems"]][:10],
        "rounds": len(outs),
        "timed_s": sum(o["timed_s"] for o in outs),
        **latency_metrics([x for o in outs for x in o["latencies_ms"]]),
        "peak_rss_mb": max(o["peak_rss_mb"] for o in outs),
    }
    out["ops_per_s"] = out["attempted"] / out["timed_s"]
    if "per_layer" in outs[0]:
        out["per_layer"] = merge_layers(outs)
    return out


def run_one(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if args.workload in COLD_ROUNDS:
        outs = []
        while not outs or sum(o["timed_s"] for o in outs) < args.seconds:
            outs.append(worker(args, deadline, round_index=len(outs)))
        setups = [o["setup_s"] for o in outs]
        out = merge_rounds(outs)
    else:
        out = worker(args, deadline)
        setups = [out["setup_s"]]
    if args.trace:
        metrics = out["per_layer"]
    else:
        setups += [worker(args, deadline, setup_only=True)["setup_s"] for _ in range(SETUPS - len(setups))]
        out["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": out[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    for problem in out["problems"]:
        print(f"{args.workload}: WRONG {problem}")
    print(f"{args.workload}: seed {args.seed}, {out['rounds']} rounds, {out['attempted']} ops attempted, "
          f"{out['failed']} failed, {out['timed_s']:.3f} s timed")
    for name, m in metrics.items():
        print(f"{args.workload}: {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": not out["problems"], "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result))
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        args.workload = name
        print(json.dumps(run_one(args)), flush=True)


if __name__ == "__main__":
    main()
