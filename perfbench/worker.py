"""One workload in a fresh interpreter: set up, time whole rounds of ops,
check every output after its round, print one JSON line.  With ``--round
i`` it times round i alone and adds the round's latencies to the line, for
the runner to merge with other rounds run the same way.

Set-up runs from the first statement of this file to the first timed op:
the import of ``cspiso``, input generation and any warm-up the workload
does.  Only the calls into the program are timed; checking, bookkeeping
and building the next round are not.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))


def parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--round", type=int, help="time this one round only")
    return ap.parse_args(argv)


def latency_metrics(latencies_ms) -> dict:
    return {
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p90_ms": statistics.quantiles(latencies_ms, n=10)[-1] if len(latencies_ms) > 1 else latencies_ms[0],
    }


def import_program():
    """``cspiso`` from this checkout's ``src``, never an installed copy."""
    import cspiso

    if not Path(cspiso.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"cspiso imported from {cspiso.__file__}, not from {ROOT / 'src'}")
    return cspiso


def run(args) -> dict:
    from workloads import WORKLOADS
    from spans import Tracer

    package = import_program()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(package)
    workload = WORKLOADS[args.workload](package, args.seed, args.smoke)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        return {"setup_s": setup_s}

    if tracer:
        tracer.start(package)
    clock = time.perf_counter_ns
    latencies_ms = array("d")
    attempted = failed = rounds = timed_ns = 0
    problems = []
    first = args.round or 0
    while rounds == 0 or (args.round is None and timed_ns < args.seconds * 1e9):
        ops = workload.round(first + rounds)
        outcomes = []
        for op in ops:
            error = None
            t0 = clock()
            try:
                result = op.call()
            except Exception as exc:  # a raising op is a failed op, reported below
                result, error = None, exc
            t1 = clock()
            timed_ns += t1 - t0
            latencies_ms.append((t1 - t0) / 1e6)
            outcomes.append((result, error))
        for op, (result, error) in zip(ops, outcomes):
            attempted += 1
            if error is not None:
                reason = f"raised {error!r}"
            else:
                try:
                    reason = op.check(result)
                except Exception as exc:  # an output of the wrong shape is a wrong output
                    reason = f"check raised {exc!r}"
            if reason is not None:
                failed += 1
                if not op.known_fault:
                    problems.append(f"{op.kind}: {reason}")
        rounds += 1

    timed_s = timed_ns / 1e9
    out = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:10],
        "rounds": rounds,
        "timed_s": timed_s,
        "ops_per_s": attempted / timed_s,
        **latency_metrics(latencies_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.round is not None:
        out["latencies_ms"] = latencies_ms.tolist()
    if tracer:
        out["per_layer"] = tracer.metrics(package, timed_s, attempted)
        OUT.mkdir(exist_ok=True)
        suffix = "" if args.round is None else f"-round{args.round}"
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}{suffix}.json")
    return out


if __name__ == "__main__":
    print(json.dumps(run(parse(sys.argv[1:]))))
