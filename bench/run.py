"""Solve-and-audit benchmark of parakkt: one workload, one seed, one length.

    python3 bench/run.py --workload certify_1d --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; parakkt is imported from ``src/``.
The run builds its problems from the seed, warms up, then repeats rounds of
operations until ``--seconds`` have passed, checks every output against the
benchmark's own computations, and prints one JSON object as the last line of
standard output.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
installs wrappers at parakkt's layer boundaries and reports the per-layer
metrics instead.  Full results go to ``bench/out/``.

Solve and audit times are reported in units of the reference computation of
``reference.py``, timed before and after every operation, so that a change
of the host's speed during or between runs cancels; the times in seconds go
to the results file.
"""

import time

_START = time.perf_counter()    # set-up is timed from here: the import is in it

import os  # noqa: E402
import sys  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"      # one BLAS/OpenMP thread, set before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

from checks import check_outcome  # noqa: E402
from operations import build, execute  # noqa: E402
from reference import Reference  # noqa: E402
from spans import Tracer, per_layer_metrics, per_round, self_time_breakdown  # noqa: E402
from workloads import WORKLOADS, round_operations, warmup_operations  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_SAMPLES = 5               # the run's own set-up plus four fresh processes


def import_parakkt():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "parakkt", "__init__.py")):
        sys.exit(f"error: no parakkt package under {src}; run from a source checkout")
    sys.path.insert(0, src)
    import parakkt
    return parakkt


def set_up(workload, seed):
    """Import, build every problem and grid, run the warm-up operations."""
    pk = import_parakkt()
    built = [build(pk, op) for op in round_operations(workload, seed)]
    reference = Reference(built[0].op.problem.dim)
    reference.run()
    for op in warmup_operations(workload, seed):
        try:
            problems = check_outcome(op, execute(pk, build(pk, op)).outputs)
        except pk.ParakktError as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        for problem in problems:
            print(f"warm-up {op.label}: {problem}", file=sys.stderr)
    return pk, built, reference, time.perf_counter() - _START


def run_operation(pk, b):
    """Execute and check one operation; returns its record."""
    rec = {"op": b.op.label, "solve_s": 0.0, "audit_s": 0.0, "failed": False,
           "correct": True, "iterations": None}
    try:
        outcome = execute(pk, b)
    except pk.ParakktError as exc:              # a typed failure of the program
        rec.update(failed=True, reason=f"{type(exc).__name__}: {exc}")
        return rec
    except Exception as exc:                    # an untyped one is a fault too
        traceback.print_exc()
        rec.update(failed=True, correct=False, reason=f"{type(exc).__name__}: {exc}")
        return rec
    rec.update(solve_s=outcome.solve_s, audit_s=outcome.audit_s,
               iterations=len(outcome.outputs["trace"].rows))
    problems = check_outcome(b.op, outcome.outputs)
    if problems:
        rec.update(failed=True, correct=False, reason="; ".join(problems))
    return rec


def setup_samples(args, own):
    """Set-up times of fresh processes, run one after another."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: set-up process exited with {proc.returncode}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def measure(pk, built, reference, seconds, tracer):
    """Repeat whole rounds until ``seconds`` have passed; returns the records.

    Each record's ``ref_s`` is the mean of the reference times taken just
    before and just after its operation.
    """
    rounds = []
    t0 = time.perf_counter()
    ref_before = reference.time()
    while True:
        records = []
        for b in built:
            if tracer is not None:
                tracer.op = len(rounds) * len(built) + len(records)
            rec = run_operation(pk, b)
            ref_after = reference.time()
            rec["ref_s"] = 0.5 * (ref_before + ref_after)
            ref_before = ref_after
            records.append(rec)
        rounds.append(records)
        if time.perf_counter() - t0 >= seconds:
            return rounds


def round_median(rounds, key, in_ref=True):
    """Median over rounds of a round's total ``key`` time, in references or seconds."""
    return statistics.median(
        sum(r[key] / (r["ref_s"] if in_ref else 1.0) for r in records) for records in rounds)


def end_to_end(rounds, built, setup):
    certified_nodes = certified_ref = 0.0
    for records in rounds:
        for rec, b in zip(records, built):
            if not rec["failed"]:
                certified_nodes += b.op.space_time_nodes
                certified_ref += (rec["solve_s"] + rec["audit_s"]) / rec["ref_s"]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "solve_ref": {"value": round_median(rounds, "solve_s"), "unit": "ref"},
        "audit_ref": {"value": round_median(rounds, "audit_s"), "unit": "ref"},
        "certified_nodes_per_ref": {
            "value": certified_nodes / certified_ref if certified_ref else 0.0,
            "unit": "nodes/ref"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB"},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time the set-up of a fresh process and print it")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    pk, built, reference, own_setup = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    tracer = Tracer().install() if args.trace else None
    try:
        rounds = measure(pk, built, reference, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    records = [rec for rnd in rounds for rec in rnd]
    failed = [rec for rec in records if rec["failed"]]
    for rec in failed[:10]:
        print(f"failed {rec['op']}: {rec['reason']}", file=sys.stderr)
    setup = [own_setup] if args.trace else setup_samples(args, own_setup)
    e2e = end_to_end(rounds, built, setup)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_samples_s": setup, "end_to_end": e2e,
        "seconds_medians": {"solve_s": round_median(rounds, "solve_s", False),
                            "audit_s": round_median(rounds, "audit_s", False),
                            "ref_s": statistics.median(r["ref_s"] for r in records)},
        "rounds": [{"solve_s": sum(r["solve_s"] for r in rnd),
                    "audit_s": sum(r["audit_s"] for r in rnd),
                    "ref_s": [r["ref_s"] for r in rnd]} for rnd in rounds],
        "operations": [{"op": r["op"], "iterations": r["iterations"],
                        "solve_s": r["solve_s"], "audit_s": r["audit_s"]}
                       for r in rounds[0]],
    }
    metrics = e2e
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        op_round = [i // len(built) for i in range(len(records))]
        metrics, absent, counts = per_layer_metrics(tracer, op_round)
        for name in absent:
            print(f"per-layer metric absent: {name} (its boundary was not found)",
                  file=sys.stderr)
        breakdown, counters = self_time_breakdown(tracer, op_round)
        per_op = per_round(tracer, list(range(len(built))) + [None] * (len(records) - len(built)))
        for op, (_, _, info) in zip(detail["operations"], per_op):
            op.update(line_search_trials=info["line_search_trials"])
        detail.update(per_layer=metrics, absent=absent, counts_by_round=counts,
                      breakdown=breakdown, counters=counters, spans=len(tracer.spans))
        tracer.write(stem + "-spans.csv.gz", [r["op"] for r in records])
    with open(stem + ".json", "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps({
        "correct": all(rec["correct"] for rec in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
