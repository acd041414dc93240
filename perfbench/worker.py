"""
One workload in one process: set up, run the closed loop, write a result.

    PYTHONPATH=src python3 perfbench/worker.py --workload growth --seed 0 \
        --seconds 20 --out .bench_out/growth.json [--trace] [--smoke]

Usually started by run.py, which sets PYTHONPATH and PYTHONHASHSEED.  The
worker is single-threaded and runs one caller in a closed loop: each
instance starts only after the previous one has finished.  A pass runs
every instance once, in the seeded order.  Passes repeat while another
pass of median length still ends within --seconds; there is at least one.
With --trace it runs one pass with the tracer on and reports per-layer
numbers instead.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter

SETUP_REPEATS = 3
HERE = os.path.dirname(os.path.abspath(__file__))


def calibrate() -> float:
    """Time a fixed piece of interpreter work shaped like bsbimod's own: a
    product of two sparse polynomials held as dicts from exponent tuples
    to Fractions, about 3 ms here.  It runs before every instance, so that
    run.py can rescale instance times to a reference machine speed: on a
    shared host the speed of the same code drifts by 20% or more over
    minutes.  The garbage collector is paused while it runs, so its time
    does not depend on the heap the workload built."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = {}
        for e1, c1 in _CAL_POLY:
            for e2, c2 in _CAL_POLY:
                e = tuple(x + y for x, y in zip(e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


_CAL_POLY = [((a, b, c, 3 - a - b - c), Fraction(a + 2 * b - c, c + 1))
             for a in range(4) for b in range(4 - a) for c in range(4 - a - b)]


def git_commit(root: str):
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def set_up(workload: str, seed: int, smoke: bool):
    """Import bsbimod afresh, then generate, select and relabel the
    instances.  Returns (seconds taken, median calibration time just before,
    the workloads module, instances)."""
    for name in [m for m in sys.modules
                 if m in ("bsbimod", "workloads") or m.startswith("bsbimod.")]:
        del sys.modules[name]
    cal = statistics.median(calibrate() for _ in range(5))
    t0 = perf_counter()
    workloads = importlib.import_module("workloads")
    insts = workloads.WORKLOADS[workload].setup(seed, smoke)
    return perf_counter() - t0, cal, workloads, insts


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    setups, setup_cals = [], []
    for _ in range(SETUP_REPEATS):
        took, cal, workloads, insts = set_up(args.workload, args.seed,
                                             args.smoke)
        setups.append(took)
        setup_cals.append(cal)
    wl = workloads.WORKLOADS[args.workload]

    reference = {}
    ref_path = os.path.join(HERE, "reference.json")
    if os.path.exists(ref_path):
        with open(ref_path) as fh:
            reference = json.load(fh).get(args.workload, {})

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install([m for name, m in sys.modules.items()
                        if name == "bsbimod" or name.startswith("bsbimod.")
                        or name == "workloads"])

    times = {inst.id: [] for inst in insts}
    digests = {}
    failures = []
    pass_walls = []   # per pass: the summed compute time of its instances
    cals = []         # per pass: the calibration times taken in it
    attempted = 0
    start = perf_counter()
    while not pass_walls or (not args.trace and perf_counter() - start
                             + statistics.median(pass_walls) <= args.seconds):
        wall = 0.0
        cals.append([])
        for i, inst in enumerate(insts):
            attempted += 1
            inst.use(len(pass_walls))
            cals[-1].append(calibrate())
            raw = None
            if tracer:
                tracer.instance, tracer.enabled = i, True
            c0 = perf_counter()
            try:
                raw = wl.compute(inst)
            except Exception:
                failures.append({"id": inst.id,
                                 "error": traceback.format_exc(limit=3)})
            finally:
                elapsed = perf_counter() - c0
                times[inst.id].append(elapsed)
                wall += elapsed
                if tracer:
                    tracer.enabled = False
            if raw is None:
                continue
            try:
                got = workloads.digest_of(wl.digest(inst, raw))
            except Exception as exc:
                failures.append({"id": inst.id, "error": repr(exc)})
                continue
            digests[inst.id] = got
            want = reference.get(inst.id)
            if want != got:
                failures.append({"id": inst.id, "error":
                                 f"digest {got} != reference {want}"})
        pass_walls.append(wall)

    result = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "trace": args.trace,
        "env": {"python": platform.python_version(),
                "enum_implementation":
                    sys.modules["bsbimod.subexpr"].ENUM_IMPLEMENTATION,
                "nproc": len(os.sched_getaffinity(0)),
                "seed": args.seed,
                "hash_seed": os.environ.get("PYTHONHASHSEED"),
                "git_commit": git_commit(os.getcwd())},
        "setup_runs_s": setups, "setup_calibration_s": setup_cals,
        "pass_walls_s": pass_walls, "calibration_s": cals,
        "instance_times_s": times,
        "attempted": attempted, "failed": len(failures),
        "failures": failures, "digests": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["layers"] = tracer.metrics()
        tracer.dump(os.path.splitext(args.out)[0])
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
