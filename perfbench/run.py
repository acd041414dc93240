"""
Benchmark runner for bsbimod.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload in turn
    python3 perfbench/run.py --smoke             # tiny variant of every workload
    python3 perfbench/run.py --record            # rewrite reference.json
    python3 perfbench/run.py --compare A.json B.json

Run from the root of a source checkout; the package is imported from src/.
Each workload runs in its own single-threaded worker process (worker.py)
with PYTHONHASHSEED fixed, as a closed loop with one caller.  With --trace 0
the last line of output is a JSON object with the end-to-end metrics; with
--trace 1 the runner makes an untraced run and then a traced one-pass run,
and reports the per-layer metrics, including the tracing overhead.  Every
worker result, with its environment, per-instance times and digests, is
kept in .bench_out/.  The workloads, metrics and predictions are described
in perfbench/DESIGN.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("growth", "dseq", "basis", "membership", "enumerate")
DEADLINE_S = 170       # every run ends within the 180 s a run is allowed
HASH_SEED = "0"
TAIL_BEYOND = 10       # the tail percentile leaves this many instances above
CAL_REF_S = 0.0025     # the calibration time at the reference machine speed

END_TO_END = {"wall_s": "s", "case_p50_s": "s", "case_tail_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}

_CALLS_SELF = ("subexpr.enumerate_sub", "subexpr.graph",
               "subexpr.con_component", "subexpr.frozen_set",
               "orderalg.closeness", "orderalg.residual_constraints",
               "locmod.membership", "locmod.sigma",
               "polyring.divisible_by_power", "polyring.exact_div",
               "strmod.buchberger", "strmod.reduce_elem")
_SELF_ONLY = ("orderalg.algorithm1", "orderalg.algorithm2", "locmod.basis",
              "locmod.express_in_basis", "locmod.mu", "locmod.inner",
              "strmod.syzygies", "strmod.free_resolution",
              "dseq.dichotomy_report", "dseq.structure_checks")
_COUNTS = ("subexpr.enumerate_sub.members", "subexpr.graph.vertices",
           "subexpr.Subexpr.built", "subexpr.Subexpr.fold.calls",
           "coxeter.Permutation.mul.calls", "orderalg.closeness.certs",
           "orderalg.families", "orderalg.families_peak",
           "locmod.membership.rejects", "polyring.exact_div.not_divisible",
           "polyring.Polynomial.built")
PER_LAYER = dict(
    [(f"{f}.calls", "count") for f in _CALLS_SELF]
    + [(f"{f}.self_s", "s") for f in _CALLS_SELF + _SELF_ONLY]
    + [(c, "count") for c in _COUNTS]
    + [("orderalg.closeness.hit_ratio", "ratio"),
       ("trace.overhead_ratio", "ratio")])


class RunFailed(Exception):
    """A worker could not produce a result."""


def run_worker(workload, seed, seconds, trace=False, smoke=False,
               deadline=None):
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-s{seed}" + ("-smoke" if smoke else "") + \
        ("-traced" if trace else "")
    out = os.path.join(OUT, tag + ".json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", out]
    cmd += ["--trace"] if trace else []
    cmd += ["--smoke"] if smoke else []
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
               PYTHONPATH=os.path.join(ROOT, "src"))
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{tag}: worker timed out")
    if proc.returncode != 0 or not os.path.exists(out):
        raise RunFailed(f"{tag}: worker exited with {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def pass_factors(result):
    """Per pass, CAL_REF_S over the median calibration time of the pass:
    the factor that rescales the pass's times to the reference speed."""
    return [CAL_REF_S / statistics.median(c) for c in result["calibration_s"]]


def instance_times(result, factors):
    """Per instance, the median over passes of its rescaled time."""
    return sorted(statistics.median(t * f for t, f in zip(v, factors))
                  for v in result["instance_times_s"].values())


def tail(times):
    """(time, percentile, instances beyond) at the highest percentile that
    leaves TAIL_BEYOND instances above it (the maximum if there are fewer)."""
    n = len(times)
    idx = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return times[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def end_to_end(result):
    """The end-to-end metrics of one worker result; times are rescaled to
    the reference speed (see worker.calibrate)."""
    factors = pass_factors(result)
    times = instance_times(result, factors)
    tail_s, pct, beyond = tail(times)
    raw_wall = statistics.median(result["pass_walls_s"])
    raw_setup = statistics.median(result["setup_runs_s"])
    metrics = {"wall_s": statistics.median(
                   w * f for w, f in zip(result["pass_walls_s"], factors)),
               "case_p50_s": statistics.median(times),
               "case_tail_s": tail_s,
               "setup_s": statistics.median(
                   t * CAL_REF_S / c for t, c in zip(
                       result["setup_runs_s"], result["setup_calibration_s"])),
               "peak_rss_mb": result["peak_rss_mb"]}
    notes = {"case_tail_s": f"p{pct:.0f} of {len(times)} instances, "
                            f"{beyond} beyond",
             "wall_s": f"median of {len(factors)} passes; "
                       f"unscaled {raw_wall:.4g} s",
             "setup_s": f"median of {len(result['setup_runs_s'])}; "
                        f"unscaled {raw_setup:.4g} s"}
    return metrics, notes


def fail_frac(result):
    return result["failed"] / max(1, result["attempted"])


def print_lines(workload, metrics, units, notes=None, result=None):
    for name, value in metrics.items():
        note = (notes or {}).get(name, "")
        print(f"{workload:<11} {name:<36} {value:>14.6g} {units[name]:<6} {note}")
    if result is not None:
        print(f"{workload:<11} {'fail_frac':<36} {fail_frac(result):>14.6g} "
              f"{'ratio':<6} {result['failed']} of {result['attempted']}")
        for f in result["failures"][:5]:
            print(f"{workload:<11} FAILED {f['id']}: {f['error'].strip()}")
        env = result["env"]
        print(f"{workload:<11} env: python {env['python']}, enum "
              f"{env['enum_implementation']}, nproc {env['nproc']}, seed "
              f"{env['seed']}, hash seed {env['hash_seed']}, commit "
              f"{env['git_commit']}")


def measure(workload, seed, seconds, trace, deadline, smoke=False):
    """One benchmark run: (metrics, attempted, failed)."""
    base = run_worker(workload, seed, seconds, smoke=smoke, deadline=deadline)
    metrics, notes = end_to_end(base)
    if not trace:
        print_lines(workload, metrics, END_TO_END, notes, base)
        return metrics, base["attempted"], base["failed"]
    traced = run_worker(workload, seed, seconds, trace=True, smoke=smoke,
                        deadline=deadline)
    layers = {k: traced["layers"][k] for k in PER_LAYER if k in traced["layers"]}
    layers["trace.overhead_ratio"] = (traced["pass_walls_s"][0]
                                      * pass_factors(traced)[0]
                                      / metrics["wall_s"])
    diff = sorted(k for k, v in traced["digests"].items()
                  if base["digests"].get(k) != v)
    if diff:
        traced["failures"].append({"id": ",".join(diff), "error":
                                   "traced digests differ from untraced"})
        traced["failed"] += len(diff)
    print_lines(workload, layers, PER_LAYER, None, traced)
    return (layers, base["attempted"] + traced["attempted"],
            base["failed"] + traced["failed"])


def emit(metrics, units, attempted, failed):
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))


def smoke() -> int:
    """Tiny variant of every workload: every named metric is present, every
    digest matches its reference and fail_frac is 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    want_e2e = {m["name"] for m in bench["end_to_end"]}
    want_layer = {m["name"] for m in bench["per_layer"]}
    problems = []
    deadline = time.monotonic() + 600
    for wl in WORKLOADS:
        for trace, want in ((False, want_e2e), (True, want_layer)):
            metrics, attempted, failed = measure(wl, 0, 0, trace, deadline,
                                                 smoke=True)
            missing = want - set(metrics)
            if missing:
                problems.append(f"{wl}: missing {sorted(missing)}")
            if failed or not attempted:
                problems.append(f"{wl}: {failed} of {attempted} failed")
            bad = [k for k, v in metrics.items()
                   if not isinstance(v, (int, float)) or math.isnan(v)]
            if bad:
                problems.append(f"{wl}: non-numeric {bad}")
    for p in problems:
        print("SMOKE FAILURE:", p)
    print("smoke:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def record() -> int:
    """Rewrite reference.json from one untimed pass of every workload."""
    reference = {}
    for wl in WORKLOADS:
        result = run_worker(wl, 0, 0)
        bad = [f for f in result["failures"]
               if not f["error"].startswith("digest ")]
        if bad:
            print(f"{wl}: cannot record, {bad[0]['id']}: {bad[0]['error']}")
            return 1
        reference[wl] = dict(sorted(result["digests"].items()))
        print(f"{wl}: {len(reference[wl])} digests")
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def compare(path_a, path_b) -> int:
    """Compare two worker results of the same workload and seed: metrics
    side by side and per-instance digests.  Refuses results taken with
    different enumeration kernels."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    ea, eb = a["env"]["enum_implementation"], b["env"]["enum_implementation"]
    if ea != eb:
        print(f"refusing to compare: ENUM_IMPLEMENTATION {ea} vs {eb}")
        return 2
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        print("refusing to compare: different workload or seed")
        return 2
    ma, _ = end_to_end(a)
    mb, _ = end_to_end(b)
    for k in ma:
        print(f"{k:<14} {ma[k]:>12.6g} {mb[k]:>12.6g}  x{mb[k] / ma[k]:.3f}")
    diff = sorted(k for k in set(a["digests"]) | set(b["digests"])
                  if a["digests"].get(k) != b["digests"].get(k))
    for k in diff:
        print(f"digest differs: {k}")
    print(f"{len(diff)} digest differences")
    return 1 if diff else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar="RESULT")
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare)
    if not os.path.isfile(os.path.join(ROOT, "src", "bsbimod", "__init__.py")):
        print("error: no bsbimod sources under src/; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    if args.workload is None and not (args.smoke or args.record):
        ap.error("--workload is required")
    if args.seconds < 0:
        ap.error("--seconds must not be negative")
    try:
        if args.smoke:
            return smoke()
        if args.record:
            return record()
        return run(args)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run(args) -> int:
    units = PER_LAYER if args.trace else END_TO_END
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    every, attempted, failed = {}, 0, 0
    for wl in names:
        metrics, att, fail = measure(wl, args.seed, args.seconds,
                                     args.trace, deadline)
        attempted, failed = attempted + att, failed + fail
        every.update({(f"{wl}.{k}" if len(names) > 1 else k): v
                      for k, v in metrics.items()})
    if len(names) > 1:
        units = {k: units[k.split(".", 1)[1]] for k in every}
    emit(every, units, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
