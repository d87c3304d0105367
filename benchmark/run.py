#!/usr/bin/env python3
"""Replay benchmark of the resa scheduling engine.

Run from the root of a source checkout:

    python3 benchmark/run.py --workload swf-replay --seed 4242 --seconds 25 --trace 0

It builds benchmark/resabench.exe with dune, sets the workload up, then runs
every measured step in a fresh child process, one at a time, under
RESA_DOMAINS=1, pinned to whichever CPU is least loaded at that moment.
Wall times are scaled to a reference core speed measured just before each
step (calibrate). With --trace 0 it reports the end-to-end metrics: rounds
of one untraced replay per policy (plus one exact solve on exact-resv) until
--seconds have passed, at least three rounds, medians over rounds. With
--trace 1 it reports the per-layer metrics: rounds of one traced replay per
policy, each bracketed by two untraced ones for the tracing overhead, until
--seconds have passed, medians over rounds.

Every output is checked: each child checks its digests against the input,
repetitions and traced replays must reproduce them bit for bit, and on the
reference seed (and always on exact-resv) they must equal expected.json.
Each metric is printed with its unit, median, quartiles and sample count,
the full results go to DIR/BENCHMARK_results.json (--json, default the work
directory), and the last line of stdout is the JSON summary. The exit code
is 1 if any check failed, 2 if this is not a resa checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

POLICIES = ("fcfs", "cons", "easy", "lsrc")
WORKLOADS = ("swf-replay", "synth-backlog", "resv-alpha", "exact-resv")
REFERENCE_SEED = 4242
EXE = os.path.join("_build", "default", "benchmark", "resabench.exe")
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 5
MIN_ROUNDS = 3
# A run must end within 180 s: no child starts after this many seconds.
DEADLINE_S = 150
CHILD_TIMEOUT_S = 120

SOLVE_COUNTERS = ("bnb.prunes_area", "bnb.prunes_fit", "bnb.prunes_twin",
                  "timeline.checkpoint", "timeline.rollback", "timeline.changes_undone")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# The CPUs the benchmark may use, read before it pins itself to one.
CPUS = sorted(os.sched_getaffinity(0))
# The reference loop's time on an unloaded core of the machine the bounds
# were measured on; every timing is reported in units of it (see below).
REFERENCE_LOOP_S = 0.006


def reference_loop():
    t0 = time.perf_counter()
    x = 0
    for i in range(200_000):
        x += i
    return time.perf_counter() - t0


def calibrate():
    """Pin this process, and so the next child, to the CPU that runs the
    reference loop fastest, and return the loop's best time there.

    On a shared host another tenant loads one core (a child ran 2x slower on
    one vCPU of a 2-vCPU VM than on the other, and which one flipped over
    minutes), and the whole machine drifts by 20-25% over minutes. The loop's
    time tracks a replay's (log-log slope 0.76-0.95, r 0.75-0.83 over 670
    pairs), so timings are scaled by REFERENCE_LOOP_S over it: that halved
    the spread of a repeated replay, 0.18 to 0.09, and kept the medians of
    two ten-seed sets within 6% where unscaled ones drifted by up to 29%."""
    timings = []
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        timings.append((reference_loop(), cpu))
    best, cpu = min(timings)
    os.sched_setaffinity(0, {cpu})
    return min(best, reference_loop(), reference_loop())


class Run:
    """Runs children, counts attempts and failures."""

    def __init__(self, workload, seed, work, started):
        self.workload, self.seed, self.work = workload, seed, work
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.scales = []

    def elapsed(self):
        return time.monotonic() - self.started

    def fail(self, msg, run_failed=True):
        """Record an error; it counts as a failed run unless it only
        follows from one (a metric the failed run did not measure)."""
        self.failed += run_failed
        self.errors.append(msg)
        log("FAILED: " + msg)

    def child(self, *args):
        """One child process; its JSON object, or None if it failed."""
        remaining = DEADLINE_S + 25 - self.elapsed()
        self.attempted += 1
        what = " ".join(args)
        env = dict(os.environ, RESA_DOMAINS="1")
        scale = REFERENCE_LOOP_S / calibrate()
        self.scales.append(scale)
        try:
            p = subprocess.run(
                [EXE, *args], capture_output=True, text=True, env=env,
                timeout=max(1, min(CHILD_TIMEOUT_S, remaining)))
        except subprocess.TimeoutExpired:
            self.fail(f"{what}: timed out")
            return None
        if p.returncode != 0:
            self.fail(f"{what}: exit {p.returncode}: {p.stderr.strip()[-500:]}")
            return None
        try:
            out = json.loads(p.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            self.fail(f"{what}: no JSON result")
            return None
        if out.get("errors"):
            self.fail(f"{what}: " + "; ".join(out["errors"][:5]))
            return None
        if "wall_s" in out:
            out["raw_wall_s"] = out["wall_s"]
            out["wall_s"] *= scale
        if "setup_s" in out:
            out["setup_s"] = [t * scale for t in out["setup_s"]]
        return out

    def step(self, cmd, *extra):
        return self.child(cmd, "--workload", self.workload, "--seed", str(self.seed),
                          "--dir", self.work, *extra)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(samples, value=None):
    """Median (or the given value), quartiles and count of samples."""
    q1, q3 = quartiles(samples)
    return {"value": statistics.median(samples) if value is None else value,
            "median": statistics.median(samples), "q1": q1, "q3": q3,
            "samples": len(samples), "raw": samples}



def check_digests(run, seen, policy, digests):
    """Every replay of a policy reproduces the first one bit for bit."""
    if policy not in seen:
        seen[policy] = digests
    elif digests != seen[policy]:
        run.fail(f"{policy}: replay digests differ between runs of seed {run.seed}")


def check_expected(run, expected, key, got):
    if key not in expected:
        run.fail(f"{key}: no expected value committed")
    elif expected[key] != got:
        run.fail(f"{key}: output differs from benchmark/expected.json")


def setup(run, reps):
    out = run.step("setup", "--reps", str(reps))
    if out is None:
        return None
    return out["setup_s"]


def end_to_end(run, seconds):
    """--trace 0: rounds of one untraced replay per policy until time is up."""
    metrics = {}
    setup_s = setup(run, SETUP_REPS)
    if setup_s is None:
        return metrics, {}
    metrics["setup_s"] = summarize(setup_s)
    walls = {p: [] for p in POLICIES}
    rates = {p: [] for p in POLICIES}
    words = {p: [] for p in POLICIES}
    solves, rss, digests = [], [], {}
    t0 = time.monotonic()
    rounds = 0
    while (rounds < MIN_ROUNDS or time.monotonic() - t0 < seconds) \
            and run.elapsed() < DEADLINE_S:
        # Rotate the order so drift in machine speed spreads over policies.
        order = POLICIES[rounds % 4:] + POLICIES[:rounds % 4]
        for p in order:
            out = run.step("replay", "--policy", p)
            if out is None:
                continue
            check_digests(run, digests, p, out["digests"])
            walls[p].append(out["wall_s"])
            rates[p].append(out["jobs"] / out["wall_s"])
            words[p].append(out["minor_words"] / (2 * out["jobs"]))
            rss.append(out["peak_rss_kb"] / 1024)
        if run.workload == "exact-resv":
            out = run.child("solve")
            if out is not None:
                check_digests(run, digests, "bnb", out["results"])
                solves.append(out["wall_s"])
                rss.append(out["peak_rss_kb"] / 1024)
        rounds += 1
    for p in POLICIES:
        if rates[p]:
            metrics[f"jobs_per_s.{p}"] = summarize(rates[p])
            metrics[f"words_per_event.{p}"] = summarize(words[p])
    if rss:
        metrics["peak_rss_mb"] = summarize(rss, value=max(rss))
    if run.workload == "exact-resv":
        if solves:
            metrics["solve_s"] = summarize(solves)
        if "bnb" in digests:
            for p in POLICIES:
                for i, (d, opt) in enumerate(zip(digests.get(p, []), digests["bnb"])):
                    if int(d["makespan"]) < opt["makespan"]:
                        run.fail(f"{p} beats the proved optimum on instance {i}")
    elif all(walls.values()):
        # The four replays are the solver here: time to all four answers.
        sums = [sum(ws) for ws in zip(*walls.values())]
        metrics["solve_s"] = summarize(
            sums, value=sum(statistics.median(ws) for ws in walls.values()))
    return metrics, digests


def per_layer(run, seconds):
    """--trace 1: rounds of one traced replay per policy, each between two
    untraced ones, until time is up; then the drain and the exact solves.
    Returns every metric's samples."""
    samples, digests = {}, {}
    if setup(run, 1) is None:
        return samples, digests
    t0 = time.monotonic()
    rounds = 0
    while (rounds == 0 or time.monotonic() - t0 < seconds) and run.elapsed() < DEADLINE_S:
        for p in POLICIES:
            before = run.step("replay", "--policy", p)
            traced = run.step("replay", "--policy", p, "--trace")
            after = run.step("replay", "--policy", p)
            plain = [o for o in (before, after) if o is not None]
            for o in plain + [traced]:
                if o is not None:
                    check_digests(run, digests, p, o["digests"])
            if traced is None or not plain:
                continue
            for name, v in traced["layers"].items():
                samples.setdefault(f"{name}.{p}", []).append(v)
            # A ratio of neighbouring runs: the reference scale would only
            # add its own noise.
            untraced = statistics.median(o["raw_wall_s"] for o in plain)
            samples.setdefault(f"trace_overhead.{p}", []).append(
                traced["raw_wall_s"] / untraced - 1)
        rounds += 1
    drain = run.step("drain")
    if drain is not None:
        samples["swf_stream.iso_ns_per_job"] = [drain["ns_per_job"]]
        samples["swf_stream.iso_words_per_job"] = [drain["words_per_job"]]
    bnb = {k: 0 for k in ("bnb.nodes", "bnb.nodes_per_s", "bnb.words_per_node")
           + SOLVE_COUNTERS}
    if run.workload == "exact-resv":
        plain = run.child("solve")
        traced = run.child("solve", "--trace")
        if plain is not None and traced is not None:
            check_digests(run, digests, "bnb", plain["results"])
            check_digests(run, digests, "bnb", traced["results"])
            bnb["bnb.nodes"] = plain["nodes"]
            bnb["bnb.nodes_per_s"] = plain["nodes"] / plain["wall_s"]
            bnb["bnb.words_per_node"] = plain["minor_words"] / plain["nodes"]
            for k in SOLVE_COUNTERS:
                bnb[k] = traced["counters"][k]
    samples.update({k: [v] for k, v in bnb.items()})
    return samples, digests


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--json", metavar="DIR", help="where BENCHMARK_results.json goes")
    args = ap.parse_args()
    started = time.monotonic()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        log("run.py: run me from the root of a resa source checkout "
            "(dune-project and lib/ not found)")
        return 2
    log("building benchmark/resabench.exe")
    # The shared dune cache lives outside the checkout; build without it.
    build = subprocess.run(["dune", "build", "--root", ".", "--cache=disabled",
                            "benchmark/resabench.exe"], stdout=sys.stderr)
    if build.returncode != 0:
        log("run.py: build failed")
        return 2

    with open("BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    work = os.path.join(".bench_work", f"{args.workload}-{args.seed}")
    os.makedirs(work, exist_ok=True)
    run = Run(args.workload, args.seed, work, started)
    if args.trace:
        samples, digests = per_layer(run, args.seconds)
        metrics = {k: summarize(v) for k, v in samples.items()}
    else:
        metrics, digests = end_to_end(run, args.seconds)
    for name in sorted(set(units) - set(metrics)):
        run.fail(f"{name}: declared in BENCHMARK.json but not measured", run_failed=False)
    for name in sorted(set(metrics) - set(units)):
        run.fail(f"{name}: measured but not declared in BENCHMARK.json", run_failed=False)
        del metrics[name]
    for name, m in metrics.items():
        m["unit"] = units[name]

    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)[args.workload]
    if args.workload == "exact-resv" or args.seed == REFERENCE_SEED:
        for key, got in digests.items():
            check_expected(run, expected, key, got)

    for name, m in sorted(metrics.items()):
        print(f"{name:36s} {m['value']:>14.6g} {m['unit']:12s} median {m['median']:.6g}"
              f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['samples']}")
    results = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "seconds": round(run.elapsed(), 3), "attempted": run.attempted,
               "failed": run.failed, "errors": run.errors, "metrics": metrics,
               "digests": digests, "time_scales": run.scales}
    out_dir = args.json or work
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "BENCHMARK_results.json"), "w") as f:
        json.dump(results, f, indent=1)
    print(json.dumps({
        "correct": not run.errors,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0 if not run.errors else 1


if __name__ == "__main__":
    sys.exit(main())
