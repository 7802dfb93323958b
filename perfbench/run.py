#!/usr/bin/env python3
"""SATIN simulator benchmark: one workload per run, checked and timed.

    python3 perfbench/run.py --workload duel --seed 0 --seconds 20 --trace 0

Builds perfbench_loadgen (perfbench/CMakeLists.txt) into .bench_build/ under
the checkout, generates the run's inputs from --seed, runs the loadgen,
checks every trial's fingerprint against perfbench/reference.json and
prints the metrics. The last line of stdout is one JSON object:

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(perfbench/trace_summary.py). The lines above it give every metric with
its unit and the run's provenance. Exit status: 0 when every trial
matched its reference, 1 on any mismatch or failed trial, 2 when the
benchmark cannot run (no source tree, build failure, refused build).

Other modes:
    --record        re-record perfbench/reference.json from this tree
    --self-test     negative control: a tampered reference must fail
See perfbench/README.md for workloads, metrics and what they can show.
"""
import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "tmp"   # nothing is written outside the checkout
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import trace_summary  # noqa: E402

WORKLOADS = ("duel", "overhead", "fault_campaign")
REFERENCE = HERE / "reference.json"

# Input pools. A run draws its inputs from its workload's pool in an order
# shuffled by --seed; every pool entry has a recorded fingerprint, so every
# trial of every seed is checked.
DUEL_POOL = 24                     # duel trial seeds
OVERHEAD_GROUPS = 32               # seeds; each runs all four shapes below
OVERHEAD_SHAPES = ((0, 1), (1, 1), (0, 6), (1, 6))  # (with SATIN, tasks)
CAMPAIGN_POOL = 12                 # campaign specs
CAMPAIGN_TRIALS = 3                # trials per campaign
FAULT_PLAN = "seed={},bitflip@10s+60s:p=0.12"

# Traced runs execute a fixed input set so their per-trial counts repeat.
TRACED_COUNT = {"duel": 3, "overhead": 24, "fault_campaign": 1}

SETUP_REPEATS = 15                 # extra set-up-only launches per run
PAPER_DEGRADATION = {1: 0.00711, 6: 0.00848}   # §VI-B2, 1 and 6 tasks

E2E_UNITS = {"trials_per_s": "1/s", "cpu_s_per_trial": "s",
             "trial_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark cannot run (exit 2, no result line)."""


def pool_seed(label, k):
    digest = hashlib.sha256(f"perfbench/{label}/{k}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def jobs_for(nproc):
    """Trial workers: leave one CPU for the loadgen and the OS, at most 3."""
    return max(1, min(3, nproc - 1))


# ---------------------------------------------------------------------------
# Build

def build_loadgen():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no SATIN source tree next to {HERE}")
    SCRATCH.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(SCRATCH))  # compiler temporaries
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_loadgen",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      env=env).returncode:
        raise BenchError("build failed")
    return BUILD_DIR / "perfbench_loadgen"


# ---------------------------------------------------------------------------
# Inputs

def campaign_spec(k):
    return {
        "name": f"perfbench-{k}",
        "trials": CAMPAIGN_TRIALS,
        "root_seed": pool_seed("fault_campaign/root", k) % 10**12,
        "max_retries": 2,
        "satin": {"resilience": {"watchdog": True, "max_scan_retries": 2}},
        "duel": {"rounds_target": 19},
        "faults": FAULT_PLAN.format(pool_seed("fault_campaign/plan", k) % 10**9),
        "faults_reseed": True,
    }


def pool_order(workload, seed, shuffle=True):
    size = {"duel": DUEL_POOL, "overhead": OVERHEAD_GROUPS,
            "fault_campaign": CAMPAIGN_POOL}[workload]
    order = list(range(size))
    if shuffle:
        random.Random(f"{workload}/{seed}").shuffle(order)
    return order


def write_inputs(workload, order, tmp):
    """Writes the loadgen's input file; returns its path."""
    lines = []
    if workload == "duel":
        for k in order:
            lines.append(f"{k} {pool_seed('duel', k):016x}")
    elif workload == "overhead":
        for g in order:
            seed = pool_seed("overhead", g)
            for shape, (satin, tasks) in enumerate(OVERHEAD_SHAPES):
                lines.append(f"{g * len(OVERHEAD_SHAPES) + shape} {seed:016x} "
                             f"{satin} {tasks}")
    else:
        for k in order:
            spec = tmp / f"spec-{k}.json"
            spec.write_text(json.dumps(campaign_spec(k), indent=1) + "\n")
            lines.append(f"{k} {spec}")
    path = tmp / "inputs.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# Load generator runs

def run_loadgen(loadgen, workload, inputs, tmp, jobs, extra, name):
    out = tmp / f"{name}.json"
    cmd = [str(loadgen), f"--workload={workload}", f"--inputs={inputs}",
           f"--out={out}", f"--tmp={tmp}", f"--jobs={jobs}", *extra]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd + [f"--t-spawn={t_spawn:.9f}"],
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode == 3:
        raise BenchError("loadgen refused this build (see above)")
    if proc.returncode != 0 or not out.is_file():
        raise BenchError(f"loadgen exited with status {proc.returncode}")
    return json.loads(out.read_text())


def measure_setup(loadgen, workload, inputs, tmp, jobs, seconds):
    samples = []
    for n in range(SETUP_REPEATS):
        report = run_loadgen(loadgen, workload, inputs, tmp, jobs,
                            [f"--seconds={seconds}", "--setup-only"],
                            f"setup-{n}")
        samples.append(report["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# Checks

def check_trials(workload, trials, reference):
    """Returns the failed trial records (error or fingerprint mismatch)."""
    ref = reference.get(workload, {})
    return [t for t in trials
            if not t["ok"] or ref.get(str(t["entry"]), {}).get("fp") != t["fp"]]


def check_campaign(campaign, reference):
    """Returns how many of the campaign's trials failed their checks."""
    ref = reference.get("fault_campaign", {}).get(str(campaign["entry"]))
    trials = campaign["trials"] or CAMPAIGN_TRIALS
    if (ref is None or not campaign["ok"] or campaign["degraded"]
            or campaign["failed_trials"]
            or campaign["completed"] != campaign["trials"]
            or campaign["stats_fp"] != ref["stats"]):
        return trials
    bad = sum(1 for i, fp in ref["trials"].items()
              if campaign["trial_fps"].get(i) != fp)
    for replay in campaign.get("replays", []):
        if replay["error"] or replay["fp"] != campaign["trial_fps"].get(
                str(replay["i"])):
            bad += 1
    return min(bad, trials)


def check_report(workload, report, reference):
    """(attempted, failed) over every pass in the report."""
    attempted = failed = 0
    for key in ("measured", "untraced", "traced"):
        if key not in report:
            continue
        if workload == "fault_campaign":
            for c in report[key]["campaigns"]:
                attempted += c["trials"] or CAMPAIGN_TRIALS
                failed += check_campaign(c, reference)
        else:
            trials = report[key]["trials"]
            attempted += len(trials)
            failed += len(check_trials(workload, trials, reference))
    return attempted, failed


# ---------------------------------------------------------------------------
# End-to-end metrics

def trial_weights(workload, reference):
    """Pool entry -> its size in standard trials: the entry's simulated
    seconds over the pool mean. Seeds draw longer or shorter duels; counting
    in standard trials keeps that draw out of the per-trial metrics."""
    sim = {int(k): v["sim_s"] for k, v in reference[workload].items()}
    mean = statistics.fmean(sim.values())
    if workload == "fault_campaign":
        mean /= CAMPAIGN_TRIALS  # per trial, so a campaign weighs ~6
    return {k: v / mean for k, v in sim.items()}


def windowed_trials(items, t_start, seconds):
    """Trials done inside [t_start, t_start + seconds]: each item counts
    the share of its (t0, t1, trials) span that lies in the window."""
    t_end = t_start + seconds
    done = 0.0
    for t0, t1, n in items:
        overlap = max(0.0, min(t1, t_end) - max(t0, t_start))
        done += n * overlap / (t1 - t0) if t1 > t0 else 0.0
    return done


def overhead_degradation(trials):
    """Mean overall degradation per task count over distinct seeds."""
    runs = {}
    for t in trials:
        group = t["entry"] // len(OVERHEAD_SHAPES)
        runs[(group, t["copies"], t["satin"])] = t["iters"]
    per_tasks = {}
    for (group, tasks, satin), iters in runs.items():
        base = runs.get((group, tasks, 0))
        if satin != 1 or base is None:
            continue
        degr = [1.0 - on / off for on, off in zip(iters, base)]
        per_tasks.setdefault(tasks, []).append(sum(degr) / len(degr))
    return {tasks: statistics.fmean(v) for tasks, v in per_tasks.items()}


def end_to_end(workload, report, seconds, setup_samples, reference):
    measured = report["measured"]
    weight = trial_weights(workload, reference)
    if workload == "fault_campaign":
        # A campaign entry's weight covers all its trials. A trial runs
        # single-threaded inside a worker, so the workers' CPU per trial is
        # its host time from first call to result.
        items = [(c["t0"], c["t1"], weight[c["entry"]])
                 for c in measured["campaigns"]]
        trial_p50 = statistics.median(c["worker_cpu_s"] / weight[c["entry"]]
                                      for c in measured["campaigns"])
    else:
        ts = measured["trials"]
        items = [(t["t0"], t["t1"], weight[t["entry"]]) for t in ts]
        sized = [(t, (t["t1"] - t["t0"]) / weight[t["entry"]]) for t in ts]
        if workload == "overhead":
            shapes = {}
            for t, d in sized:
                shapes.setdefault((t["satin"], t["copies"]), []).append(d)
            trial_p50 = statistics.fmean(
                statistics.median(v) for v in shapes.values())
        else:
            trial_p50 = statistics.median(d for _, d in sized)
    trials = sum(n for _, _, n in items)
    return {
        "trials_per_s": windowed_trials(items, measured["t0"], seconds) / seconds,
        "cpu_s_per_trial": report["cpu_s"] / trials,
        "trial_s_p50": trial_p50,
        "setup_s": statistics.median(setup_samples + [report["setup_s"]]),
        "peak_rss_mb": max(report["maxrss_self_kb"],
                           report["maxrss_children_kb"]) / 1024.0,
    }


def informational(workload, report):
    """Named end-to-end metrics that are not in BENCHMARK.json (printed)."""
    lines = []
    measured = report["measured"]
    if workload != "fault_campaign":
        durations = [t["t1"] - t["t0"] for t in measured["trials"]]
        n = len(durations)
        if n >= 100:
            value = statistics.quantiles(durations, n=10)[8]
            lines.append(f"trial_s_p90 {value:.6f} s (n={n})")
        else:
            lines.append(f"trial_s_p90 n/a s (n={n} < 100)")
    if workload == "overhead":
        degr = overhead_degradation(measured["trials"])
        errs = [abs(degr[t] - p) / p for t, p in PAPER_DEGRADATION.items()
                if t in degr]
        for tasks in sorted(degr):
            lines.append(f"overall_degradation_{tasks}task "
                         f"{100 * degr[tasks]:.4f} % "
                         f"(paper {100 * PAPER_DEGRADATION[tasks]:.3f} %)")
        if errs:
            lines.append(f"paper_rel_err {statistics.fmean(errs):.6f} -")
    else:
        lines.append("paper_rel_err n/a - (overhead workload only)")
    return lines


# ---------------------------------------------------------------------------
# Provenance

def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def provenance(report, args, nproc, jobs):
    p = dict(report["provenance"])
    p.update({"git_commit": git_commit(), "src_sha256": source_digest(),
              "nproc": nproc, "jobs": jobs, "seed": args.seed,
              "workload": args.workload, "seconds": args.seconds,
              "trace": args.trace})
    return p


# ---------------------------------------------------------------------------
# Modes

def bench(args, loadgen, tmp, reference, nproc, jobs):
    inputs = write_inputs(args.workload, pool_order(args.workload, args.seed), tmp)
    if args.trace:
        count = TRACED_COUNT[args.workload]
        report = run_loadgen(loadgen, args.workload, inputs, tmp, jobs,
                            ["--trace", f"--trials={count}"], "traced")
        metrics = trace_summary.summarize(report)
        units = trace_summary.UNITS
        if args.spans:
            Path(args.spans).write_text(json.dumps(report) + "\n")
    else:
        setup = measure_setup(loadgen, args.workload, inputs, tmp, jobs,
                              args.seconds)
        report = run_loadgen(loadgen, args.workload, inputs, tmp, jobs,
                            [f"--seconds={args.seconds}"], "measured")
        metrics = end_to_end(args.workload, report, args.seconds, setup,
                             reference)
        units = E2E_UNITS
        for line in informational(args.workload, report):
            print(line)
    attempted, failed = check_report(args.workload, report, reference)
    print(f"provenance {json.dumps(provenance(report, args, nproc, jobs))}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"fail_ratio {failed / max(attempted, 1):.6g} -")
    if args.workload == "fault_campaign":
        benign = trace_summary.campaign_benign_alarms(report)
        print(f"core.benign_confirmed_alarms {benign} count (all trials)")
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def record(args, loadgen, tmp, jobs):
    """Runs every pool entry once and writes reference.json (all
    workloads, or only --workload's entry when one is given)."""
    reference = {"schema": "perfbench-reference/1"}
    if args.workload and REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text())
    for workload in [args.workload] if args.workload else WORKLOADS:
        order = pool_order(workload, 0, shuffle=False)
        inputs = write_inputs(workload, order, tmp)
        count = len(order) * (len(OVERHEAD_SHAPES) if workload == "overhead" else 1)
        log(f"recording {workload}: {count} inputs")
        report = run_loadgen(loadgen, workload, inputs, tmp, jobs,
                            [f"--trials={count}"], f"record-{workload}")
        if workload == "fault_campaign":
            entries = {}
            for c in report["measured"]["campaigns"]:
                if not c["ok"] or c["degraded"] or c["failed_trials"]:
                    raise BenchError(f"campaign {c['entry']} failed: {c['error']}")
                entries[str(c["entry"])] = {
                    "stats": c["stats_fp"], "trials": c["trial_fps"],
                    "sim_s": c["stats"]["aggregate"]["sim_seconds_total"]}
        else:
            entries = {}
            for t in report["measured"]["trials"]:
                if not t["ok"]:
                    raise BenchError(f"{workload} entry {t['entry']}: {t['error']}")
                entries[str(t["entry"])] = {"fp": t["fp"], "sim_s": t["sim_s"]}
        reference[workload] = dict(sorted(entries.items(), key=lambda e: int(e[0])))
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    log(f"wrote {REFERENCE}")
    return 0


def self_test(loadgen, tmp, reference, jobs):
    """A tampered reference must make a run fail (fail_ratio > 0, exit 1)."""
    tampered = json.loads(json.dumps(reference))
    for k in tampered["overhead"]:
        tampered["overhead"][k]["fp"] = "0" * 16
        break
    order = pool_order("overhead", 0, shuffle=False)
    inputs = write_inputs("overhead", order, tmp)
    report = run_loadgen(loadgen, "overhead", inputs, tmp, jobs,
                        ["--trials=4"], "self-test")
    attempted, failed = check_report("overhead", report, tampered)
    _, clean_failed = check_report("overhead", report, reference)
    ok = failed > 0 and clean_failed == 0
    log(f"self-test: tampered reference -> {failed}/{attempted} failed, "
        f"true reference -> {clean_failed} failed: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="with --trace 1: keep the raw traced "
                    "report (spans and counters) at this path")
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.record or args.self_test):
        ap.error("--workload is required")

    # On SIGTERM, unwind: subprocess.run kills and reaps the load generator
    # and the finally clause removes the run's scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    nproc = len(os.sched_getaffinity(0))
    jobs = jobs_for(nproc)
    try:
        loadgen = build_loadgen()
        tmp = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
        try:
            if args.record:
                return record(args, loadgen, tmp, jobs)
            reference = json.loads(REFERENCE.read_text())
            if args.self_test:
                return self_test(loadgen, tmp, reference, jobs)
            return bench(args, loadgen, tmp, reference, nproc, jobs)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
