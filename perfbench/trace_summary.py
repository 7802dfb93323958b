#!/usr/bin/env python3
"""Per-layer summary of a traced perfbench run.

    python3 perfbench/run.py --workload duel --trace 1 --spans duel.json
    python3 perfbench/trace_summary.py duel.json [overhead.json ...]

A traced report (perfbench_loadgen --trace) holds one untraced and one
traced pass over the same fixed inputs. The traced pass has spans around
every call the load generator makes (name "<layer>.<what>", one trace id
per trial, parent links) and the program's own counters per trial
(MetricsRegistry, Engine accessors, CampaignOutcome). This module turns
them into the per-layer metrics of BENCHMARK.json; counts are per trial.

Layer self time is a span's duration minus the time its child spans
cover. Spans wrap only calls the load generator makes, so self time
inside `sim.run` (Engine::run_* through DuelTrial::advance or run_suite) holds
the attack, os, RNG, secure and hw work of the simulated system together;
the counters, not the clock, tell those layers apart.
"""
import json
import statistics
import sys

# Per-layer metric -> unit; summarize() returns every one of them, with 0
# where the workload does not exercise the layer.
UNITS = {
    "sim.run_s_p50": "s",
    "sim.events_per_trial": "count",
    "sim.ns_per_event": "ns",
    "sim.queue_high_water": "count",
    "sim.idle_share": "ratio",
    "attack.probe_rounds": "count",
    "attack.detections": "count",
    "attack.probe_rounds_per_detection": "ratio",
    "scenario.build_s_p50": "s",
    "scenario.duel_setup_s_p50": "s",
    "scenario.finish_s_p50": "s",
    "scenario.setup_share": "ratio",
    "core.setup_s_p50": "s",
    "core.rounds": "count",
    "core.retries": "count",
    "core.transient_alarms": "count",
    "core.benign_confirmed_alarms": "count",
    "secure.bytes_scanned": "B",
    "secure.bytes_hashed": "B",
    "secure.hashed_share": "ratio",
    "secure.bypasses": "count",
    "hw.world_switches": "count",
    "hw.secure_entries": "count",
    "os.context_switches": "count",
    "os.ticks": "count",
    "workload.iterations": "count",
    "fault.injected": "count",
    "fault.bits_flipped": "count",
    "campaign.parse_s": "s",
    "campaign.run_s": "s",
    "campaign.trial_inproc_s_p50": "s",
    "campaign.dispatch_s_per_trial": "s",
    "campaign.journal_bytes": "B",
    "campaign.artifact_bytes": "B",
    "campaign.retries": "count",
    "campaign.workers_spawned": "count",
    "obs.trace_overhead": "ratio",
    "bench.self_s_per_trial": "s",
    "scenario.self_s_per_trial": "s",
    "core.self_s_per_trial": "s",
    "workload.self_s_per_trial": "s",
    "sim.self_s_per_trial": "s",
    "campaign.self_s_per_trial": "s",
}

# metric -> program counter (per-trial mean)
COUNTER_OF = {
    "attack.probe_rounds": "attack.probe_rounds",
    "attack.detections": "attack.detections",
    "core.rounds": "satin.rounds",
    "core.retries": "satin.retries",
    "core.transient_alarms": "satin.transient_alarms",
    "secure.bytes_scanned": "introspect.bytes_scanned",
    "secure.bytes_hashed": "digest_cache.bytes_hashed",
    "secure.bypasses": "digest_cache.bypasses",
    "hw.world_switches": "hw.world_switches",
    "hw.secure_entries": "hw.secure_entries",
    "os.context_switches": "os.context_switches",
    "os.ticks": "os.ticks",
    "fault.injected": "fault.injected",
    "fault.bits_flipped": "fault.bits_flipped",
}

SETUP_SPANS = ("scenario.build", "scenario.duel_setup", "core.setup",
               "workload.setup")


def median_or_zero(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def span_durations(spans, name):
    return [s["t1"] - s["t0"] for s in spans if s["name"] == name]


def layer_self_times(spans):
    """Sum of self time per layer over spans (several traces allowed)."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault((s["trace"], s["parent"]), []).append(s)
    totals = {}
    for s in spans:
        covered = 0.0
        cursor = s["t0"]
        for c in sorted(children.get((s["trace"], s["id"]), []),
                        key=lambda c: c["t0"]):
            start, end = max(c["t0"], cursor), min(c["t1"], s["t1"])
            if end > start:
                covered += end - start
                cursor = end
        layer = s["name"].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + (s["t1"] - s["t0"]) - covered
    return totals


def campaign_benign_alarms(report):
    """Confirmed alarms outside the target area, summed over campaigns."""
    total = 0
    for key in ("measured", "untraced", "traced"):
        for c in report.get(key, {}).get("campaigns", []):
            if c.get("stats"):
                total += c["stats"]["aggregate"]["benign_confirmed_alarms"]
    return total


def _trial_summary(report, m):
    jobs = report["jobs"]
    untraced, traced = report["untraced"], report["traced"]
    trials = traced["trials"]
    n = len(trials)
    spans = [s for t in trials for s in t.get("spans", [])]
    counters = [t.get("counters", {}) for t in trials]

    def mean_counter(name):
        return sum(c.get(name, 0.0) for c in counters) / n

    for metric, counter in COUNTER_OF.items():
        m[metric] = mean_counter(counter)
    m["core.benign_confirmed_alarms"] = mean_counter("core.benign_confirmed_alarms")
    m["workload.iterations"] = mean_counter("workload.iterations")

    run = span_durations(spans, "sim.run")
    events = sum(c.get("engine.events_fired", 0.0) for c in counters)
    m["sim.run_s_p50"] = median_or_zero(run)
    m["sim.events_per_trial"] = events / n
    m["sim.ns_per_event"] = ratio(sum(run), events) * 1e9
    m["sim.queue_high_water"] = max(c.get("engine.queue_high_water", 0.0)
                                    for c in counters)
    busy = sum(t["t1"] - t["t0"] for t in untraced["trials"])
    m["sim.idle_share"] = 1.0 - ratio(busy, jobs * (untraced["t1"] - untraced["t0"]))

    m["scenario.build_s_p50"] = median_or_zero(span_durations(spans, "scenario.build"))
    m["scenario.duel_setup_s_p50"] = median_or_zero(
        span_durations(spans, "scenario.duel_setup"))
    m["scenario.finish_s_p50"] = median_or_zero(
        span_durations(spans, "scenario.finish"))
    m["core.setup_s_p50"] = median_or_zero(span_durations(spans, "core.setup"))
    shares = []
    for t in trials:
        setup = sum(s["t1"] - s["t0"] for s in t.get("spans", [])
                    if s["name"] in SETUP_SPANS)
        shares.append(ratio(setup, t["t1"] - t["t0"]))
    m["scenario.setup_share"] = statistics.fmean(shares)

    m["obs.trace_overhead"] = ratio(traced["t1"] - traced["t0"],
                                    untraced["t1"] - untraced["t0"]) - 1.0
    for layer, total in layer_self_times(spans).items():
        m[f"{layer}.self_s_per_trial"] = total / n


def _campaign_summary(report, m):
    jobs = report["jobs"]
    untraced, traced = report["untraced"], report["traced"]
    campaigns = traced["campaigns"]
    trials = sum(c["completed"] for c in campaigns)
    spans = [s for c in campaigns for s in c.get("spans", [])]
    replays = [r for c in campaigns for r in c.get("replays", [])]

    for metric, counter in COUNTER_OF.items():
        m[metric] = sum(c.get("counters", {}).get(counter, 0.0)
                        for c in campaigns) / trials
    m["core.benign_confirmed_alarms"] = campaign_benign_alarms(
        {"traced": traced}) / trials

    inproc = [r["t1"] - r["t0"] for r in replays]
    events = sum(r["events"] for r in replays)
    run_s = median_or_zero(span_durations(spans, "campaign.run"))
    per_campaign = trials / len(campaigns)
    m["campaign.parse_s"] = median_or_zero(span_durations(spans, "campaign.parse"))
    m["campaign.run_s"] = run_s
    m["campaign.trial_inproc_s_p50"] = median_or_zero(inproc)
    m["campaign.dispatch_s_per_trial"] = (run_s * jobs / per_campaign
                                          - m["campaign.trial_inproc_s_p50"])
    m["campaign.journal_bytes"] = sum(c["journal_bytes"] for c in campaigns) / trials
    m["campaign.artifact_bytes"] = sum(c["artifact_bytes"] for c in campaigns) / trials
    m["campaign.retries"] = statistics.fmean(c["retries"] for c in campaigns)
    m["campaign.workers_spawned"] = statistics.fmean(
        c["workers_spawned"] for c in campaigns)

    # The engine runs in worker processes; the in-process replays are the
    # only trials the load generator can time, so the sim figures come from them.
    m["sim.run_s_p50"] = m["campaign.trial_inproc_s_p50"]
    m["sim.events_per_trial"] = ratio(events, len(replays))
    m["sim.ns_per_event"] = ratio(sum(inproc), events) * 1e9
    m["sim.queue_high_water"] = max((r["queue_high_water"] for r in replays),
                                    default=0.0)
    m["sim.idle_share"] = 1.0 - ratio(per_campaign * m["sim.run_s_p50"],
                                      jobs * run_s)

    plain = sum(c["t1"] - c["t0"] for c in untraced["campaigns"])
    m["obs.trace_overhead"] = ratio(sum(c["t1"] - c["t0"] for c in campaigns),
                                    plain) - 1.0
    for layer, total in layer_self_times(spans).items():
        m[f"{layer}.self_s_per_trial"] = total / trials


def summarize(report):
    """Per-layer metrics (dict name -> value) of one traced report."""
    m = {name: 0.0 for name in UNITS}
    if report["workload"] == "fault_campaign":
        _campaign_summary(report, m)
    else:
        _trial_summary(report, m)
    m["attack.probe_rounds_per_detection"] = ratio(m["attack.probe_rounds"],
                                                   m["attack.detections"])
    m["secure.hashed_share"] = ratio(m["secure.bytes_hashed"],
                                     m["secure.bytes_scanned"])
    unknown = set(m) - set(UNITS)
    if unknown:
        raise ValueError(f"unnamed per-layer metrics: {sorted(unknown)}")
    return m


def main(paths):
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    reports = [json.load(open(p)) for p in paths]
    summaries = [summarize(r) for r in reports]
    names = [r["workload"] for r in reports]
    width = max(len(n) for n in UNITS)
    print(f"{'metric':<{width}} {'unit':<6} " + " ".join(f"{n:>16}" for n in names))
    for metric, unit in UNITS.items():
        row = " ".join(f"{s[metric]:>16.6g}" for s in summaries)
        print(f"{metric:<{width}} {unit:<6} {row}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
