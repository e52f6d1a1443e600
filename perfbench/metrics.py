"""Arithmetic of the host-time benchmark.

Turns what one campaign left behind (the result JSONL of `archgraph_sweep run
--out`, its `--events-out` log, and the process wall/CPU/RSS the runner
measured from outside) and the trace program's summary into the benchmark's
metrics. Everything here is a pure function of parsed data, so
test_metrics.py can check it on a tiny fixed fixture.
"""

import json
import statistics

MACHINES = ("mta", "smp", "gpu")


def read_jsonl(path):
    """Parses a JSONL file. A torn final line (a run killed mid-write) is
    dropped; a malformed line anywhere else raises ValueError."""
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().split("\n") if line.strip()]
    rows = []
    for i, line in enumerate(lines):
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as e:
            if i == len(lines) - 1:
                break
            raise ValueError(f"{path}:{i + 1}: {e}") from e
    return rows


def ledger_closes(record):
    """The cycle-accounting invariant: every processor-cycle slot of the cell
    is attributed to exactly one acct_* category."""
    attributed = sum(v for k, v in record.items() if k.startswith("acct_"))
    return attributed == record["procs"] * record["cycles"]


def record_ok(record):
    return bool(record.get("verified")) and ledger_closes(record)


def campaign_metrics(planned_ids, records, events, wall_s, cpu_s, rss_kb):
    """Metrics of one untraced campaign.

    planned_ids: run IDs the plan holds, in plan order.
    records: parsed result JSONL; events: parsed --events-out log.
    wall_s, cpu_s, rss_kb: the sweep process's wall-clock, user+sys CPU and
    peak resident set, measured by the caller.

    A planned cell counts as done when it has a record that was self-checked
    (`verified`) and closes its cycle ledger, and a cell_finished event.
    Every other planned cell is failed (aborted, missing or wrong); `bad`
    counts the records that exist but fail the checks or were not planned.
    """
    finished = {e["run_id"]: e["host_seconds"] for e in events
                if e["event"] == "cell_finished"}
    by_id = {r["run_id"]: r for r in records}
    planned = set(planned_ids)
    bad = sum(1 for rid, r in by_id.items()
              if rid not in planned or not record_ok(r))
    done = [rid for rid in planned_ids
            if rid in finished and rid in by_id and record_ok(by_id[rid])]

    # The cell loop spans the first cell_started to run_finished (or the last
    # event, when the run aborted). Everything else in the process's wall is
    # per-campaign fixed cost: process start, spec expansion, run_plan
    # set-up, manifest write and exit. Input generation happens inside the
    # loop but is set-up work too, so it is added back.
    starts = [e["ts_us"] for e in events if e["event"] == "cell_started"]
    ends = [e for e in events if e["event"] == "run_finished"]
    loop_s = 0.0
    if starts:
        end_us = ends[0]["ts_us"] if ends else max(e["ts_us"] for e in events)
        loop_s = (end_us - min(starts)) / 1e6
    gen_s = sum(e["seconds"] for e in events
                if e["event"] == "input_generated")
    jobs = next((e["jobs"] for e in events if e["event"] == "run_started"), 1)
    plan_s = ends[0]["host_seconds"] if ends else loop_s
    cell_s = sum(finished[rid] for rid in done)
    return {
        "attempted": len(planned_ids),
        "failed": len(planned_ids) - len(done),
        "bad": bad,
        "metrics": {
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "setup_s": wall_s - loop_s + gen_s,
            "peak_rss_mb": rss_kb / 1024.0,
        },
        "cells": {rid: (by_id[rid]["arch"], by_id[rid]["instructions"],
                        finished[rid]) for rid in done},
        "cell_s": cell_s,
        "worker_busy_frac": cell_s / (jobs * plan_s) if plan_s > 0 else 0.0,
    }


def ns_per_instr(campaigns):
    """Host ns per simulated instruction on each machine, over campaigns of
    one plan: each cell's median host seconds across the campaigns (which
    drops a cell slowed by a burst of host noise in one campaign), summed per
    machine, over the machine's summed simulated instructions (GPU:
    warp-instructions). None for a machine with no finished cell."""
    cells = {}
    for c in campaigns:
        for rid, (arch, instructions, seconds) in c["cells"].items():
            cells.setdefault(rid, (arch, instructions, []))[2].append(seconds)
    seconds = dict.fromkeys(MACHINES, 0.0)
    instructions = dict.fromkeys(MACHINES, 0)
    for arch, instr, samples in cells.values():
        seconds[arch] += statistics.median(samples)
        instructions[arch] += instr
    return {"ns_per_instr." + m: 1e9 * seconds[m] / instructions[m]
            if instructions[m] else None for m in MACHINES}


def trace_mismatches(traced_records, traced_summary, untraced_records):
    """Why the traced run does not describe the untraced one: every cell's
    cycles and instructions must be equal, and so must the trace program's
    per-machine sums. Returns a list of problems (empty when consistent)."""
    def counts(records):
        return {r["run_id"]: (r["cycles"], r["instructions"]) for r in records}

    problems = []
    traced, untraced = counts(traced_records), counts(untraced_records)
    for rid in sorted(set(traced) | set(untraced)):
        if traced.get(rid) != untraced.get(rid):
            problems.append(f"{rid}: traced (cycles, instructions) "
                            f"{traced.get(rid)} != untraced {untraced.get(rid)}")
    for m in MACHINES:
        arch = [r for r in untraced_records if r["arch"] == m]
        summary = traced_summary["machines"][m]
        for key in ("cycles", "instructions"):
            want = sum(r[key] for r in arch)
            if summary[key] != want:
                problems.append(f"sim.{m}.{key}: traced sum {summary[key]} "
                                f"!= untraced JSONL sum {want}")
    return problems


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summary, trace_wall_s, untraced):
    """Per-layer metrics of one traced run.

    summary: the JSON object perfbench_trace printed; trace_wall_s: its
    process wall-clock; untraced: campaign_metrics() of the untraced run of
    the same plan (for the worker busy fraction and the trace overhead).
    """
    layers = summary["layers"]
    out = {
        "graph.gen_s": layers["graph.gen_s"],
        "graph.inputs": layers["graph.inputs"],
        "sim.build_s": layers["sim.build_s"],
    }
    region_s = 0.0
    for m in MACHINES:
        s = summary["machines"][m]
        region_s += s["region_s"]
        out[f"sim.{m}.region_s"] = s["region_s"]
        out[f"sim.{m}.ns_per_region_instr"] = 1e9 * ratio(s["region_s"],
                                                          s["instructions"])
        for key in ("instructions", "cycles", "memory_ops", "regions",
                    "threads", "barriers"):
            out[f"sim.{m}.{key}"] = s[key]
    smp = summary["machines"]["smp"]
    accesses = smp["l1_hits"] + smp["l2_hits"] + smp["mem_fills"]
    out["sim.smp.l1_hit_ratio"] = ratio(smp["l1_hits"], accesses)
    out["sim.smp.fill_ratio"] = ratio(smp["mem_fills"], accesses)
    out["core.host_s"] = layers["core.host_s"]
    out["core.verify_s"] = layers["core.verify_s"]
    out["sweep.expand_s"] = layers["sweep.expand_s"]
    out["sweep.emit_s"] = layers["sweep.emit_s"]
    out["sweep.worker_busy_frac"] = untraced["worker_busy_frac"]

    self_s = (layers["sweep.expand_s"] + layers["graph.gen_s"] +
              layers["sim.build_s"] + region_s + layers["core.host_s"] +
              layers["core.verify_s"] + layers["sweep.emit_s"])
    # The scope the runner's per-cell host_seconds covers: machine build,
    # kernel run with self-check.
    cell_s = (layers["sim.build_s"] + region_s + layers["core.host_s"] +
              layers["core.verify_s"])
    out["trace.wall_s"] = trace_wall_s
    out["trace.overhead_frac"] = ratio(cell_s, untraced["cell_s"]) - 1.0
    out["unattributed_s"] = trace_wall_s - self_s
    return out


def median_metrics(runs):
    """Per-metric median over several runs' metric dicts."""
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}
