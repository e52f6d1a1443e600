#!/usr/bin/env python3
"""Host-time benchmark for archgraph's three simulators.

    python3 perfbench/run.py [--workload cc_fig2|lr_fig1|kernel_mix|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a repository checkout. The first run builds the library,
the shipped `archgraph_sweep` CLI and the trace program into .bench_build/
(perfbench/CMakeLists.txt); later runs reuse that build.

--trace 0 (end-to-end): runs the workload's pinned campaign through
`archgraph_sweep run ... --out --events-out` in a closed loop, one campaign
after another, until --seconds is spent, and reports the median over the
campaigns of wall_s, cpu_s, setup_s and peak_rss_mb, and host ns per
simulated instruction on each machine from each cell's median host time.

--trace 1 (per layer): runs the campaign once untraced, then once through
perfbench_trace (serial, each layer timed from outside), checks that both
runs simulated exactly the same cycles and instructions, and reports the
per-layer metrics.

Every campaign self-checks every cell; a cell counts as failed unless its
record is `verified`, closes its cycle ledger and has a cell_finished event.
The last line of stdout is one JSON object: correct, attempted, failed
(cells) and metrics. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import metrics
from workloads import DEFAULT_SEED, WORKLOADS, specs_for

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
OUT = BUILD / "perfbench"
# One campaign may take at most this long before it is killed; the whole
# run must end within 180 s.
PROCESS_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ns_per_instr.mta": "ns",
    "ns_per_instr.smp": "ns",
    "ns_per_instr.gpu": "ns",
}

PER_LAYER_UNITS = {
    "graph.gen_s": "s",
    "graph.inputs": "count",
    "sim.build_s": "s",
    **{
        f"sim.{m}.{name}": unit
        for m in metrics.MACHINES
        for name, unit in (
            ("region_s", "s"), ("ns_per_region_instr", "ns"),
            ("instructions", "count"), ("cycles", "count"),
            ("memory_ops", "count"), ("regions", "count"),
            ("threads", "count"), ("barriers", "count"))
    },
    "sim.smp.l1_hit_ratio": "ratio",
    "sim.smp.fill_ratio": "ratio",
    "core.host_s": "s",
    "core.verify_s": "s",
    "sweep.expand_s": "s",
    "sweep.emit_s": "s",
    "sweep.worker_busy_frac": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "unattributed_s": "s",
}


class BenchError(Exception):
    pass


def build():
    """Configures and builds the benchmark package; returns the sweep CLI and
    trace program paths."""
    if not ((ROOT / "src" / "CMakeLists.txt").is_file() and
            (ROOT / "tools" / "archgraph_sweep.cpp").is_file()):
        raise BenchError(f"no archgraph sources under {ROOT} (src/ and "
                         "tools/ are missing); run from a repository checkout")
    OUT.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    with open(log, "wb") as f:
        for cmd in (["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD)],
                    ["cmake", "--build", str(BUILD), "-j", "4", "--target",
                     "perfbench_sweep", "perfbench_trace"]):
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)} (log: {log})")
    return BUILD / "archgraph_sweep", BUILD / "perfbench_trace"


def run_process(cmd, tag):
    """Runs cmd to completion with stdout/stderr in OUT/<tag>.{stdout,stderr}.
    Returns (exit code, wall s, user+sys CPU s, peak RSS KiB) of the child."""
    with open(OUT / f"{tag}.stdout", "wb") as out, \
            open(OUT / f"{tag}.stderr", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen([str(c) for c in cmd], stdout=out, stderr=err)
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss)


def planned_ids(sweep, specs):
    rc, _, _, _ = run_process([sweep, "run", *specs, "--dry-run"], "plan")
    if rc != 0:
        raise BenchError("plan expansion failed: " +
                         (OUT / "plan.stderr").read_text().strip())
    return (OUT / "plan.stdout").read_text().split()


def run_campaign(sweep, specs, jobs, planned):
    """One untraced campaign, exactly as a user runs it."""
    out, events = OUT / "campaign.jsonl", OUT / "campaign.events.jsonl"
    for path in (out, events):
        path.unlink(missing_ok=True)
    rc, wall, cpu, rss = run_process(
        [sweep, "run", *specs, "--jobs", jobs, "--out", out,
         "--events-out", events, "--no-progress"], "campaign")
    records = metrics.read_jsonl(out) if out.exists() else []
    result = metrics.campaign_metrics(
        planned, records,
        metrics.read_jsonl(events) if events.exists() else [],
        wall, cpu, rss)
    result["rc"] = rc
    result["records"] = records
    return result


def campaign_problems(c):
    problems = []
    if c["rc"] != 0:
        problems.append(f"archgraph_sweep exited {c['rc']}: " +
                        (OUT / "campaign.stderr").read_text().strip()[-500:])
    if c["bad"]:
        problems.append(f"{c['bad']} record(s) unverified, unplanned or with "
                        "an open cycle ledger")
    return problems


def measure_end_to_end(name, seed, seconds, sweep):
    """Closed loop: campaigns back to back until `seconds` is spent (at
    least one); the median of each metric over the campaigns."""
    specs, jobs = specs_for(name, seed), WORKLOADS[name]["jobs"]
    planned = planned_ids(sweep, specs)
    campaigns, problems = [], []
    start = time.monotonic()
    while True:
        c = run_campaign(sweep, specs, jobs, planned)
        problems += campaign_problems(c)
        if campaigns and c["records"] != campaigns[0]["records"]:
            problems.append(f"campaign {len(campaigns)} simulated different "
                            "results than campaign 0 (nondeterminism)")
        campaigns.append(c)
        elapsed = time.monotonic() - start
        if elapsed * (len(campaigns) + 1) / len(campaigns) > seconds:
            break
    return {
        "attempted": sum(c["attempted"] for c in campaigns),
        "failed": sum(c["failed"] for c in campaigns),
        "problems": problems,
        "metrics": {
            **metrics.median_metrics([c["metrics"] for c in campaigns]),
            **metrics.ns_per_instr(campaigns),
        },
        "campaigns": len(campaigns),
    }


def measure_layers(name, seed, sweep, trace):
    """One untraced campaign, then the serial traced run of the same plan."""
    specs, jobs = specs_for(name, seed), WORKLOADS[name]["jobs"]
    planned = planned_ids(sweep, specs)
    c = run_campaign(sweep, specs, jobs, planned)
    problems = campaign_problems(c)

    traced = OUT / "traced.jsonl"
    traced.unlink(missing_ok=True)
    rc, wall, _, _ = run_process([trace, "--out", traced, *specs], "traced")
    if rc != 0:
        raise BenchError(f"perfbench_trace exited {rc}: " +
                         (OUT / "traced.stderr").read_text().strip()[-500:])
    summary = json.loads(
        (OUT / "traced.stdout").read_text().strip().splitlines()[-1])
    problems += metrics.trace_mismatches(metrics.read_jsonl(traced), summary,
                                         c["records"])
    return {
        "attempted": 2 * len(planned),
        "failed": c["failed"],
        "problems": problems,
        "metrics": metrics.layer_metrics(summary, wall, c),
        "campaigns": 1,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Host-time benchmark for archgraph's simulators.")
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        sweep, trace = build()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            if args.trace:
                r = measure_layers(name, args.seed, sweep, trace)
            else:
                r = measure_end_to_end(name, args.seed, args.seconds, sweep)
        except (BenchError, OSError, ValueError, KeyError) as e:
            # The workload aborted: every planned cell counts as failed and
            # the remaining workloads still run.
            try:
                cells = len(planned_ids(sweep, specs_for(name, args.seed)))
            except (BenchError, OSError):
                cells = 1
            r = {"attempted": cells, "failed": cells, "problems": [str(e)],
                 "metrics": dict.fromkeys(units), "campaigns": 0}
        for problem in r["problems"]:
            print(f"perfbench: {name}: {problem}", file=sys.stderr)
        correct = not r["problems"] and r["failed"] == 0
        print(f"== {name} (seed {args.seed}, {r['campaigns']} campaign(s), "
              f"{r['attempted']} cells attempted, {r['failed']} failed, "
              f"correct={correct})")
        prefix = "" if len(names) == 1 else name + "/"
        for key, unit in units.items():
            print(f"  {key:32s} {r['metrics'][key]} {unit}")
            result["metrics"][prefix + key] = {"value": r["metrics"][key],
                                               "unit": unit}
        result["correct"] &= correct
        result["attempted"] += r["attempted"]
        result["failed"] += r["failed"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
