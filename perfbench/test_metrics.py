"""Tests for the benchmark's own arithmetic, on a tiny fixed campaign.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

fixtures/campaign.{jsonl,events.jsonl} is a complete 4-cell run on 2
workers (cells finish out of plan order, as under --jobs N);
fixtures/truncated.* is the same run killed after its third cell finished,
mid-way through writing that cell's record.
"""

import copy
import json
import tempfile
import unittest
from pathlib import Path

import metrics
import run
import workloads

HERE = Path(__file__).resolve().parent
PLANNED = ["k/mta:procs=2/a", "k/smp/b", "k/gpu/c", "k/mta:procs=4/d"]


def load(name):
    return metrics.read_jsonl(HERE / "fixtures" / name)


def campaign(records="campaign.jsonl", events="campaign.events.jsonl",
             wall_s=0.125):
    return metrics.campaign_metrics(PLANNED, load(records), load(events),
                                    wall_s, 0.3, 40960)


class CampaignMetricsTest(unittest.TestCase):
    def test_ns_per_instr_joins_cell_seconds_to_records_by_run_id(self):
        m = metrics.ns_per_instr([campaign()])
        # mta: cells a (30 us, 150 instr) and d (15 us, 100 instr).
        self.assertAlmostEqual(m["ns_per_instr.mta"], 1e9 * 45e-6 / 250)
        self.assertAlmostEqual(m["ns_per_instr.smp"], 1e9 * 20e-6 / 200)
        self.assertAlmostEqual(m["ns_per_instr.gpu"], 1e9 * 50e-6 / 50)

    def test_ns_per_instr_takes_each_cells_median_across_campaigns(self):
        slow, fast = campaign(), campaign()
        slow["cells"]["k/smp/b"] = ("smp", 200, 90e-6)  # a burst of noise
        fast["cells"]["k/mta:procs=2/a"] = ("mta", 150, 27e-6)
        m = metrics.ns_per_instr([campaign(), slow, fast])
        self.assertAlmostEqual(m["ns_per_instr.smp"], 1e9 * 20e-6 / 200)
        self.assertAlmostEqual(m["ns_per_instr.mta"], 1e9 * 45e-6 / 250)

    def test_setup_is_wall_outside_the_cell_loop_plus_input_generation(self):
        # Loop: first cell_started (2000 us) to run_finished (102000 us).
        self.assertAlmostEqual(campaign()["metrics"]["setup_s"],
                               0.125 - 0.100 + 0.004 + 0.006)

    def test_busy_fraction_is_cell_seconds_over_workers_times_plan_wall(self):
        self.assertAlmostEqual(campaign()["worker_busy_frac"],
                               (30 + 20 + 50 + 15) * 1e-6 / (2 * 0.1))

    def test_process_measurements_pass_through(self):
        m = campaign()["metrics"]
        self.assertEqual(m["wall_s"], 0.125)
        self.assertEqual(m["cpu_s"], 0.3)
        self.assertEqual(m["peak_rss_mb"], 40.0)

    def test_complete_run_has_no_failures(self):
        c = campaign()
        self.assertEqual((c["attempted"], c["failed"], c["bad"]), (4, 0, 0))

    def test_truncated_run_counts_unfinished_and_torn_cells_as_failed(self):
        c = campaign("truncated.jsonl", "truncated.events.jsonl")
        # c finished but its record is torn; d never finished.
        self.assertEqual((c["attempted"], c["failed"], c["bad"]), (4, 2, 0))
        self.assertEqual(c["failed"] / c["attempted"], 0.5)
        self.assertIsNone(metrics.ns_per_instr([c])["ns_per_instr.gpu"])
        # No run_finished: the loop ends at the last event (90000 us).
        self.assertAlmostEqual(c["metrics"]["setup_s"],
                               0.125 - 0.088 + 0.010)

    def test_unverified_or_open_ledger_record_is_bad_and_failed(self):
        records = load("campaign.jsonl")
        records[1]["verified"] = False
        records[2]["acct_idle"] += 1
        c = metrics.campaign_metrics(PLANNED, records,
                                     load("campaign.events.jsonl"), 1, 1, 1)
        self.assertEqual((c["failed"], c["bad"]), (2, 2))

    def test_torn_line_is_only_tolerated_at_the_end(self):
        lines = (HERE / "fixtures" / "truncated.jsonl").read_text().split("\n")
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / "torn_middle.jsonl"
            bad.write_text("\n".join([lines[2], lines[0]]) + "\n")
            with self.assertRaises(ValueError):
                metrics.read_jsonl(bad)


class TraceMetricsTest(unittest.TestCase):
    def summary(self):
        records = load("campaign.jsonl")
        machines = {}
        for m in metrics.MACHINES:
            arch = [r for r in records if r["arch"] == m]
            machines[m] = {
                "region_s": 0.01 * len(arch),
                "instructions": sum(r["instructions"] for r in arch),
                "cycles": sum(r["cycles"] for r in arch),
                "memory_ops": 0, "regions": len(arch), "threads": 1,
                "barriers": 0, "l1_hits": 6, "l2_hits": 2, "mem_fills": 2,
            }
        return {"layers": {"sweep.expand_s": 0.001, "graph.gen_s": 0.002,
                           "graph.inputs": 2, "sim.build_s": 0.003,
                           "core.host_s": 0.004, "core.verify_s": 0.005,
                           "sweep.emit_s": 0.006},
                "machines": machines}

    def test_consistent_runs_have_no_mismatch(self):
        records = load("campaign.jsonl")
        self.assertEqual(metrics.trace_mismatches(
            copy.deepcopy(records), self.summary(), records), [])

    def test_cycle_difference_is_reported(self):
        records = load("campaign.jsonl")
        traced = copy.deepcopy(records)
        traced[0]["cycles"] += 1
        problems = metrics.trace_mismatches(traced, self.summary(), records)
        self.assertEqual(len(problems), 1)
        self.assertIn("k/mta:procs=2/a", problems[0])
        summary = self.summary()
        summary["machines"]["gpu"]["instructions"] += 1
        self.assertEqual(len(metrics.trace_mismatches(records, summary,
                                                      records)), 1)

    def test_layer_self_times_plus_unattributed_add_up_to_traced_wall(self):
        out = metrics.layer_metrics(self.summary(), 0.5, campaign())
        self_s = sum(out[k] for k in (
            "sweep.expand_s", "graph.gen_s", "sim.build_s", "core.host_s",
            "core.verify_s", "sweep.emit_s", "sim.mta.region_s",
            "sim.smp.region_s", "sim.gpu.region_s"))
        self.assertAlmostEqual(self_s + out["unattributed_s"], 0.5)
        self.assertAlmostEqual(out["unattributed_s"], 0.5 - 0.021 - 0.04)
        self.assertAlmostEqual(out["sim.mta.ns_per_region_instr"],
                               1e9 * 0.02 / 250)
        self.assertAlmostEqual(out["sim.smp.fill_ratio"], 0.2)
        self.assertAlmostEqual(out["sim.smp.l1_hit_ratio"], 0.6)
        # Traced cell scope (build + regions + host + verify) against the
        # untraced cells' 115 us.
        self.assertAlmostEqual(out["trace.overhead_frac"],
                               (0.003 + 0.04 + 0.004 + 0.005) / 115e-6 - 1)
        self.assertEqual(set(out), set(run.PER_LAYER_UNITS))

    def test_median_over_campaigns(self):
        self.assertEqual(metrics.median_metrics(
            [{"a": 3.0, "b": 1.0}, {"a": 1.0, "b": 2.0}, {"a": 2.0, "b": 9.0}]),
            {"a": 2.0, "b": 2.0})


class BenchmarkFileTest(unittest.TestCase):
    """BENCHMARK.json at the repository root names the same workloads, whys,
    metrics and units that the benchmark code produces."""

    def setUp(self):
        self.spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_workloads_and_whys_match(self):
        self.assertEqual(
            {w["name"]: w["why"] for w in self.spec["workloads"]},
            {name: w["why"] for name, w in workloads.WORKLOADS.items()})

    def test_metric_names_and_units_match(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]},
                         run.PER_LAYER_UNITS)

    def test_kernel_mix_runs_four_seeds_from_the_seed_argument(self):
        for spec in workloads.specs_for("kernel_mix", 5):
            self.assertTrue(spec.endswith("seed={5,6,7,8}"), spec)
        for spec in workloads.specs_for("cc_fig2", 5):
            self.assertTrue(spec.endswith("seed=5"), spec)


if __name__ == "__main__":
    unittest.main()
