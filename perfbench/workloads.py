"""The benchmark's three pinned campaigns.

Specs are literal strings in the src/sweep/spec.hpp grammar, not canned grid
names, so edits to bench/bench_util.hpp cannot change what is measured. The
workload seed is the `seed=` axis of every spec. BENCHMARK.json carries the
same one-line `why` for each workload (test_metrics.py checks they agree).
"""

# Seed used for recorded runs, and the held-out seed every later claim must
# also hold on (it is never used while tuning a change).
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

WORKLOADS = {
    "cc_fig2": {
        "jobs": 4,
        "why": "Fig. 2 CC grid on 4 workers: the only parallel campaign; GPU "
               "on a large graph, MTA under SV fetch-add traffic, uneven "
               "cells expose straggler and in-order-emit losses",
        "specs": [
            "kernel=cc_sv_mta machine=mta:procs={{1,2,4,8}} n=8192 "
            "m={{32768,98304,163840}} seed={seed}",
            "kernel=cc_sv_smp machine=smp:procs={{1,2,4,8}} n=8192 "
            "m={{32768,98304,163840}} seed={seed}",
            "kernel=cc_sv_mta machine=gpu:procs={{1,2,4,8}} n=8192 "
            "m={{32768,98304,163840}} seed={seed}",
        ],
    },
    "lr_fig1": {
        "jobs": 1,
        "why": "Fig. 1 list ranking, serial: lists far larger than the SMP's "
               "L2, so the SMP miss/bus path works; the GPU runs only an "
               "lr_walk slice of about 12% of wall_s",
        "specs": [
            "kernel=lr_walk machine=mta:procs={{1,2,4,8}} "
            "layout={{ordered,random}} n=65536 seed={seed}",
            "kernel=lr_hj machine=smp:procs={{1,2,4,8}},l2_kb=512 "
            "layout={{ordered,random}} n={{65536,262144}} seed={seed}",
            "kernel=lr_walk machine=gpu:procs={{1,2,4,8}} "
            "layout={{ordered,random}} n=65536 seed={seed}",
        ],
    },
    "kernel_mix": {
        "jobs": 1,
        "why": "all 13 kernels on all 3 machines at small size, 408 serial "
               "cells: frontier, Wyllie and sequential kernels, the SMP cache "
               "hit path, and per-cell fixed costs",
        "specs": [
            template
            for machine in ("mta:procs={{1,4}}", "smp:procs={{1,4}},l2_kb=64",
                            "gpu:procs={{1,4}}")
            for template in (
                "kernel={{lr_walk,lr_hj,lr_wyllie,lr_seq}} machine=" + machine +
                " layout={{ordered,random}} n=4096 seed={seeds}",
                "kernel={{cc_sv_mta,cc_sv_smp,cc_uf_seq,color_greedy_mta,"
                "color_greedy_smp,color_greedy_mta_ba,color_greedy_smp_ba,"
                "bfs_tree_mta,bfs_tree_smp}} machine=" + machine +
                " n=1024 m=4096 seed={seeds}",
            )
        ],
    },
}


def specs_for(name, seed):
    """The workload's spec strings with its seed axis filled in. kernel_mix
    runs the 4 seeds starting at `seed`; the others run `seed` alone."""
    seeds = "{" + ",".join(str(seed + i) for i in range(4)) + "}"
    return [t.format(seed=seed, seeds=seeds) for t in WORKLOADS[name]["specs"]]
