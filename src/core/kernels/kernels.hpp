// The paper's four programs as simulator kernels.
//
// Each driver takes an abstract sim::Machine, so any kernel runs on either
// architecture model — the paper's pairing (walk/Alg.1 + Alg.3 on the MTA,
// Helman–JáJá + optimized SV on the SMP) is just the default experiment, and
// the cross pairings are ablations.
//
// Every kernel computes the real answer inside simulated memory (drivers
// return it for checking); the machine's accumulated cycles after the call
// are the measurement.
//
// Instruction accounting: each load/store/fetch-add costs one issue slot
// inherently; ALU work is charged with compute(k). The per-loop constants are
// written at the co_await sites with a comment deriving them.
//
// Each simulated thread is one coroutine frame: kernels write every loop
// inline, with no nested coroutine per edge, vertex, arc, walk or push.
// Claiming costs come from the simk awaitables (sim_par.hpp): one fetch_add
// per claim() chunk or dynamic Items item, each worker's final failed claim
// included; one compute per static Items item; nothing for a static_block.
// The per-item charges of edge-slot, neighbor and frontier scans and of
// frontier pushes are listed once in frontier.hpp and written at each site.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "graph/edge_list.hpp"
#include "graph/linked_list.hpp"
#include "sim/machine.hpp"

namespace archgraph::core {

// ---------------------------------------------------------------- list rank

struct WalkLrParams {
  /// Number of walks (sublists). 0 = auto: min(max(1, n/8),
  /// 16 x machine.concurrency()) — enough walks to keep every stream busy
  /// with the dynamic fetch-add scheduler while keeping the O(W log W)
  /// pointer-jumping step negligible.
  i64 num_walks = 0;
  /// Worker threads for the dynamic phases. 0 = auto: machine.concurrency().
  i64 workers = 0;
  /// Block-schedule the walks instead of fetch-add dynamic claiming
  /// (the paper's §3 load-balancing discussion; ablation knob).
  bool block_schedule = false;
};

/// The paper's Alg. 1 (MTA list ranking): mark walk heads, walk sublists
/// counting lengths, pointer-jump the walk records into prefix offsets,
/// re-walk assigning final ranks. Returns 0-based ranks from the head.
std::vector<i64> sim_rank_list_walk(sim::Machine& machine,
                                    const graph::LinkedList& list,
                                    WalkLrParams params = {});

struct HjLrParams {
  /// Sublists per thread (paper: s = 8p total).
  i64 sublists_per_thread = 8;
  /// Threads. 0 = auto: machine.processors().
  i64 threads = 0;
  u64 seed = 0x5eedf00dULL;
};

/// Helman–JáJá list ranking (the paper's SMP algorithm, §3 steps 1-5) as a
/// p-thread, barrier-separated program with static partitioning.
std::vector<i64> sim_rank_list_hj(sim::Machine& machine,
                                  const graph::LinkedList& list,
                                  HjLrParams params = {});

/// The "best sequential implementation" baseline as a simulated program:
/// one thread chases the list pointer chain writing ranks. The paper's
/// speedup claims are measured against exactly this kind of code.
std::vector<i64> sim_rank_list_sequential(sim::Machine& machine,
                                          const graph::LinkedList& list);

struct WyllieLrParams {
  /// Worker threads per doubling round. 0 = auto: machine.concurrency().
  i64 workers = 0;
};

/// Textbook Wyllie pointer jumping as a simulated program: O(n log n) work,
/// log n double-buffered rounds. The classic PRAM algorithm the practical
/// ones improve on — included so the benches can show why work-efficiency
/// matters even on a latency-tolerant machine.
std::vector<i64> sim_rank_list_wyllie(sim::Machine& machine,
                                      const graph::LinkedList& list,
                                      WyllieLrParams params = {});

// ------------------------------------------------------ connected components

struct SimCcResult {
  std::vector<NodeId> labels;  // min-vertex normalized
  i64 iterations = 0;
};

struct MtaCcParams {
  /// Edges claimed per fetch-add in the dynamic scheduler.
  i64 chunk = 64;
  /// Worker threads. 0 = auto: machine.concurrency().
  i64 workers = 0;
};

/// The paper's Alg. 3: Shiloach–Vishkin as a direct PRAM translation —
/// dynamic parallel loops over the 2m directed edge slots and over vertices,
/// full shortcut each iteration, repeat until no graft.
SimCcResult sim_cc_sv_mta(sim::Machine& machine, const graph::EdgeList& graph,
                          MtaCcParams params = {});

struct SmpCcParams {
  /// Threads. 0 = auto: machine.processors().
  i64 threads = 0;
};

/// The SMP Shiloach–Vishkin: p threads, static edge/vertex partitions,
/// barrier-separated graft and shortcut phases, per-thread graft flags
/// combined at the barrier (avoiding a hot shared flag word).
SimCcResult sim_cc_sv_smp(sim::Machine& machine, const graph::EdgeList& graph,
                          SmpCcParams params = {});

/// Sequential union-find (union by size is omitted; path-halving find) as a
/// simulated single-thread program — the best-sequential CC baseline the
/// paper's speedup discussion compares against.
std::vector<NodeId> sim_cc_union_find_sequential(sim::Machine& machine,
                                                 const graph::EdgeList& graph);

// ------------------------------------------------------------ graph coloring

struct SimColorResult {
  std::vector<i64> colors;  // == color_greedy_seq of the same graph
  i64 rounds = 0;           // tentative/conflict-resolution passes
};

struct MtaColorParams {
  /// Frontier entries claimed per fetch-add in the dynamic scheduler.
  i64 chunk = 16;
  /// Worker threads. 0 = auto: machine.concurrency().
  i64 workers = 0;
  /// Predicated inner loop (Green/Dukhan/Vuduc): load every neighbor color
  /// and fold it into the palette mask with ALU ops instead of branching on
  /// the lower-id test.
  bool branch_avoiding = false;
  /// Tentative passes go dense when the active set holds at least
  /// 1/dense_denom of the vertices.
  i64 dense_denom = 4;
};

/// Distance-1 greedy coloring by iterative speculative coloring
/// (Çatalyürek/Feo/Gebremedhin shape) with vertex-id priorities: each round
/// recolors the active set from lower-id neighbor colors (tentative), then
/// propagates every change to higher-id neighbors via an edge_map over the
/// changed frontier. Converges to exactly color_greedy_seq on any schedule.
/// MTA shape: one dynamically-scheduled region per phase per round.
SimColorResult sim_color_greedy_mta(sim::Machine& machine,
                                    const graph::EdgeList& graph,
                                    MtaColorParams params = {});

struct SmpColorParams {
  /// Threads. 0 = auto: machine.processors().
  i64 threads = 0;
  /// See MtaColorParams::branch_avoiding.
  bool branch_avoiding = false;
  /// See MtaColorParams::dense_denom.
  i64 dense_denom = 4;
};

/// The same speculative-coloring loop as a single-region p-thread SMP
/// program: barrier-separated tentative / propagate / combine phases with
/// statically partitioned frontiers and worker-0 bookkeeping.
SimColorResult sim_color_greedy_smp(sim::Machine& machine,
                                    const graph::EdgeList& graph,
                                    SmpColorParams params = {});

// -------------------------------------------------------- BFS spanning tree

struct SimBfsResult {
  std::vector<NodeId> parent;  // parent[root] == root; a valid BFS forest
  std::vector<i64> level;      // == bfs_tree_seq levels (exact distances)
  i64 components = 0;
  i64 rounds = 0;  // level-expansion rounds summed over components
};

struct MtaBfsParams {
  /// Frontier entries claimed per fetch-add in the dynamic scheduler.
  i64 chunk = 16;
  /// Worker threads. 0 = auto: machine.concurrency().
  i64 workers = 0;
};

/// Level-synchronous BFS spanning forest (the CC companion): one root per
/// component found by a charged sequential seek, then one dynamically
/// scheduled edge_map region per level; discovery races resolved by a
/// fetch_add claim on the visited word. MTA shape: a region per seek and per
/// level.
SimBfsResult sim_bfs_tree_mta(sim::Machine& machine,
                              const graph::EdgeList& graph,
                              MtaBfsParams params = {});

struct SmpBfsParams {
  /// Threads. 0 = auto: machine.processors().
  i64 threads = 0;
};

/// The same level-synchronous BFS as a single-region p-thread SMP program:
/// alternating barrier-separated seek (worker 0 scans for the next root,
/// everyone re-reads frontier sizes) and expand (static frontier partition)
/// phases.
SimBfsResult sim_bfs_tree_smp(sim::Machine& machine,
                              const graph::EdgeList& graph,
                              SmpBfsParams params = {});

}  // namespace archgraph::core
