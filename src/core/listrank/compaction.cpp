#include <algorithm>

#include "common/check.hpp"
#include "common/prng.hpp"
#include "core/listrank/listrank.hpp"
#include "core/listrank/sublist_detail.hpp"
#include "rt/parallel_for.hpp"

namespace archgraph::core {

// The paper's §6 technique: "we first compacted the list to a list of super
// nodes, performed list ranking on the compacted list, and then expanded the
// super nodes to compute the rank of the original nodes. The compaction and
// expansion steps are parallel, O(n), and require little synchronization."
// Applied recursively until the list fits the sequential base case.
std::vector<i64> rank_by_compaction(rt::ThreadPool& pool,
                                    const graph::LinkedList& list,
                                    CompactionParams params) {
  const i64 n = list.size();
  AG_CHECK(n >= 1, "empty list");
  AG_CHECK(params.base_size >= 1 && params.compaction_ratio >= 2,
           "invalid compaction parameters");
  if (n <= params.base_size) {
    return rank_sequential(list);
  }

  // Compact: mark ~n/ratio super-node heads and walk their sublists.
  const i64 s = std::max<i64>(2, n / params.compaction_ratio);
  std::vector<i64> head_mark;
  const std::vector<NodeId> heads = detail::choose_sublist_heads(
      list, list.head, s, params.seed, head_mark);
  std::vector<i64> sub_of(static_cast<usize>(n));
  std::vector<i64> local(static_cast<usize>(n));
  std::vector<i64> length;
  std::vector<i64> succ;
  detail::walk_sublists(pool, list, heads, head_mark, sub_of, local, length,
                        succ);

  // The super-nodes themselves form a linked list (head = sublist 0).
  graph::LinkedList compacted;
  compacted.head = 0;
  compacted.next.assign(succ.begin(), succ.end());

  CompactionParams deeper = params;
  deeper.seed = hash64(params.seed);
  const std::vector<i64> super_rank =
      rank_by_compaction(pool, compacted, deeper);

  // Expand: offset of super-node k = total length of super-nodes ranked
  // before it. Scatter lengths into rank order, prefix-sum, gather back.
  const auto num_super = static_cast<i64>(heads.size());
  std::vector<i64> offset_in_order(heads.size());
  rt::parallel_for(pool, 0, num_super, rt::Schedule::Static, 1, [&](i64 k) {
    offset_in_order[static_cast<usize>(super_rank[static_cast<usize>(k)])] =
        length[static_cast<usize>(k)];
  });
  i64 running = 0;
  for (i64& offset : offset_in_order) {
    const i64 len = offset;
    offset = running;
    running += len;
  }

  std::vector<i64> rank(static_cast<usize>(n));
  rt::parallel_for(pool, 0, n, rt::Schedule::Static, 1, [&](i64 i) {
    const i64 k = sub_of[static_cast<usize>(i)];
    rank[static_cast<usize>(i)] =
        offset_in_order[static_cast<usize>(
            super_rank[static_cast<usize>(k)])] +
        local[static_cast<usize>(i)];
  });
  return rank;
}

}  // namespace archgraph::core
