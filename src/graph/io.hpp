// Graph text I/O in DIMACS format.
//
// The experimental studies the paper compares against (Greiner; Hsu,
// Ramachandran & Dean; Krishnamurthy et al.; Goddard, Kumar & Prins) are all
// from the 3rd DIMACS Implementation Challenge, whose exchange format this
// module reads and writes:
//
//   c  comment line
//   p edge <num_vertices> <num_edges>
//   e <u> <v>            (1-based vertex ids)
//
// An optional extension carries weights ("e u v w"), one per edge line.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "graph/edge_list.hpp"

namespace archgraph::graph {

struct DimacsGraph {
  EdgeList edges;
  /// Present iff every edge line carried a weight; aligned with edges.
  std::optional<std::vector<i64>> weights;
};

/// Parses DIMACS "edge" format. Throws std::logic_error with a line number
/// on malformed input (bad header, out-of-range vertex, edge-count mismatch,
/// mixed weighted/unweighted lines).
DimacsGraph read_dimacs(std::istream& in);
DimacsGraph read_dimacs_file(const std::string& path);

/// Writes DIMACS "edge" format (1-based ids); `weights`, if non-null, must
/// be aligned with the edge list.
void write_dimacs(std::ostream& out, const EdgeList& graph,
                  const std::vector<i64>* weights = nullptr,
                  const std::string& comment = "");
void write_dimacs_file(const std::string& path, const EdgeList& graph,
                       const std::vector<i64>* weights = nullptr,
                       const std::string& comment = "");

}  // namespace archgraph::graph
