#ifndef PDMS_GRAPH_CLOSURE_H_
#define PDMS_GRAPH_CLOSURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/digraph.h"

namespace pdms {

/// A *closure* is a structure in the mapping network along which the
/// composition of mappings can be compared against the identity (Section 3
/// of the paper): either a mapping **cycle**, or a pair of **parallel
/// paths** sharing source and destination.
///
/// For a cycle, `edges` lists the mapping edges in traversal order starting
/// at `source` (== `sink`). For parallel paths, `edges[0..split)` is the
/// first path and `edges[split..]` the second, both ordered from `source`
/// to `sink`.
struct Closure {
  enum class Kind : uint8_t { kCycle, kParallelPaths };

  Kind kind = Kind::kCycle;
  std::vector<EdgeId> edges;
  /// Boundary between the two paths; == edges.size() for cycles.
  size_t split = 0;
  NodeId source = 0;
  NodeId sink = 0;

  size_t Length() const { return edges.size(); }

  /// "cycle(e0,e1,e2)" or "parallel(e0 | e1,e2)".
  std::string ToString() const;
};

/// Options bounding the closure search. The paper's peers probe their
/// neighborhood with a TTL and stop expanding once longer cycles stop
/// changing posteriors (Section 5.1.2); `max_cycle_length` plays the role
/// of that TTL.
struct ClosureFinderOptions {
  /// Longest cycle (in mappings) to report.
  size_t max_cycle_length = 8;
  /// Shortest cycle to report. Directed 2-cycles (a mapping and its
  /// inverse) are trivial closures; the paper's example enumerations start
  /// at length 3, which is the default here.
  size_t min_cycle_length = 3;
  /// Longest single path (in mappings) participating in a parallel pair.
  size_t max_path_length = 6;
  /// Safety valve on the number of closures returned.
  size_t max_closures = 1u << 20;
};

/// Enumerates directed simple cycles of the graph, each reported once
/// (canonical rotation starts at the smallest node id).
std::vector<Closure> FindDirectedCycles(const Digraph& graph,
                                        const ClosureFinderOptions& options);

/// Enumerates unordered pairs of directed simple paths with identical
/// source and sink that are edge-disjoint and internally vertex-disjoint —
/// the parallel paths of Section 3.3. Pairs whose union of edges equals the
/// union of a shorter reported pair are still reported (they are distinct
/// evidence). Each pair is reported once.
std::vector<Closure> FindParallelPaths(const Digraph& graph,
                                       const ClosureFinderOptions& options);

}  // namespace pdms

#endif  // PDMS_GRAPH_CLOSURE_H_
