// Mirror-slot edge index: an immutable CSR view of a Graph.
//
// Every consumer that moves one value per directed edge — the host
// reference solvers, the initial-state packers, the arena graph plane's
// delivery step and the secure runtime's transfer sub-phases — needs, for
// edge (u, v), both u's out-slot and the *mirror slot*: u's position in
// v's in-neighbor list. Graph stores adjacency as per-vertex lists, so
// finding the mirror slot means scanning v's in-list on every visit. The
// index resolves every mirror slot once, in O(V + E), and exposes flat
// arrays instead:
//
//   * edges are numbered in Graph::Edges() order, so edge
//     e = out_start(u) + s is u's s-th out-edge (the global edge index the
//     runtime schedules and sessions by);
//   * dst(e) is its destination, in_slot(e) the source's slot among
//     dst(e)'s in-neighbors;
//   * in-slots are numbered flat as well: in_start(v) + d is v's d-th
//     in-slot, so edge e writes flat in-slot in_flat(e).
//
// The index is a snapshot: it holds no reference to the graph, and edges
// added to the graph afterwards are not in it.
#ifndef SRC_GRAPH_EDGE_INDEX_H_
#define SRC_GRAPH_EDGE_INDEX_H_

#include <cstddef>
#include <vector>

#include "src/graph/graph.h"

namespace dstress::graph {

class EdgeIndex {
 public:
  explicit EdgeIndex(const Graph& graph);

  int num_vertices() const { return static_cast<int>(out_start_.size()) - 1; }
  size_t num_edges() const { return dst_.size(); }

  // Edges [out_start(v), out_start(v + 1)) leave v, in out-slot order.
  size_t out_start(int v) const { return out_start_[static_cast<size_t>(v)]; }
  int out_degree(int v) const { return static_cast<int>(out_start(v + 1) - out_start(v)); }
  // Flat in-slots [in_start(v), in_start(v + 1)) belong to v, in in-slot
  // order.
  size_t in_start(int v) const { return in_start_[static_cast<size_t>(v)]; }
  int in_degree(int v) const { return static_cast<int>(in_start(v + 1) - in_start(v)); }

  int dst(size_t e) const { return dst_[e]; }
  int in_slot(size_t e) const { return in_slot_[e]; }
  size_t in_flat(size_t e) const {
    return in_start(dst_[e]) + static_cast<size_t>(in_slot_[e]);
  }

 private:
  std::vector<size_t> out_start_;  // n + 1
  std::vector<size_t> in_start_;   // n + 1
  std::vector<int> dst_;           // per edge
  std::vector<int> in_slot_;       // per edge
};

}  // namespace dstress::graph

#endif  // SRC_GRAPH_EDGE_INDEX_H_
