// Directed graph model for DStress vertex programs.
//
// A directed edge (u, v) means u sends one message to v per iteration (and
// both endpoints know the edge exists — the paper's edge-knowledge model,
// §2). The runtime enforces a public degree bound D: vertices with fewer
// than D in-neighbors receive no-op messages in the remaining slots, and
// the update circuit always has exactly D message inputs and outputs
// (§3.6). Properties attached to edges/vertices (debts, cross-holdings)
// live with the applications in src/finance.
//
// A Graph is an immutable mirror-slot CSR made by GraphBuilder::Build().
// Every consumer that moves one value per directed edge (the reference
// solvers, the initial-state packers, the arena plane's delivery, the
// secure runtime's transfers) needs, for edge (u, v), u's out-slot and the
// *mirror slot*: u's position in v's in-neighbor list. Build() resolves
// every mirror slot once, so:
//
//   * edge e = out_start(u) + s is u's s-th out-edge, numbered in Edges()
//     order (the global edge index the runtime schedules and sessions by);
//   * in_slot(e) is src(e)'s slot among dst(e)'s in-neighbors, and v's
//     in-slots are numbered flat from in_start(v), so e writes in_flat(e).
//
// Order contract (every in-slot, session id and golden digest rests on
// it): of repeated AddEdge(u, v) calls only the first counts; Edges()
// lists edges by u, then in insertion order; InNeighbors(v) lists v's
// in-neighbors in insertion order, not by source.
#ifndef SRC_GRAPH_GRAPH_H_
#define SRC_GRAPH_GRAPH_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace dstress::graph {

// Read-only view of a run of vertex ids inside a Graph.
class VertexRange {
 public:
  VertexRange(const int* begin, const int* end) : begin_(begin), end_(end) {}
  const int* begin() const { return begin_; }
  const int* end() const { return end_; }
  size_t size() const { return static_cast<size_t>(end_ - begin_); }
  int operator[](size_t i) const { return begin_[i]; }

 private:
  const int* begin_;
  const int* end_;
};

class Graph {
 public:
  int num_vertices() const { return static_cast<int>(out_start_.size()) - 1; }
  int num_edges() const { return static_cast<int>(dst_.size()); }

  // Edges [out_start(v), out_start(v + 1)) leave v, flat in-slots
  // [in_start(v), in_start(v + 1)) belong to v, each in slot order.
  size_t out_start(int v) const { return out_start_[v]; }
  size_t in_start(int v) const { return in_start_[v]; }
  int src(size_t e) const { return src_[e]; }
  int dst(size_t e) const { return dst_[e]; }
  int in_slot(size_t e) const { return in_slot_[e]; }
  size_t in_flat(size_t e) const { return in_start(dst_[e]) + in_slot_[e]; }

  VertexRange OutNeighbors(int v) const {
    return {dst_.data() + out_start(v), dst_.data() + out_start(v + 1)};
  }
  VertexRange InNeighbors(int v) const {
    return {in_src_.data() + in_start(v), in_src_.data() + in_start(v + 1)};
  }
  int OutDegree(int v) const { return static_cast<int>(out_start(v + 1) - out_start(v)); }
  int InDegree(int v) const { return static_cast<int>(in_start(v + 1) - in_start(v)); }

  // Maximum of in- and out-degree over all vertices: the smallest valid
  // public degree bound D.
  int MaxDegree() const;

  // All directed edges (src(e), dst(e)) in edge order.
  std::vector<std::pair<int, int>> Edges() const;

 private:
  friend class GraphBuilder;
  Graph() = default;

  std::vector<size_t> out_start_;  // n + 1
  std::vector<size_t> in_start_;   // n + 1
  std::vector<int> src_;           // per edge
  std::vector<int> dst_;           // per edge
  std::vector<int> in_slot_;       // per edge
  std::vector<int> in_src_;        // per flat in-slot: the in-neighbor
};

class GraphBuilder {
 public:
  explicit GraphBuilder(int num_vertices);

  int num_vertices() const { return n_; }

  // Records the directed edge (u, v), with no lookup: Build() drops
  // repeats.
  void AddEdge(int u, int v);

  // O(V + E): a stable counting sort by source gives the out-CSR (a
  // vertex-stamped pass keeps each edge's first occurrence), and a stable
  // counting sort by destination, in insertion order, the in-CSR.
  Graph Build() const;

 private:
  int n_;
  std::vector<std::pair<int, int>> edges_;  // insertion order
};

// §3.7 degree bucketing: assigns each vertex the smallest bucket whose
// threshold covers the vertex's max degree. thresholds must be ascending;
// the last bucket is unbounded. Returns the bucket index per vertex.
std::vector<int> DegreeBuckets(const Graph& g, const std::vector<int>& thresholds);

}  // namespace dstress::graph

#endif  // SRC_GRAPH_GRAPH_H_
