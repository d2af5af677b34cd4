#include "src/graph/graph.h"

#include <algorithm>

#include "src/common/check.h"

namespace dstress::graph {

int Graph::MaxDegree() const {
  int max_degree = 0;
  for (int v = 0; v < num_vertices(); v++) {
    max_degree = std::max(max_degree, std::max(OutDegree(v), InDegree(v)));
  }
  return max_degree;
}

std::vector<std::pair<int, int>> Graph::Edges() const {
  std::vector<std::pair<int, int>> edges(dst_.size());
  for (size_t e = 0; e < edges.size(); e++) {
    edges[e] = {src_[e], dst_[e]};
  }
  return edges;
}

GraphBuilder::GraphBuilder(int num_vertices) : n_(num_vertices) {
  DSTRESS_CHECK(num_vertices > 0);
}

void GraphBuilder::AddEdge(int u, int v) {
  DSTRESS_CHECK(u >= 0 && u < n_ && v >= 0 && v < n_);
  DSTRESS_CHECK(u != v);
  edges_.emplace_back(u, v);
}

Graph GraphBuilder::Build() const {
  const size_t added = edges_.size();
  // Stable counting sort of the added edges by source.
  std::vector<size_t> fill(n_ + 1, 0);
  for (const auto& [u, v] : edges_) {
    fill[u + 1]++;
  }
  for (int u = 0; u < n_; u++) {
    fill[u + 1] += fill[u];
  }
  std::vector<size_t> by_source(added);
  for (size_t k = 0; k < added; k++) {
    by_source[fill[edges_[k].first]++] = k;
  }

  // Per source, keep the first edge to each destination: taken_by[v] == u
  // marks v as already linked from u. edge_of[k] is added edge k's edge
  // number, or -1 for a repeat.
  Graph g;
  g.out_start_.assign(n_ + 1, 0);
  g.in_start_.assign(n_ + 1, 0);
  g.src_.reserve(added);
  g.dst_.reserve(added);
  std::vector<int> taken_by(n_, -1);
  std::vector<int> edge_of(added, -1);
  for (size_t k : by_source) {
    const auto [u, v] = edges_[k];
    if (taken_by[v] != u) {
      taken_by[v] = u;
      edge_of[k] = static_cast<int>(g.dst_.size());
      g.src_.push_back(u);
      g.dst_.push_back(v);
      g.out_start_[u + 1]++;
      g.in_start_[v + 1]++;
    }
  }
  for (int v = 0; v < n_; v++) {
    g.out_start_[v + 1] += g.out_start_[v];
    g.in_start_[v + 1] += g.in_start_[v];
  }

  // Stable counting sort of the kept edges by destination, in insertion
  // order: an edge's rank in its destination's bucket is its in-slot.
  g.in_slot_.resize(g.dst_.size());
  g.in_src_.resize(g.dst_.size());
  fill.assign(g.in_start_.begin(), g.in_start_.end() - 1);
  for (size_t k = 0; k < added; k++) {
    if (edge_of[k] >= 0) {
      const auto [u, v] = edges_[k];
      g.in_src_[fill[v]] = u;
      g.in_slot_[edge_of[k]] = static_cast<int>(fill[v]++ - g.in_start_[v]);
    }
  }
  return g;
}

std::vector<int> DegreeBuckets(const Graph& g, const std::vector<int>& thresholds) {
  std::vector<int> buckets(g.num_vertices());
  for (int v = 0; v < g.num_vertices(); v++) {
    int degree = std::max(g.OutDegree(v), g.InDegree(v));
    int bucket = static_cast<int>(thresholds.size());  // unbounded last bucket
    for (size_t t = 0; t < thresholds.size(); t++) {
      if (degree <= thresholds[t]) {
        bucket = static_cast<int>(t);
        break;
      }
    }
    buckets[v] = bucket;
  }
  return buckets;
}

}  // namespace dstress::graph
