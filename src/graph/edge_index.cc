#include "src/graph/edge_index.h"

#include <utility>

namespace dstress::graph {

EdgeIndex::EdgeIndex(const Graph& graph) {
  const int n = graph.num_vertices();
  const size_t vertices = static_cast<size_t>(n);
  out_start_.assign(vertices + 1, 0);
  in_start_.assign(vertices + 1, 0);
  for (int v = 0; v < n; v++) {
    const size_t i = static_cast<size_t>(v);
    out_start_[i + 1] = out_start_[i] + static_cast<size_t>(graph.OutDegree(v));
    in_start_[i + 1] = in_start_[i] + static_cast<size_t>(graph.InDegree(v));
  }
  const size_t num_edges = out_start_[vertices];
  dst_.reserve(num_edges);
  for (int u = 0; u < n; u++) {
    dst_.insert(dst_.end(), graph.OutNeighbors(u).begin(), graph.OutNeighbors(u).end());
  }

  // Mirror slots without a per-edge scan. Bucket every in-list entry
  // (v, d) by its source u — u has exactly out_degree(u) of them, so the
  // buckets reuse out_start_ as offsets — then, per source, note each
  // destination's slot in a vertex-indexed scratch table and read it back
  // in out-slot order. Every table entry read was written for the same
  // source (destinations of one source are distinct), so the table is
  // never cleared.
  std::vector<size_t> fill(out_start_.begin(), out_start_.end() - 1);
  std::vector<std::pair<int, int>> by_source(num_edges);  // (dst, in-slot)
  for (int v = 0; v < n; v++) {
    const std::vector<int>& in = graph.InNeighbors(v);
    for (size_t d = 0; d < in.size(); d++) {
      by_source[fill[static_cast<size_t>(in[d])]++] = {v, static_cast<int>(d)};
    }
  }
  std::vector<int> slot_of(vertices, 0);
  in_slot_.resize(num_edges);
  for (int u = 0; u < n; u++) {
    const size_t begin = out_start(u);
    const size_t end = out_start(u + 1);
    for (size_t k = begin; k < end; k++) {
      slot_of[static_cast<size_t>(by_source[k].first)] = by_source[k].second;
    }
    for (size_t e = begin; e < end; e++) {
      in_slot_[e] = slot_of[static_cast<size_t>(dst_[e])];
    }
  }
}

}  // namespace dstress::graph
