#include "src/graph/generators.h"

#include <algorithm>

#include "src/common/check.h"

namespace dstress::graph {

Graph GenerateCorePeriphery(const CorePeripheryParams& params, Rng& rng) {
  DSTRESS_CHECK(params.core_size >= 2 && params.core_size <= params.num_vertices);
  DSTRESS_CHECK(params.max_core_links >= 1);
  GraphBuilder g(params.num_vertices);
  // Dense core: vertices [0, core_size).
  for (int u = 0; u < params.core_size; u++) {
    for (int v = u + 1; v < params.core_size; v++) {
      if (rng.Uniform() < params.core_density) {
        g.AddEdge(u, v);
        g.AddEdge(v, u);
      }
    }
  }
  // Make sure the core is connected even at low densities: chain fallback.
  for (int u = 0; u + 1 < params.core_size; u++) {
    g.AddEdge(u, u + 1);
    g.AddEdge(u + 1, u);
  }
  // Periphery: each bank links to 1..max_core_links distinct core banks.
  for (int v = params.core_size; v < params.num_vertices; v++) {
    int links = static_cast<int>(rng.Range(1, params.max_core_links));
    for (int l = 0; l < links; l++) {
      int core = static_cast<int>(rng.Below(static_cast<uint64_t>(params.core_size)));
      g.AddEdge(v, core);
      g.AddEdge(core, v);
    }
  }
  return g.Build();
}

Graph GenerateScaleFree(int num_vertices, int links_per_vertex, Rng& rng) {
  DSTRESS_CHECK(links_per_vertex >= 1);
  DSTRESS_CHECK(num_vertices > links_per_vertex);
  GraphBuilder g(num_vertices);
  // Repeated-endpoint list realizes preferential attachment: a vertex
  // appears once per incident link, so sampling the list is
  // degree-proportional.
  std::vector<int> endpoints;
  // Seed clique over the first links_per_vertex + 1 vertices.
  int seed = links_per_vertex + 1;
  for (int u = 0; u < seed; u++) {
    for (int v = u + 1; v < seed; v++) {
      g.AddEdge(u, v);
      g.AddEdge(v, u);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  // An arriving vertex is in no edge yet, so its links so far are the only
  // possible repeats, and no mirror edge (target, v) can exist already.
  std::vector<int> targets;
  for (int v = seed; v < num_vertices; v++) {
    targets.clear();
    // Retry loop handles duplicate targets.
    while (static_cast<int>(targets.size()) < links_per_vertex) {
      int target = endpoints[rng.Below(endpoints.size())];
      if (target == v || std::find(targets.begin(), targets.end(), target) != targets.end()) {
        continue;
      }
      targets.push_back(target);
      g.AddEdge(v, target);
      g.AddEdge(target, v);
      endpoints.push_back(v);
      endpoints.push_back(target);
    }
  }
  return g.Build();
}

Graph GenerateErdosRenyi(int num_vertices, double edge_probability, Rng& rng) {
  GraphBuilder g(num_vertices);
  for (int u = 0; u < num_vertices; u++) {
    for (int v = u + 1; v < num_vertices; v++) {
      if (rng.Uniform() < edge_probability) {
        g.AddEdge(u, v);
        g.AddEdge(v, u);
      }
    }
  }
  return g.Build();
}

Graph CapDegree(const Graph& g, int max_degree) {
  DSTRESS_CHECK(max_degree >= 1);
  GraphBuilder capped(g.num_vertices());
  std::vector<int> out_count(g.num_vertices(), 0);
  std::vector<int> in_count(g.num_vertices(), 0);
  for (auto [u, v] : g.Edges()) {
    if (out_count[u] < max_degree && in_count[v] < max_degree) {
      out_count[u]++;
      in_count[v]++;
      capped.AddEdge(u, v);
    }
  }
  return capped.Build();
}

}  // namespace dstress::graph
