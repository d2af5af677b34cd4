// Federated graph statistics with the programs library: three analyses a
// consortium can release about a confidential communication graph — the
// kind of multi-domain analysis §3.1 motivates with criminal-intelligence
// and computational-social-science workloads.
//
//  1. Private census (programs::private_sum): noised total activity volume,
//     no propagation at all.
//  2. Influence diffusion (programs::influence): noised total influence
//     mass remaining after a truncated random walk from the seed accounts.
//  3. Component count (programs::components): noised number of disconnected
//     clusters, via min-label propagation.
//
// Every statistic is computed without any participant learning another's
// data or the graph topology, and released with differential privacy. Each
// analysis is an engine::RunSpec carrying a custom vertex program.
//
// Build & run:  ./build/examples/federated_graph_stats

#include <cstdio>

#include "src/engine/engine.h"
#include "src/programs/components.h"
#include "src/programs/influence.h"
#include "src/programs/private_sum.h"

namespace {

dstress::dp::NoiseCircuitSpec ModestNoise() {
  dstress::dp::NoiseCircuitSpec spec;
  spec.alpha = 0.5;  // eps = ln 2 at sensitivity 1
  spec.magnitude_bits = 8;
  spec.threshold_bits = 12;
  return spec;
}

}  // namespace

int main() {
  using namespace dstress;

  // A two-cluster communication graph: organizations 0..19 and 20..31,
  // symmetric links, no cross-cluster edges.
  graph::GraphBuilder builder(32);
  auto link = [&builder](int u, int v) {
    builder.AddEdge(u, v);
    builder.AddEdge(v, u);
  };
  for (int v = 1; v < 20; v++) {
    link(v, v < 4 ? 0 : v % 4);  // hub-ish first cluster around accounts 0..3
  }
  for (int v = 21; v < 32; v++) {
    link(v, 20 + (v - 20) / 3);
  }
  const graph::Graph g = builder.Build();
  std::printf("graph: %d accounts, %d directed links, max degree %d\n", g.num_vertices(),
              g.num_edges(), g.MaxDegree());

  // Shared run shape: the confidential prebuilt network, blocks of k+1 = 4,
  // a caller-supplied vertex program.
  engine::RunSpec base;
  base.graph = g;
  base.model = engine::ContagionModel::kCustom;
  base.block_size = 4;
  base.seed = 3;

  // --- 1. private census ------------------------------------------------
  std::vector<uint32_t> activity(32);
  uint64_t true_total = 0;
  for (int v = 0; v < 32; v++) {
    activity[v] = 50 + 13 * static_cast<uint32_t>(v);
    true_total += activity[v];
  }
  programs::PrivateSumParams sum_params;
  sum_params.degree_bound = g.MaxDegree();
  sum_params.noise = ModestNoise();
  {
    engine::RunSpec spec = base;
    spec.custom_program = programs::BuildPrivateSumProgram(sum_params);
    spec.custom_states = programs::MakePrivateSumStates(activity, sum_params.value_bits);
    engine::RunReport report = engine::Engine(spec).Run();
    std::printf("1. activity census:   released %lld   (true %llu)\n",
                static_cast<long long>(report.released),
                static_cast<unsigned long long>(true_total));
  }

  // --- 2. influence diffusion --------------------------------------------
  programs::InfluenceParams inf_params;
  inf_params.degree_bound = g.MaxDegree();
  inf_params.iterations = 3;
  inf_params.out_shift = 3;
  inf_params.keep_shift = 1;
  inf_params.noise = ModestNoise();
  std::vector<uint16_t> seeds(32, 0);
  seeds[0] = 8000;   // seed account in cluster 1
  seeds[20] = 2000;  // seed account in cluster 2
  {
    engine::RunSpec spec = base;
    spec.custom_program = programs::BuildInfluenceProgram(inf_params);
    spec.custom_states = programs::MakeInfluenceStates(seeds);
    engine::RunReport report = engine::Engine(spec).Run();
    auto reference = programs::PlaintextInfluence(g, seeds, inf_params);
    int64_t expected = 0;
    for (uint16_t mass : reference) {
      expected += mass;
    }
    std::printf("2. influence mass:    released %lld   (exact %lld)\n",
                static_cast<long long>(report.released), static_cast<long long>(expected));
  }

  // --- 3. component count -------------------------------------------------
  programs::ComponentsParams comp_params;
  comp_params.degree_bound = g.MaxDegree();
  comp_params.iterations = 6;
  comp_params.label_bits = 6;
  comp_params.noise = ModestNoise();
  {
    engine::RunSpec spec = base;
    spec.custom_program = programs::BuildComponentsProgram(comp_params);
    spec.custom_states =
        programs::MakeComponentsStates(g.num_vertices(), comp_params.label_bits);
    engine::RunReport report = engine::Engine(spec).Run();
    std::printf("3. cluster count:     released %lld   (true %d)\n",
                static_cast<long long>(report.released),
                programs::WeaklyConnectedComponents(g));
  }

  std::printf("\nall three figures were computed under MPC with secret-shared state,\n"
              "encrypted edge transfers, and in-MPC geometric output noise.\n");
  return 0;
}
