// Ablation study (ours, not a paper figure): isolates the contribution of
// each optimisation the paper proposes --
//   * PUA (Section 3.4.1): Dijkstra state reuse across edge insertions,
//   * grouped ANN search (Section 3.4.2): shared R-tree traversal,
//   * IDA's full-provider distance lift (Section 3.3): key lifting,
//   * RIA's theta: range-increment sensitivity (paper tunes it to 0.8).
#include "bench_util.h"

int main() {
  using namespace cca;
  using namespace cca::bench;

  const std::size_t nq = Scaled(1000);
  const std::size_t np = Scaled(100000);
  const int k = 80;
  Banner("Ablation", "contribution of PUA, ANN grouping, IDA distance lift, RIA theta",
         "each switch off should cost time and/or subgraph size, never optimality");
  std::printf("|Q|=%zu |P|=%zu k=%d\n\n", nq, np, k);

  Workload w = BuildWorkload(nq, np, k, 20001);
  ExactHeader();

  {
    ExactConfig config;
    ExactRow("default", "IDA",
             ColdRun(w.db.get(), [&] { return SolveIda(w.problem, w.db.get(), config); }));
  }
  {
    ExactConfig config;
    config.use_pua = false;
    ExactRow("-PUA", "IDA",
             ColdRun(w.db.get(), [&] { return SolveIda(w.problem, w.db.get(), config); }));
  }
  {
    ExactConfig config;
    config.discovery_backend = DiscoveryBackend::kRTreePlain;
    ExactRow("-ANN", "IDA",
             ColdRun(w.db.get(), [&] { return SolveIda(w.problem, w.db.get(), config); }));
  }
  {
    ExactConfig config;
    config.ida_distance_lift = false;
    ExactRow("-lift", "IDA",
             ColdRun(w.db.get(), [&] { return SolveIda(w.problem, w.db.get(), config); }));
  }
  {
    ExactConfig config;
    ExactRow("default", "NIA",
             ColdRun(w.db.get(), [&] { return SolveNia(w.problem, w.db.get(), config); }));
  }
  {
    ExactConfig config;
    config.use_pua = false;
    ExactRow("-PUA", "NIA",
             ColdRun(w.db.get(), [&] { return SolveNia(w.problem, w.db.get(), config); }));
  }
  std::printf("\nRIA theta sensitivity (paper fine-tunes theta to 0.8):\n");
  for (const double theta : {0.4, 0.8, 1.6, 3.2, 12.8}) {
    ExactConfig config;
    config.theta = theta;
    char label[32];
    std::snprintf(label, sizeof(label), "theta=%.1f", theta);
    ExactRow(label, "RIA",
             ColdRun(w.db.get(), [&] { return SolveRia(w.problem, w.db.get(), config); }));
  }
  return 0;
}
