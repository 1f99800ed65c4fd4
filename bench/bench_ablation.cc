// Exact-solver sensitivity study (ours, not a paper figure): the paper's
// IDA and NIA at their one configuration (PUA, grouped ANN search and, for
// IDA, the full-provider distance lift are always on), beside RIA's theta
// sweep -- the one exact-solver setting left to tune (the paper tunes it
// to 0.8).
#include "bench_util.h"

int main() {
  using namespace cca;
  using namespace cca::bench;

  const std::size_t nq = Scaled(1000);
  const std::size_t np = Scaled(100000);
  const int k = 80;
  Banner("Exact-solver sensitivity", "IDA and NIA as configured, RIA over theta",
         "equal costs on every row; theta moves only RIA's time and |Esub|");
  std::printf("|Q|=%zu |P|=%zu k=%d\n\n", nq, np, k);

  Workload w = BuildWorkload(nq, np, k, 20001);
  ExactHeader();

  const ExactConfig defaults;
  ExactRow("default", "IDA",
           ColdRun(w.db.get(), [&] { return SolveIda(w.problem, w.db.get(), defaults); }));
  ExactRow("default", "NIA",
           ColdRun(w.db.get(), [&] { return SolveNia(w.problem, w.db.get(), defaults); }));
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
