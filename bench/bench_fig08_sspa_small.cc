// Figure 8: CPU time vs. capacity k on a small in-memory problem, SSPA
// against RIA/NIA/IDA (paper: |Q|=250, |P|=25K, memory-resident R-tree).
//
// Two SSPA columns:
//   * SSPA-ref is the paper's main-memory SSPA: the index-free reference
//     scan (SspaConfig::use_grid = false), which scans every customer on
//     every provider pop and is never seeded. The paper's claim, that the
//     incremental algorithms beat SSPA by 1-3 orders of magnitude across
//     all k, is a claim against this column. At reduced scale the gap is
//     smaller and depends on k: at 0.1x on a 4-core x86 VM, IDA ran 15-130x
//     faster than SSPA-ref at k=20, 40 and 320, but only 1.6x at k=80 and
//     160, where total capacity k|Q| is within a factor of two of |P|.
//   * SSPA is this repository's production path: the hierarchical ring
//     relax, seeded from coarse and fine concise levels when capacity is
//     ample (k=160 and k=320 here). Its pruning is not in the paper, and it
//     runs about as fast as the fastest of RIA/NIA/IDA, or faster, so it is
//     no baseline for the paper's claim.
//
// Every solver here is exact, so each row is also a check: the bench exits
// 1 when the SSPA-ref, SSPA, RIA, NIA and IDA costs of a row differ by more
// than 1e-6 relative, or when CertifyOptimal rejects the SSPA solve's duals.
#include <algorithm>
#include <cmath>

#include "bench_util.h"
#include "flow/oracle.h"
#include "flow/sspa.h"

int main() {
  using namespace cca;
  using namespace cca::bench;

  const std::size_t nq = Scaled(250);
  const std::size_t np = Scaled(25000);
  Banner("Figure 8", "CPU time vs k; SSPA vs RIA/NIA/IDA on a small in-memory problem",
         "RIA/NIA/IDA are 1-3 orders of magnitude faster than SSPA-ref, the paper's SSPA "
         "(SSPA is the pruned, seeded production path, not the paper's)");
  std::printf("|Q|=%zu |P|=%zu (paper: 250 / 25K)\n\n", nq, np);
  std::printf("%-8s %10s %10s %10s %10s %10s %12s\n", "k", "SSPA-ref_s", "SSPA_s", "RIA_s",
              "NIA_s", "IDA_s", "cost");

  // In-memory setting: buffer the whole tree (no I/O column in Fig. 8).
  Workload w = BuildWorkload(nq, np, 80, 8001);
  w.db->tree()->buffer().SetCapacity(w.db->tree()->page_count() + 1);
  w.db->Prewarm();
  const ExactConfig config = DefaultExactConfig(np);
  SspaConfig reference;
  reference.use_grid = false;

  for (const int k : {20, 40, 80, 160, 320}) {
    SetCapacities(&w, FixedCapacities(nq, k));
    const SspaResult sspa_ref = SolveSspa(w.problem, reference);
    const SspaResult sspa = SolveSspa(w.problem);
    const ExactResult ria = SolveRia(w.problem, w.db.get(), config);
    const ExactResult nia = SolveNia(w.problem, w.db.get(), config);
    const ExactResult ida = SolveIda(w.problem, w.db.get(), config);

    std::printf("%-8d %10.3f %10.3f %10.3f %10.3f %10.3f %12.0f\n", k,
                sspa_ref.metrics.cpu_millis / 1000.0, sspa.metrics.cpu_millis / 1000.0,
                ria.metrics.cpu_millis / 1000.0, nia.metrics.cpu_millis / 1000.0,
                ida.metrics.cpu_millis / 1000.0, ida.matching.cost());
    std::fflush(stdout);
    const double want = sspa.matching.cost();
    for (const double got : {sspa_ref.matching.cost(), ria.matching.cost(), nia.matching.cost(),
                             ida.matching.cost()}) {
      if (std::abs(got - want) > 1e-6 * std::max(1.0, want)) {
        std::fprintf(stderr,
                     "COST MISMATCH k=%d: SSPA-ref %.6f SSPA %.6f RIA %.6f NIA %.6f IDA %.6f\n",
                     k, sspa_ref.matching.cost(), want, ria.matching.cost(),
                     nia.matching.cost(), ida.matching.cost());
        return 1;
      }
    }
    const Status certified = CertifyOptimal(w.problem, sspa.matching, sspa.potentials);
    if (!certified.ok()) {
      std::fprintf(stderr, "SSPA NOT CERTIFIED k=%d: %s\n", k, certified.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
