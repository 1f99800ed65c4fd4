// Micro-benchmarks for the R-tree substrate (google-benchmark).
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "rtree/nn_iterator.h"
#include "rtree/rtree.h"

namespace {

std::vector<cca::Point> MakePoints(std::size_t n) {
  cca::Rng rng(12345);
  std::vector<cca::Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(cca::Point{rng.Uniform(0, 1000), rng.Uniform(0, 1000)});
  }
  return pts;
}

void BM_BulkLoad(benchmark::State& state) {
  const auto pts = MakePoints(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto tree = cca::RTree::BulkLoad(pts);
    benchmark::DoNotOptimize(tree->root());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BulkLoad)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RangeSearch(benchmark::State& state) {
  const auto pts = MakePoints(100000);
  auto tree = cca::RTree::BulkLoad(pts);
  tree->buffer().SetCapacity(tree->page_count() + 1);
  const double radius = static_cast<double>(state.range(0));
  cca::Rng rng(7);
  std::vector<cca::RTree::Hit> hits;
  for (auto _ : state) {
    const cca::Point c{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    tree->RangeSearch(c, radius, &hits);
    benchmark::DoNotOptimize(hits.size());
  }
}
BENCHMARK(BM_RangeSearch)->Arg(5)->Arg(50)->Arg(200);

void BM_IncrementalNnStream(benchmark::State& state) {
  const auto pts = MakePoints(100000);
  auto tree = cca::RTree::BulkLoad(pts);
  tree->buffer().SetCapacity(tree->page_count() + 1);
  const auto advances = static_cast<std::size_t>(state.range(0));
  cca::Rng rng(9);
  for (auto _ : state) {
    cca::NnIterator it(tree.get(), {rng.Uniform(0, 1000), rng.Uniform(0, 1000)});
    for (std::size_t i = 0; i < advances; ++i) benchmark::DoNotOptimize(it.Next());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(advances));
}
BENCHMARK(BM_IncrementalNnStream)->Arg(10)->Arg(100)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
