// MICRO — google-benchmark micro-benchmarks for the primitive operations
// whose costs explain the figure-level results:
//   * PIP cost vs polygon vertex count (drives Figure 6's ordering),
//   * rasterization throughput (the "compute approximations on the fly"
//     claim of Section 1),
//   * Morton vs Hilbert encode, and
//   * RS vs BS vs B+-tree lookup latency (Figure 4a's inner loop).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "sfc/hilbert.h"

namespace dbsa {
namespace {

geom::Polygon testing_polygon(int vertices);

void BM_PointInPolygon(benchmark::State& state) {
  const int vertices = static_cast<int>(state.range(0));
  const geom::Polygon poly = testing_polygon(vertices);
  Rng rng(7);
  std::vector<geom::Point> probes;
  for (int i = 0; i < 1024; ++i) {
    probes.push_back({rng.Uniform(poly.bounds().min.x, poly.bounds().max.x),
                      rng.Uniform(poly.bounds().min.y, poly.bounds().max.y)});
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(poly.Contains(probes[i++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
}

// Regular star-ish polygon with the requested vertex count.
geom::Polygon testing_polygon(int vertices) {
  Rng rng(42);
  geom::Ring ring;
  for (int i = 0; i < vertices; ++i) {
    const double angle = 2.0 * 3.141592653589793 * i / vertices;
    const double r = rng.Uniform(800.0, 1000.0);
    ring.push_back({5000 + r * std::cos(angle), 5000 + r * std::sin(angle)});
  }
  geom::Polygon poly(std::move(ring));
  poly.Normalize();
  return poly;
}

void BM_RasterizePolygon(benchmark::State& state) {
  const geom::Polygon poly = testing_polygon(64);
  const raster::Grid grid({0, 0}, 16384.0);
  const int level = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(raster::RasterizePolygon(poly, grid, level));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_HrBuildEpsilon(benchmark::State& state) {
  const geom::Polygon poly = testing_polygon(64);
  const raster::Grid grid({0, 0}, 16384.0);
  const double eps = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(raster::HierarchicalRaster::BuildEpsilon(poly, grid, eps));
  }
}

void BM_MortonEncode(benchmark::State& state) {
  Rng rng(1);
  uint32_t x = static_cast<uint32_t>(rng.Next());
  uint32_t y = static_cast<uint32_t>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sfc::MortonEncode(x, y));
    x += 77;
    y += 131;
  }
}

void BM_HilbertEncode(benchmark::State& state) {
  Rng rng(1);
  uint32_t x = static_cast<uint32_t>(rng.Next()) & 0xffffff;
  uint32_t y = static_cast<uint32_t>(rng.Next()) & 0xffffff;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sfc::HilbertEncode(x & 0xffffff, y & 0xffffff, 24));
    x += 77;
    y += 131;
  }
}

struct LookupFixture {
  join::PointIndex index;
  std::vector<uint64_t> probes;

  static LookupFixture& Get() {
    static LookupFixture* fixture = [] {
      auto* f = new LookupFixture{
          [] {
            const data::PointSet points = bench::BenchPoints(1000000);
            const raster::Grid grid({0, 0}, 16384.0);
            return join::PointIndex(points.locs.data(), nullptr, points.size(), grid);
          }(),
          {}};
      Rng rng(3);
      const raster::Grid grid({0, 0}, 16384.0);
      for (int i = 0; i < 4096; ++i) {
        f->probes.push_back(grid.LeafKey(
            {rng.Uniform(0, 16384), rng.Uniform(0, 16384)}));
      }
      return f;
    }();
    return *fixture;
  }
};

void BM_LookupSearchStrategy(benchmark::State& state) {
  LookupFixture& f = LookupFixture::Get();
  const auto strategy = static_cast<join::SearchStrategy>(state.range(0));
  // Drive through QueryCells on a singleton cell per probe key. A
  // singleton gives kSortedSweep no cursor to resume from, so its row is
  // the sweep's cold-start cost: a galloping search from position 0.
  size_t i = 0;
  for (auto _ : state) {
    const uint64_t key = f.probes[i++ & 4095];
    const raster::CellId cell = raster::CellId::FromLeafKey(key).Parent(18);
    benchmark::DoNotOptimize(f.index.QueryCellRange(cell, strategy));
  }
}

}  // namespace
}  // namespace dbsa

BENCHMARK(dbsa::BM_PointInPolygon)->Arg(14)->Arg(31)->Arg(128)->Arg(663);
BENCHMARK(dbsa::BM_RasterizePolygon)->Arg(8)->Arg(10)->Arg(12);
BENCHMARK(dbsa::BM_HrBuildEpsilon)->Arg(64)->Arg(16)->Arg(4);
BENCHMARK(dbsa::BM_MortonEncode);
BENCHMARK(dbsa::BM_HilbertEncode);
BENCHMARK(dbsa::BM_LookupSearchStrategy)
    ->Arg(static_cast<int>(dbsa::join::SearchStrategy::kBinarySearch))
    ->Arg(static_cast<int>(dbsa::join::SearchStrategy::kRadixSpline))
    ->Arg(static_cast<int>(dbsa::join::SearchStrategy::kBTree))
    ->Arg(static_cast<int>(dbsa::join::SearchStrategy::kSortedSweep));

BENCHMARK_MAIN();
