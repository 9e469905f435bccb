// Tests for the Section 3 point-indexing pipeline: all four search
// strategies return bit-identical aggregates and id lists for any cell
// order; conservative query cells give
// counts >= exact; result ranges always contain the exact answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "data/regions.h"
#include "join/point_index_join.h"
#include "join/result_range.h"
#include "test_util.h"
#include "util/determinism.h"

namespace dbsa::join {
namespace {

struct PiSetup {
  raster::Grid grid{{0, 0}, 512.0};
  std::vector<geom::Point> pts;
  std::vector<double> attrs;
};

PiSetup MakeSetup(size_t n, uint64_t seed) {
  PiSetup s;
  s.pts = dbsa::testing::RandomPoints(geom::Box(5, 5, 507, 507), n, seed);
  Rng rng(seed + 1);
  for (size_t i = 0; i < n; ++i) s.attrs.push_back(rng.Uniform(0, 2));
  return s;
}

constexpr SearchStrategy kAllStrategies[] = {
    SearchStrategy::kBinarySearch, SearchStrategy::kRadixSpline,
    SearchStrategy::kBTree, SearchStrategy::kSortedSweep};

uint64_t Bits(double v) { return util::BitCast<uint64_t>(v); }

// Every strategy must return the exact lower_bound positions, so every
// CellAggregate field — compensated sums included — and every id list is
// bit-identical to binary search's, whatever the cell order.
void ExpectStrategiesIdentical(const PointIndex& index,
                               const std::vector<raster::HrCell>& cells,
                               const std::string& what) {
  const CellAggregate ref =
      index.QueryCells(cells.data(), cells.size(), SearchStrategy::kBinarySearch);
  std::vector<uint32_t> ref_ids;
  index.SelectIds(cells.data(), cells.size(), SearchStrategy::kBinarySearch,
                  &ref_ids);
  ASSERT_EQ(ref.count, static_cast<double>(ref_ids.size())) << what;
  for (const SearchStrategy s : kAllStrategies) {
    const CellAggregate agg = index.QueryCells(cells.data(), cells.size(), s);
    const std::string label = what + " / " + SearchStrategyName(s);
    ASSERT_EQ(Bits(agg.count), Bits(ref.count)) << label;
    ASSERT_EQ(Bits(agg.sum), Bits(ref.sum)) << label;
    ASSERT_EQ(Bits(agg.sum_comp), Bits(ref.sum_comp)) << label;
    ASSERT_EQ(Bits(agg.boundary_count), Bits(ref.boundary_count)) << label;
    ASSERT_EQ(Bits(agg.boundary_sum), Bits(ref.boundary_sum)) << label;
    ASSERT_EQ(Bits(agg.boundary_sum_comp), Bits(ref.boundary_sum_comp)) << label;
    ASSERT_EQ(agg.query_cells, ref.query_cells) << label;
    ASSERT_EQ(agg.searches, ref.searches) << label;
    std::vector<uint32_t> ids = {7u};  // SelectIds appends.
    ASSERT_EQ(index.SelectIds(cells.data(), cells.size(), s, &ids), ref_ids.size())
        << label;
    ASSERT_EQ(ids.front(), 7u) << label;
    ASSERT_TRUE(std::equal(ids.begin() + 1, ids.end(), ref_ids.begin(), ref_ids.end()))
        << label;
  }
}

// The cells in order, then a seeded shuffle of them.
void ExpectIdenticalInAnyOrder(const PointIndex& index,
                               std::vector<raster::HrCell> cells,
                               const std::string& what, uint64_t seed) {
  ExpectStrategiesIdentical(index, cells, what);
  Rng rng(seed);
  for (size_t i = cells.size(); i > 1; --i) {
    std::swap(cells[i - 1], cells[rng.Below(i)]);
  }
  ExpectStrategiesIdentical(index, cells, what + " shuffled");
}

TEST(PointIndexTest, StrategiesAgree) {
  const PiSetup s = MakeSetup(20000, 1);
  const PointIndex index(s.pts.data(), s.attrs.data(), s.pts.size(), s.grid);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const geom::Polygon poly =
        dbsa::testing::MakeStarPolygon({256, 256}, 60, 150, 18, seed);
    const raster::HierarchicalRaster hr =
        raster::HierarchicalRaster::BuildEpsilon(poly, s.grid, 4.0);
    ExpectIdenticalInAnyOrder(index, hr.cells(), "star seed " + std::to_string(seed),
                              seed);
  }
}

TEST(PointIndexTest, StrategiesAgreeOnCensusRegions) {
  data::RegionConfig config = data::CensusConfig(geom::Box(0, 0, 4096, 4096), 40);
  config.seed = 11;
  const data::RegionSet regions = data::GenerateRegions(config);
  const raster::Grid grid = raster::Grid::Covering(regions.Bounds());
  std::vector<geom::Point> pts =
      dbsa::testing::RandomPoints(regions.Bounds(), 30000, 21);
  // A dense hot spot, so some query cells hold long runs of keys.
  const std::vector<geom::Point> hot =
      dbsa::testing::RandomPoints(geom::Box(1000, 1000, 1040, 1040), 5000, 22);
  pts.insert(pts.end(), hot.begin(), hot.end());
  Rng rng(23);
  std::vector<double> attrs;
  for (size_t i = 0; i < pts.size(); ++i) attrs.push_back(rng.Uniform(0, 50));
  const PointIndex index(pts.data(), attrs.data(), pts.size(), grid);
  for (size_t i = 0; i < regions.polys.size(); ++i) {
    for (const double eps : {4.0, 16.0, 64.0}) {
      const raster::HierarchicalRaster hr =
          raster::HierarchicalRaster::BuildEpsilon(regions.polys[i], grid, eps);
      ExpectIdenticalInAnyOrder(
          index, hr.cells(),
          "region " + std::to_string(i) + " eps " + std::to_string(eps), i + 1);
    }
  }
}

TEST(PointIndexTest, StrategiesAgreeOnNestedAndRepeatedCells) {
  const PiSetup s = MakeSetup(20000, 7);
  const PointIndex index(s.pts.data(), s.attrs.data(), s.pts.size(), s.grid);
  const geom::Polygon poly = dbsa::testing::MakeStarPolygon({256, 256}, 60, 150, 18, 3);
  const raster::HierarchicalRaster hr =
      raster::HierarchicalRaster::BuildEpsilon(poly, s.grid, 8.0);
  ASSERT_GT(hr.cells().size(), 8u);
  // Each cell followed by itself, its parent and its first child, so the
  // sweep's cursor runs past keys the next cell needs again.
  std::vector<raster::HrCell> cells;
  for (const raster::HrCell& cell : hr.cells()) {
    cells.push_back(cell);
    cells.push_back(cell);
    cells.push_back({cell.id.Parent(), !cell.boundary});
    if (cell.id.level() < raster::CellId::kMaxLevel) {
      cells.push_back({cell.id.Child(0), cell.boundary});
    }
  }
  // A whole-universe cell, then its four quadrants in reverse order.
  const raster::CellId root = raster::CellId::FromXY(0, 0, 0);
  cells.push_back({root, false});
  for (int q = 3; q >= 0; --q) cells.push_back({root.Child(q), q % 2 == 0});
  ExpectIdenticalInAnyOrder(index, cells, "nested", 31);
}

TEST(PointIndexTest, StrategiesAgreeAtKeyArrayEnds) {
  // Points confined to the middle of the universe, so cells before the
  // first key and after the last key select nothing.
  const raster::Grid grid({0, 0}, 512.0);
  const std::vector<geom::Point> pts =
      dbsa::testing::RandomPoints(geom::Box(200, 200, 300, 300), 3000, 41);
  const std::vector<double> attrs(pts.size(), 0.1);
  const PointIndex index(pts.data(), attrs.data(), pts.size(), grid);
  const uint64_t last_leaf = (uint64_t{1} << (2 * raster::CellId::kMaxLevel)) - 1;
  const raster::CellId first = raster::CellId::FromLeafKey(0);
  const raster::CellId last = raster::CellId::FromLeafKey(last_leaf);
  const raster::CellId middle = raster::CellId::FromLeafKey(grid.LeafKey({250, 250}));
  std::vector<raster::HrCell> cells;
  for (const int level : {raster::CellId::kMaxLevel, 12, 4, 1}) {
    cells.push_back({first.Parent(level), false});
  }
  cells.push_back({middle.Parent(6), true});
  for (const int level : {1, 4, 12, raster::CellId::kMaxLevel}) {
    cells.push_back({last.Parent(level), true});
  }
  ExpectIdenticalInAnyOrder(index, cells, "ends", 42);
  const CellAggregate before =
      index.QueryCellRange(first.Parent(4), SearchStrategy::kSortedSweep);
  const CellAggregate after =
      index.QueryCellRange(last.Parent(4), SearchStrategy::kSortedSweep);
  EXPECT_EQ(before.count, 0.0);
  EXPECT_EQ(after.count, 0.0);
  EXPECT_EQ(index.QueryCellRange(raster::CellId::FromXY(0, 0, 0),
                                 SearchStrategy::kSortedSweep)
                .count,
            static_cast<double>(pts.size()));
}

TEST(PointIndexTest, StrategiesAgreeOnEmptyIndex) {
  const raster::Grid grid({0, 0}, 512.0);
  const PointIndex index(nullptr, nullptr, 0, grid);
  const geom::Polygon poly = dbsa::testing::MakeStarPolygon({256, 256}, 60, 150, 18, 4);
  const raster::HierarchicalRaster hr =
      raster::HierarchicalRaster::BuildEpsilon(poly, grid, 8.0);
  ExpectIdenticalInAnyOrder(index, hr.cells(), "empty", 51);
  for (const SearchStrategy s : kAllStrategies) {
    const CellAggregate agg = index.QueryCells(hr, s);
    EXPECT_EQ(agg.count, 0.0) << SearchStrategyName(s);
    EXPECT_EQ(agg.query_cells, hr.cells().size()) << SearchStrategyName(s);
  }
}

TEST(PointIndexTest, StrategiesAgreeOnManyPointsInOneLeaf) {
  // A duplicate run far longer than the spline's error window, flanked by
  // points in the neighbouring leaf cells.
  const raster::Grid grid({0, 0}, 512.0);
  const geom::Point spot{256.0, 256.0};
  std::vector<geom::Point> pts(20000, spot);
  const std::vector<geom::Point> around =
      dbsa::testing::RandomPoints(geom::Box(255.9, 255.9, 256.1, 256.1), 2000, 61);
  pts.insert(pts.end(), around.begin(), around.end());
  Rng rng(62);
  std::vector<double> attrs;
  for (size_t i = 0; i < pts.size(); ++i) attrs.push_back(rng.Uniform(0, 3));
  const PointIndex index(pts.data(), attrs.data(), pts.size(), grid);
  const raster::CellId leaf = raster::CellId::FromLeafKey(grid.LeafKey(spot));
  std::vector<raster::HrCell> cells;
  for (int level = raster::CellId::kMaxLevel; level >= 14; --level) {
    cells.push_back({leaf.Parent(level), level % 3 == 0});
  }
  ExpectIdenticalInAnyOrder(index, cells, "one leaf", 63);
  EXPECT_GE(index.QueryCellRange(leaf, SearchStrategy::kSortedSweep).count, 20000.0);
}

TEST(PointIndexTest, ConservativeCountsBracketExact) {
  const PiSetup s = MakeSetup(30000, 2);
  const PointIndex index(s.pts.data(), s.attrs.data(), s.pts.size(), s.grid);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const geom::Polygon poly =
        dbsa::testing::MakeStarPolygon({256, 256}, 60, 150, 18, seed);
    size_t exact = 0;
    for (const geom::Point& p : s.pts) {
      if (poly.bounds().Contains(p) && poly.Contains(p)) ++exact;
    }
    const raster::HierarchicalRaster hr =
        raster::HierarchicalRaster::BuildEpsilon(poly, s.grid, 4.0);
    const CellAggregate agg = index.QueryCells(hr, SearchStrategy::kRadixSpline);
    // Conservative: count >= exact; over-count confined to boundary cells.
    EXPECT_GE(agg.count + 1e-9, static_cast<double>(exact)) << "seed " << seed;
    EXPECT_LE(agg.count - agg.boundary_count, static_cast<double>(exact) + 1e-9)
        << "interior-only count must under-count";
  }
}

TEST(PointIndexTest, ResultRangeAlwaysContainsExact) {
  const PiSetup s = MakeSetup(30000, 3);
  const PointIndex index(s.pts.data(), s.attrs.data(), s.pts.size(), s.grid);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const geom::Polygon poly =
        dbsa::testing::MakeStarPolygon({200 + 10.0 * seed, 256}, 50, 140, 16, seed);
    size_t exact_count = 0;
    double exact_sum = 0;
    for (size_t i = 0; i < s.pts.size(); ++i) {
      if (poly.bounds().Contains(s.pts[i]) && poly.Contains(s.pts[i])) {
        ++exact_count;
        exact_sum += s.attrs[i];
      }
    }
    const raster::HierarchicalRaster hr =
        raster::HierarchicalRaster::BuildEpsilon(poly, s.grid, 8.0);
    const CellAggregate agg = index.QueryCells(hr, SearchStrategy::kBinarySearch);
    const ResultRange count_range = CountRange(agg);
    const ResultRange sum_range = SumRange(agg);
    EXPECT_TRUE(count_range.Contains(static_cast<double>(exact_count)))
        << "seed " << seed << " range [" << count_range.lo << "," << count_range.hi
        << "] exact " << exact_count;
    EXPECT_TRUE(sum_range.Contains(exact_sum)) << "seed " << seed;
    // The beta estimate lands inside the guaranteed interval.
    EXPECT_GE(count_range.estimate, count_range.lo - 1e-9);
    EXPECT_LE(count_range.estimate, count_range.hi + 1e-9);
  }
}

TEST(PointIndexTest, TighterEpsilonShrinksRange) {
  const PiSetup s = MakeSetup(30000, 4);
  const PointIndex index(s.pts.data(), s.attrs.data(), s.pts.size(), s.grid);
  const geom::Polygon poly = dbsa::testing::MakeStarPolygon({256, 256}, 60, 150, 18, 5);
  double prev_width = 1e300;
  for (const double eps : {32.0, 8.0, 2.0}) {
    const raster::HierarchicalRaster hr =
        raster::HierarchicalRaster::BuildEpsilon(poly, s.grid, eps);
    const CellAggregate agg = index.QueryCells(hr, SearchStrategy::kBinarySearch);
    const ResultRange range = CountRange(agg);
    EXPECT_LT(range.Width(), prev_width) << "eps " << eps;
    prev_width = range.Width();
  }
}

TEST(PointIndexTest, BudgetQueryPolygonPath) {
  const PiSetup s = MakeSetup(10000, 5);
  const PointIndex index(s.pts.data(), s.attrs.data(), s.pts.size(), s.grid);
  const geom::Polygon poly = dbsa::testing::MakeStarPolygon({256, 256}, 60, 150, 18, 6);
  size_t prev_cells = 0;
  double prev_err = 1e300;
  size_t exact = 0;
  for (const geom::Point& p : s.pts) {
    if (poly.bounds().Contains(p) && poly.Contains(p)) ++exact;
  }
  for (const size_t budget : {32u, 128u, 512u}) {
    const CellAggregate agg =
        index.QueryPolygon(poly, budget, SearchStrategy::kRadixSpline);
    EXPECT_LE(agg.query_cells, budget);
    EXPECT_GT(agg.query_cells, prev_cells);
    prev_cells = agg.query_cells;
    const double err = std::fabs(agg.count - static_cast<double>(exact));
    EXPECT_LE(err, prev_err + 1.0) << "budget " << budget;
    prev_err = err;
  }
  // At 512 cells the count is close to exact (Figure 4(b)'s message).
  EXPECT_LT(prev_err / static_cast<double>(exact), 0.12);
}

TEST(PointIndexTest, MemoryAccounting) {
  const PiSetup s = MakeSetup(5000, 6);
  const PointIndex index(s.pts.data(), s.attrs.data(), s.pts.size(), s.grid);
  const size_t bs = index.MemoryBytes(SearchStrategy::kBinarySearch);
  const size_t rs = index.MemoryBytes(SearchStrategy::kRadixSpline);
  const size_t bt = index.MemoryBytes(SearchStrategy::kBTree);
  const size_t sweep = index.MemoryBytes(SearchStrategy::kSortedSweep);
  EXPECT_GT(bs, 0u);
  EXPECT_GT(rs, bs);  // Spline + radix table on top of the keys.
  EXPECT_GT(bt, bs);
  EXPECT_EQ(sweep, bs);  // The sweep reads only the sorted keys.
}

}  // namespace
}  // namespace dbsa::join
