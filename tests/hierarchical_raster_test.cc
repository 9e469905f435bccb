// Tests for the hierarchical raster: cell disjointness, equivalence with
// the uniform raster's classification, cell-for-cell identity of the two
// epsilon builders, budget compliance and the epsilon bound in both
// construction modes.

#include <gtest/gtest.h>

#include <string>

#include "data/regions.h"
#include "raster/hierarchical_raster.h"
#include "raster/verify.h"
#include "test_util.h"

namespace dbsa::raster {
namespace {

using dbsa::testing::MakeRectPolygon;
using dbsa::testing::MakeStarPolygon;
using dbsa::testing::MakeStarPolygonWithHole;

TEST(HrTest, CellsAreDisjointAndSorted) {
  const Grid grid({0, 0}, 256.0);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const geom::Polygon star = MakeStarPolygon({128, 128}, 40, 90, 18, seed);
    const HierarchicalRaster hr = HierarchicalRaster::BuildEpsilon(star, grid, 4.0);
    const auto& cells = hr.cells();
    ASSERT_FALSE(cells.empty());
    for (size_t i = 1; i < cells.size(); ++i) {
      ASSERT_LT(cells[i - 1].id.id(), cells[i].id.id());
      // Disjoint: previous range ends before the next starts.
      ASSERT_LT(cells[i - 1].id.LeafKeyMax(), cells[i].id.LeafKeyMin())
          << "seed " << seed;
    }
  }
}

TEST(HrTest, ClassificationMatchesUniformRaster) {
  // HR must represent exactly the same region as the UR it was merged
  // from: same classification for random probes (modulo interior cells
  // reporting kInterior for merged areas).
  const Grid grid({0, 0}, 256.0);
  const double eps = 4.0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const geom::Polygon star = MakeStarPolygonWithHole({128, 128}, 40, 90, 18, seed);
    const UniformRaster ur = UniformRaster::Build(star, grid, eps);
    const HierarchicalRaster hr = HierarchicalRaster::BuildEpsilon(star, grid, eps);
    for (const geom::Point& p :
         dbsa::testing::RandomPoints(geom::Box(20, 20, 236, 236), 2000, seed)) {
      const CellKind ur_kind = ur.Classify(p, grid);
      const CellKind hr_kind = hr.Classify(p, grid);
      ASSERT_EQ(ur_kind == CellKind::kOutside, hr_kind == CellKind::kOutside)
          << "seed " << seed << " at " << p.x << "," << p.y;
      // Boundary cells are identical (same level, unmerged).
      ASSERT_EQ(ur_kind == CellKind::kBoundary, hr_kind == CellKind::kBoundary)
          << "seed " << seed;
    }
  }
}

TEST(HrTest, MergesReduceCellCount) {
  const Grid grid({0, 0}, 256.0);
  const geom::Polygon star = MakeStarPolygon({128, 128}, 40, 90, 18, 5);
  const UniformRaster ur = UniformRaster::Build(star, grid, 2.0);
  const HierarchicalRaster hr = HierarchicalRaster::BuildEpsilon(star, grid, 2.0);
  EXPECT_LT(hr.NumCells(), ur.NumCells());
  // Boundary cells are never merged.
  EXPECT_EQ(hr.NumBoundaryCells(), ur.cover().boundary.size());
}

TEST(HrTest, EpsilonBoundHolds) {
  const Grid grid({0, 0}, 256.0);
  for (const double eps : {16.0, 4.0}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      const geom::Polygon star = MakeStarPolygon({128, 128}, 40, 90, 16, seed);
      const HierarchicalRaster hr = HierarchicalRaster::BuildEpsilon(star, grid, eps);
      EXPECT_LE(hr.AchievedEpsilon(grid), eps * (1 + 1e-12));
      const BoundCheck check = CheckBound(star, grid, hr, eps * 0.25);
      EXPECT_LE(check.max_false_positive_dist, eps + 1e-9)
          << "eps " << eps << " seed " << seed;
      EXPECT_TRUE(check.covers_polygon);
    }
  }
}

class HrBudgetTest : public ::testing::TestWithParam<size_t> {};

TEST_P(HrBudgetTest, RespectsBudgetAndCovers) {
  const size_t budget = GetParam();
  const Grid grid({0, 0}, 256.0);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const geom::Polygon star = MakeStarPolygon({128, 128}, 40, 90, 18, seed);
    const HierarchicalRaster hr = HierarchicalRaster::BuildBudget(star, grid, budget);
    EXPECT_LE(hr.NumCells(), budget) << "seed " << seed;
    EXPECT_GT(hr.NumCells(), 0u);
    // Conservative: still covers all interior samples.
    for (const geom::Point& p :
         dbsa::testing::RandomPoints(star.bounds(), 300, seed)) {
      if (star.Contains(p)) {
        ASSERT_NE(hr.Classify(p, grid), CellKind::kOutside)
            << "budget " << budget << " seed " << seed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, HrBudgetTest,
                         ::testing::Values(8u, 32u, 128u, 512u),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "budget" + std::to_string(info.param);
                         });

TEST(HrTest, LargerBudgetTightensEpsilon) {
  const Grid grid({0, 0}, 256.0);
  const geom::Polygon star = MakeStarPolygon({128, 128}, 40, 90, 18, 7);
  double prev_eps = 1e300;
  for (const size_t budget : {16u, 64u, 256u, 1024u}) {
    const HierarchicalRaster hr = HierarchicalRaster::BuildBudget(star, grid, budget);
    const double eps = hr.AchievedEpsilon(grid);
    EXPECT_LE(eps, prev_eps) << "budget " << budget;
    prev_eps = eps;
  }
}

TEST(HrTest, BudgetModeMatchesExactnessOnRect) {
  // A grid-aligned rectangle needs few cells; budget mode should find an
  // exact cover (interior only, no boundary error for centered probes).
  const Grid grid({0, 0}, 256.0);
  const geom::Polygon rect = MakeRectPolygon(64, 64, 192, 192);
  const HierarchicalRaster hr = HierarchicalRaster::BuildBudget(rect, grid, 64);
  EXPECT_EQ(hr.Classify({128, 128}, grid), CellKind::kInterior);
  EXPECT_EQ(hr.Classify({10, 10}, grid), CellKind::kOutside);
}

// Cell-for-cell equality (ids and boundary flags) of the two epsilon
// builders, and Z-order of the top-down output as it leaves the builder.
void ExpectTopDownIdenticalToBottomUp(const geom::Polygon& poly, const Grid& grid,
                                      double eps, const std::string& label) {
  RasterOptions conservative;
  RasterOptions min_coverage;
  min_coverage.conservative = false;
  min_coverage.min_coverage = 0.5;
  for (const RasterOptions& opts : {conservative, min_coverage}) {
    const std::string where =
        label + (opts.conservative ? " conservative" : " min_coverage");
    const HierarchicalRaster bottom_up =
        HierarchicalRaster::BuildEpsilonBottomUp(poly, grid, eps, opts);
    const HierarchicalRaster top_down =
        HierarchicalRaster::BuildEpsilonTopDown(poly, grid, eps, opts);
    const auto& a = bottom_up.cells();
    const auto& b = top_down.cells();
    ASSERT_EQ(a.size(), b.size()) << where;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].id, b[i].id) << where << " cell " << i << ": "
                                  << a[i].id.ToString() << " vs " << b[i].id.ToString();
      ASSERT_EQ(a[i].boundary, b[i].boundary) << where << " cell " << i;
      if (i > 0) {
        ASSERT_LT(b[i - 1].id, b[i].id) << where << " cell " << i;
      }
    }
  }
}

TEST(HrTest, TopDownIdenticalToBottomUp) {
  const Grid grid({0, 0}, 256.0);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const geom::Polygon star = MakeStarPolygonWithHole({128, 128}, 40, 90, 18, seed);
    for (const double eps : {2.0, 4.0, 16.0}) {
      ExpectTopDownIdenticalToBottomUp(
          star, grid, eps,
          "star seed " + std::to_string(seed) + " eps " + std::to_string(eps));
    }
  }

  // Census-like tiling regions on an offset, non-power-of-two grid.
  data::RegionConfig config = data::CensusConfig(geom::Box(0, 0, 4096, 4096), 60);
  config.seed = 11;
  const data::RegionSet regions = data::GenerateRegions(config);
  const Grid region_grid = Grid::Covering(regions.Bounds());
  for (size_t i = 0; i < regions.polys.size(); ++i) {
    for (const double eps : {4.0, 16.0, 64.0}) {
      ExpectTopDownIdenticalToBottomUp(
          regions.polys[i], region_grid, eps,
          "region " + std::to_string(i) + " eps " + std::to_string(eps));
    }
  }

  // Edges exactly on coarse-level grid lines (256 / 4 = 64, 256 / 8 = 32).
  for (const geom::Polygon& rect :
       {MakeRectPolygon(64, 64, 192, 192), MakeRectPolygon(32, 96, 224, 128),
        MakeRectPolygon(0, 0, 128, 64), MakeRectPolygon(64, 32, 65, 224)}) {
    for (const double eps : {2.0, 4.0, 16.0}) {
      ExpectTopDownIdenticalToBottomUp(rect, grid, eps,
                                       "rect eps " + std::to_string(eps));
    }
  }

  // Vertices on finest-level grid corners (multiples of the 2 m cell at
  // eps = 4), including 45-degree edges through corner after corner.
  const std::vector<geom::Polygon> cornered = {
      geom::Polygon(geom::Ring{{10, 10}, {200, 30}, {60, 180}}),
      geom::Polygon(geom::Ring{{128, 32}, {224, 128}, {128, 224}, {32, 128}}),
      geom::Polygon(geom::Ring{{16, 16}, {240, 16}, {240, 240}, {128, 128}, {16, 240}})};
  for (geom::Polygon poly : cornered) {
    poly.Normalize();
    for (const double eps : {2.8, 4.0, 16.0}) {
      ExpectTopDownIdenticalToBottomUp(poly, grid, eps,
                                       "cornered eps " + std::to_string(eps));
    }
  }
}

TEST(HrTest, TopDownEpsilonBoundHolds) {
  const Grid grid({0, 0}, 256.0);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const geom::Polygon star = MakeStarPolygon({128, 128}, 40, 90, 16, seed);
    const HierarchicalRaster hr =
        HierarchicalRaster::BuildEpsilonTopDown(star, grid, 8.0);
    const BoundCheck check = CheckBound(star, grid, hr, 2.0);
    EXPECT_LE(check.max_false_positive_dist, 8.0 + 1e-9) << "seed " << seed;
    EXPECT_TRUE(check.covers_polygon) << "seed " << seed;
  }
}

TEST(HrTest, MemoryScalesWithCells) {
  const Grid grid({0, 0}, 256.0);
  const geom::Polygon star = MakeStarPolygon({128, 128}, 40, 90, 18, 3);
  const HierarchicalRaster coarse = HierarchicalRaster::BuildEpsilon(star, grid, 16.0);
  const HierarchicalRaster fine = HierarchicalRaster::BuildEpsilon(star, grid, 1.0);
  EXPECT_GT(fine.MemoryBytes(), coarse.MemoryBytes());
}

}  // namespace
}  // namespace dbsa::raster
