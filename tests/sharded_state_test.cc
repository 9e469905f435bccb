// Tests for SFC sharding: the Hilbert partition, shard pruning, and
// in-process sharded execution (ShardRouter's direct carrier, the
// QueryService kSharded path), including queries that prune every shard
// and adversarial non-dyadic SUM attributes. The full byte-identity
// matrix over every carrier lives in shard_server_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/dbsa.h"
#include "service/query_service.h"
#include "service/thread_pool.h"
#include "test_util.h"

namespace dbsa::core {
namespace {

using dbsa::testing::MakeRectPolygon;
using dbsa::testing::MakeStarPolygon;

/// Bitwise row comparison (== on doubles — the determinism contract).
void ExpectRowsIdentical(const AggregateAnswer& got, const AggregateAnswer& want,
                         const std::string& label) {
  ASSERT_EQ(got.rows.size(), want.rows.size()) << label;
  for (size_t r = 0; r < want.rows.size(); ++r) {
    EXPECT_EQ(got.rows[r].region, want.rows[r].region) << label << " region " << r;
    EXPECT_EQ(got.rows[r].value, want.rows[r].value) << label << " region " << r;
    EXPECT_EQ(got.rows[r].lo, want.rows[r].lo) << label << " region " << r;
    EXPECT_EQ(got.rows[r].hi, want.rows[r].hi) << label << " region " << r;
  }
}

class ShardedStateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::TaxiConfig taxi_config;
    taxi_config.universe = geom::Box(0, 0, 4096, 4096);
    data::PointSet points = data::GenerateTaxiPoints(20000, taxi_config);

    data::RegionConfig region_config;
    region_config.universe = taxi_config.universe;
    region_config.num_polygons = 24;
    region_config.target_avg_vertices = 24;
    region_config.multi_fraction = 0.2;
    data::RegionSet regions = data::GenerateRegions(region_config);

    base_ = BuildEngineState(std::move(points), std::move(regions));
  }

  std::shared_ptr<const EngineState> base_;
};

TEST_F(ShardedStateTest, BuildPartitionsPointsIntoLocalShards) {
  const auto sharded = ShardedState::Build(base_, {/*num_shards=*/7});
  ASSERT_EQ(sharded->num_shards(), 7u);
  std::vector<char> seen(base_->points->size(), 0);
  size_t total = 0;
  for (size_t s = 0; s < sharded->num_shards(); ++s) {
    const ShardedState::Shard& shard = sharded->shard(s);
    ASSERT_NE(shard.state, nullptr);
    EXPECT_EQ(shard.state->points->size(), shard.num_points());
    EXPECT_TRUE(shard.state->point_index.has_value());  // Eagerly built.
    // Shards share the base grid — cell keys agree across shards.
    EXPECT_EQ(shard.state->grid.origin(), base_->grid.origin());
    EXPECT_EQ(shard.state->grid.side(), base_->grid.side());
    EXPECT_TRUE(std::is_sorted(shard.global_ids.begin(), shard.global_ids.end()));
    for (const uint32_t id : shard.global_ids) {
      EXPECT_EQ(seen[id], 0) << "point " << id << " in two shards";
      seen[id] = 1;
      EXPECT_TRUE(shard.bounds.Contains(base_->points->locs[id]));
    }
    total += shard.num_points();
    // Hilbert-contiguous runs are spatially local: each shard's bbox is a
    // strict sub-area of the universe.
    EXPECT_LT(shard.bounds.Area(), base_->grid.universe().Area() * 0.9);
  }
  EXPECT_EQ(total, base_->points->size());
}

TEST_F(ShardedStateTest, SelectivePolygonPrunesShards) {
  const auto sharded = ShardedState::Build(base_, {/*num_shards=*/16});
  const geom::Polygon corner = MakeRectPolygon(100, 100, 380, 420);
  const raster::HierarchicalRaster hr =
      raster::HierarchicalRaster::BuildEpsilon(corner, base_->grid, 8.0);
  const std::vector<uint32_t> surviving = sharded->SurvivingShards(hr);
  // A ~0.5% viewport touches a handful of Hilbert-local shards, not all.
  EXPECT_GE(surviving.size(), 1u);
  EXPECT_LT(surviving.size(), 8u);

  // The stats report how many shards were actually probed: the region
  // aggregate unions its polygons' shards, the corner count probes
  // exactly the surviving set.
  service::ShardRouter router(sharded);
  const query::ErrorBound bound = query::ErrorBound::Absolute(8.0);
  const AggregateAnswer answer = service::ExecuteAggregate(
      router, join::AggKind::kCount, Attr::kNone, bound, Mode::kPointIndex);
  EXPECT_GT(answer.stats.shards_probed, 0u);
  EXPECT_LE(answer.stats.shards_probed, 16u);
  EXPECT_EQ(service::ExecuteCount(router, corner, bound).stats.shards_probed,
            surviving.size());
}

TEST_F(ShardedStateTest, QueryOutsideEveryShardPrunesToZero) {
  // Points confined to the left half of the universe; the query sits in
  // the right half: every shard prunes to zero and the (empty) gather
  // must still byte-match the unsharded engine's zero answers.
  data::TaxiConfig config;
  config.universe = geom::Box(0, 0, 2000, 4096);  // Left half only.
  data::PointSet points = data::GenerateTaxiPoints(5000, config);
  data::RegionConfig region_config;
  region_config.universe = geom::Box(0, 0, 4096, 4096);
  region_config.num_polygons = 8;
  data::RegionSet regions = data::GenerateRegions(region_config);
  const auto base = BuildEngineState(std::move(points), std::move(regions));
  const auto sharded = ShardedState::Build(base, {/*num_shards=*/4});

  const geom::Polygon far_poly = MakeRectPolygon(3000, 1000, 3800, 2000);
  const raster::HierarchicalRaster hr =
      raster::HierarchicalRaster::BuildEpsilon(far_poly, base->grid, 8.0);
  EXPECT_TRUE(sharded->SurvivingShards(hr).empty());

  service::ShardRouter router(sharded);
  const query::ErrorBound bound = query::ErrorBound::Absolute(8.0);
  const CountAnswer got = service::ExecuteCount(router, far_poly, bound);
  const CountAnswer want = ExecuteCount(*base, far_poly, bound);
  EXPECT_EQ(got.range.estimate, want.range.estimate);
  EXPECT_EQ(got.range.lo, want.range.lo);
  EXPECT_EQ(got.range.hi, want.range.hi);
  EXPECT_EQ(got.range.estimate, 0.0);
  EXPECT_EQ(got.stats.shards_probed, 0u);
  const SelectAnswer selected = service::ExecuteSelect(router, far_poly, bound);
  EXPECT_TRUE(selected.ids.empty());
  EXPECT_EQ(selected.stats.shards_probed, 0u);
}

TEST_F(ShardedStateTest, ShardedQueryServiceByteMatchesUnshardedEngine) {
  // End-to-end through the serving layer: 8 shards x 8 threads, workload
  // duplicated so the second half exercises the warm HR cache.
  SpatialEngine engine;
  engine.SetPoints(data::PointSet(*base_->points));
  engine.SetRegions(data::RegionSet(*base_->regions));

  std::vector<service::Request> workload;
  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  const geom::Polygon corner = MakeRectPolygon(100, 100, 380, 420);
  for (const double eps : {4.0, 8.0}) {
    workload.push_back(service::Request::MakeAggregate(
        join::AggKind::kCount, Attr::kNone, eps, Mode::kPointIndex));
    workload.push_back(service::Request::MakeAggregate(
        join::AggKind::kSum, Attr::kFare, eps, Mode::kPointIndex));
    workload.push_back(service::Request::MakeCount(star, eps));
    workload.push_back(service::Request::MakeCount(corner, eps));
    workload.push_back(service::Request::MakeSelect(star, eps));
  }
  // Explicit copy: self-range insert invalidates the source iterators on
  // reallocation and used to corrupt the duplicated half.
  const std::vector<service::Request> first_pass = workload;
  workload.insert(workload.end(), first_pass.begin(), first_pass.end());

  service::ServiceOptions options;
  options.num_threads = 8;
  options.num_shards = 8;
  service::QueryService service(engine.Snapshot(), options);
  ASSERT_NE(service.sharded(), nullptr);
  ASSERT_EQ(service.sharded()->num_shards(), 8u);
  EXPECT_EQ(service.exec_path(), service::ExecPath::kSharded);

  for (const service::Request& req : workload) service.Submit(req);
  const std::vector<service::Response> responses = service.DrainResponses();
  ASSERT_EQ(responses.size(), workload.size());

  for (size_t i = 0; i < responses.size(); ++i) {
    const service::Request& req = workload[i];
    const service::Response& got = responses[i];
    switch (req.kind) {
      case service::Request::Kind::kAggregate: {
        const AggregateAnswer want =
            engine.Aggregate(req.agg, req.attr, req.epsilon, req.mode);
        ExpectRowsIdentical(got.aggregate, want, "request " + std::to_string(i));
        break;
      }
      case service::Request::Kind::kCountInPolygon: {
        const join::ResultRange want = engine.CountInPolygon(req.poly, req.epsilon);
        EXPECT_EQ(got.range.estimate, want.estimate) << "request " << i;
        EXPECT_EQ(got.range.lo, want.lo) << "request " << i;
        EXPECT_EQ(got.range.hi, want.hi) << "request " << i;
        break;
      }
      case service::Request::Kind::kSelectInPolygon:
        EXPECT_EQ(got.ids, engine.SelectInPolygon(req.poly, req.epsilon))
            << "request " << i;
        break;
    }
  }
}

// ---- the unconditional SUM/AVG merge identity --------------------------

TEST(ShardedNonDyadicSumTest, AdversarialAttributesByteIdenticalAtEveryK) {
  // Regression for the compensated (error-free transformation) SUM
  // pipeline: BEFORE it, sharded SUM/AVG matched the unsharded engine
  // bit-for-bit only for dyadic attributes — per-cell partials from the
  // rounded prefix arrays re-associated differently across shard merges.
  // The attribute column here is built to break that old contract:
  //   * non-dyadic decimals (0.01 steps) whose partial sums always round,
  //   * large-magnitude pairs (±1e9 + decimals) that cancel across cells,
  //   * tiny values (1e-4 scale) whose bits die next to the big ones
  // under plain double accumulation. With the compensated pairs, every
  // per-cell and per-shard partial is exact, so the gather merges to
  // identical bits at any shard count and any thread count.
  data::TaxiConfig taxi_config;
  taxi_config.universe = geom::Box(0, 0, 4096, 4096);
  data::PointSet points = data::GenerateTaxiPoints(20000, taxi_config);
  for (size_t i = 0; i < points.fare.size(); ++i) {
    double fare = 0.01 * static_cast<double>(i % 977) + 1e-4;
    if (i % 97 == 0) fare += 1e9 + 0.123;
    if (i % 97 == 1) fare -= 1e9 - 0.456;  // Cancels a neighbour's spike.
    points.fare[i] = fare;
  }
  data::RegionConfig region_config;
  region_config.universe = taxi_config.universe;
  region_config.num_polygons = 16;
  region_config.target_avg_vertices = 24;
  region_config.multi_fraction = 0.2;
  data::RegionSet regions = data::GenerateRegions(region_config);
  const auto base = BuildEngineState(std::move(points), std::move(regions));

  for (const size_t k : {size_t{1}, size_t{7}, size_t{16}}) {
    service::ShardRouter router(ShardedState::Build(base, {k}));
    for (const size_t threads : {size_t{0}, size_t{8}}) {
      std::unique_ptr<service::ThreadPool> pool;
      ExecHooks hooks;
      if (threads > 0) {
        pool = std::make_unique<service::ThreadPool>(threads);
        hooks.parallel_for = [&pool](size_t n,
                                     const std::function<void(size_t)>& fn) {
          pool->ParallelFor(n, fn);
        };
      }
      const std::string label =
          "k=" + std::to_string(k) + " threads=" + std::to_string(threads);
      for (const double eps : {4.0, 16.0}) {
        const query::ErrorBound bound = query::ErrorBound::Absolute(eps);
        ExpectRowsIdentical(
            service::ExecuteAggregate(router, join::AggKind::kSum, Attr::kFare,
                                      bound, Mode::kPointIndex, hooks),
            ExecuteAggregate(*base, join::AggKind::kSum, Attr::kFare, bound,
                             Mode::kPointIndex),
            label + " adversarial sum eps=" + std::to_string(eps));
        ExpectRowsIdentical(
            service::ExecuteAggregate(router, join::AggKind::kAvg, Attr::kFare,
                                      bound, Mode::kPointIndex, hooks),
            ExecuteAggregate(*base, join::AggKind::kAvg, Attr::kFare, bound,
                             Mode::kPointIndex),
            label + " adversarial avg eps=" + std::to_string(eps));
      }
    }
    // And across the transport seam: serialization must not cost a bit
    // even for the compensated pairs.
    service::ServiceOptions options;
    options.num_threads = 4;
    options.num_shards = k;
    options.use_transport = true;
    service::QueryService seam(std::shared_ptr<const EngineState>(base), options);
    const core::AggregateAnswer via_seam =
        seam.Execute(service::Query::Aggregate(join::AggKind::kSum, Attr::kFare),
                     [] {
                       service::ExecOptions o;
                       o.bound = query::ErrorBound::Absolute(4.0);
                       o.mode = Mode::kPointIndex;
                       return o;
                     }())
            .get()
            .aggregate;
    ExpectRowsIdentical(via_seam,
                        ExecuteAggregate(*base, join::AggKind::kSum, Attr::kFare,
                                         4.0, Mode::kPointIndex),
                        "seam k=" + std::to_string(k) + " adversarial sum");
  }
}

}  // namespace
}  // namespace dbsa::core
