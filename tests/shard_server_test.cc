// Tests for the scatter/gather engine and the shard-server seam.
//
// The identity matrix runs ShardRouter on each of its carriers (direct,
// loopback, socket) at every (shard count, thread count, bound regime)
// and requires all three query kinds to be BYTE-IDENTICAL to the
// unsharded engine (per pinned plan), including delegated ACT and exact
// plans and a polygon that prunes to zero shards. Every approximate
// answer is also checked against brute-force ground truth: the exact
// count lies inside the returned range, and every point farther than the
// achieved epsilon from the polygon's boundary is selected exactly when
// it is inside.
//
// Plus the per-shard HR cache: shard-aware WarmCache routing,
// reference-request hits, eviction and checksum-mismatch fallbacks, and
// malformed-message hardening.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/dbsa.h"
#include "geom/distance.h"
#include "service/query_service.h"
#include "service/shard_server.h"
#include "service/socket_cluster.h"
#include "service/socket_transport.h"
#include "service/thread_pool.h"
#include "service/transport.h"
#include "test_util.h"

namespace dbsa::service {
namespace {

using dbsa::testing::MakeRectPolygon;
using dbsa::testing::MakeStarPolygon;

void ExpectRowsIdentical(const core::AggregateAnswer& got,
                         const core::AggregateAnswer& want,
                         const std::string& label) {
  ASSERT_EQ(got.rows.size(), want.rows.size()) << label;
  for (size_t r = 0; r < want.rows.size(); ++r) {
    EXPECT_EQ(got.rows[r].region, want.rows[r].region) << label << " region " << r;
    EXPECT_EQ(got.rows[r].value, want.rows[r].value) << label << " region " << r;
    EXPECT_EQ(got.rows[r].lo, want.rows[r].lo) << label << " region " << r;
    EXPECT_EQ(got.rows[r].hi, want.rows[r].hi) << label << " region " << r;
  }
}

void ExpectRangeIdentical(const join::ResultRange& got,
                          const join::ResultRange& want,
                          const std::string& label) {
  EXPECT_EQ(got.approx, want.approx) << label;
  EXPECT_EQ(got.estimate, want.estimate) << label;
  EXPECT_EQ(got.lo, want.lo) << label;
  EXPECT_EQ(got.hi, want.hi) << label;
}

/// Hooks fanning out over `pool` (none when null: serial execution).
core::ExecHooks PoolHooks(ThreadPool* pool) {
  core::ExecHooks hooks;
  if (pool != nullptr) {
    hooks.parallel_for = [pool](size_t n, const std::function<void(size_t)>& fn) {
      pool->ParallelFor(n, fn);
    };
  }
  return hooks;
}

/// A complete in-process deployment of the seam: shard servers behind a
/// loopback transport plus the router driving them.
struct Seam {
  std::shared_ptr<const core::ShardedState> sharded;
  std::vector<std::shared_ptr<ShardServer>> servers;
  std::shared_ptr<LoopbackTransport> transport;
  std::unique_ptr<ShardRouter> router;
};

Seam MakeSeam(const std::shared_ptr<const core::EngineState>& base, size_t k,
              size_t cache_budget_bytes = size_t{8} << 20) {
  Seam seam;
  seam.sharded = core::ShardedState::Build(base, {k});
  ShardServer::Options options;
  options.cell_cache_budget_bytes = cache_budget_bytes;
  std::vector<LoopbackTransport::Handler> handlers;
  for (size_t s = 0; s < seam.sharded->num_shards(); ++s) {
    const core::ShardedState::Shard& shard = seam.sharded->shard(s);
    seam.servers.push_back(
        std::make_shared<ShardServer>(shard.state, shard.global_ids, options));
    handlers.push_back([server = seam.servers.back()](const std::string& request) {
      return server->Handle(request);
    });
  }
  seam.transport = std::make_shared<LoopbackTransport>(std::move(handlers));
  seam.router = std::make_unique<ShardRouter>(seam.sharded, seam.transport);
  return seam;
}

class ShardServerTest : public ::testing::Test {
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

    base_ = core::BuildEngineState(std::move(points), std::move(regions));
  }

  std::shared_ptr<const core::EngineState> base_;
};

// ---- the identity matrix ------------------------------------------------
// carrier {direct, loopback, socket} x K {1, 2, 7, 16} x threads
// {serial, 4, 8} x bounds {Absolute 4, Absolute 16, AtLevel 6, Exact}.
// Aggregates pin their mode: transports charge different CostPerMessage,
// so under kAuto the optimizer may legitimately resolve different plans —
// the identity contract is per pinned plan.

enum class Carrier { kDirect, kLoopback, kSocket };

const char* CarrierName(Carrier carrier) {
  switch (carrier) {
    case Carrier::kDirect:
      return "direct";
    case Carrier::kLoopback:
      return "loopback";
    case Carrier::kSocket:
      return "socket";
  }
  return "?";
}

struct MatrixBound {
  const char* name;
  query::ErrorBound bound;
};

const std::vector<MatrixBound>& MatrixBounds() {
  static const std::vector<MatrixBound> bounds = {
      {"abs4", query::ErrorBound::Absolute(4.0)},
      {"abs16", query::ErrorBound::Absolute(16.0)},
      {"level6", query::ErrorBound::AtLevel(6)},
      {"exact", query::ErrorBound::Exact()}};
  return bounds;
}

/// The aggregates every case runs: the three point-index kinds, then the
/// plans that never scatter (ACT and exact), which the router delegates
/// to the base snapshot.
struct MatrixAggregate {
  join::AggKind agg;
  core::Attr attr;
  core::Mode mode;
};

const std::vector<MatrixAggregate>& MatrixAggregates() {
  static const std::vector<MatrixAggregate> aggregates = {
      {join::AggKind::kCount, core::Attr::kNone, core::Mode::kPointIndex},
      {join::AggKind::kSum, core::Attr::kFare, core::Mode::kPointIndex},
      {join::AggKind::kAvg, core::Attr::kFare, core::Mode::kPointIndex},
      {join::AggKind::kSum, core::Attr::kFare, core::Mode::kAct},
      {join::AggKind::kCount, core::Attr::kNone, core::Mode::kExact}};
  return aggregates;
}

/// One router over `base` cut into `k` shards, with whatever its carrier
/// needs to run. Members destroy in reverse order: router, transport,
/// then the servers and listeners it talks to.
struct CarrierDeployment {
  Seam loopback;
  InProcessShardCluster cluster;
  std::shared_ptr<SocketTransport> socket;
  std::unique_ptr<ShardRouter> router;
};

CarrierDeployment Deploy(Carrier carrier,
                         const std::shared_ptr<const core::EngineState>& base,
                         size_t k) {
  CarrierDeployment deployment;
  switch (carrier) {
    case Carrier::kDirect:
      deployment.router =
          std::make_unique<ShardRouter>(core::ShardedState::Build(base, {k}));
      break;
    case Carrier::kLoopback:
      deployment.loopback = MakeSeam(base, k);
      deployment.router = std::move(deployment.loopback.router);
      break;
    case Carrier::kSocket:
      deployment.cluster = MakeInProcessShardCluster(base, k);
      deployment.socket = std::make_shared<SocketTransport>(
          deployment.cluster.placement, SocketTransport::Options{});
      deployment.router =
          std::make_unique<ShardRouter>(deployment.cluster.sharded, deployment.socket);
      break;
  }
  return deployment;
}

/// Brute-force facts about one query polygon over the base points.
struct GroundTruth {
  double count = 0.0;              ///< Exact point-in-polygon count.
  std::vector<double> distance;    ///< Per point: distance to the boundary.
  std::vector<char> inside;        ///< Per point: poly.Contains.
};

/// The unsharded engine's answers under one bound.
struct UnshardedAnswers {
  std::vector<core::AggregateAnswer> aggregates;  ///< MatrixAggregates order.
  std::vector<core::CountAnswer> counts;          ///< Per polygon.
  std::vector<core::SelectAnswer> selects;        ///< Per polygon.
};

using MatrixParam = std::tuple<Carrier, size_t, size_t, size_t>;

class IdentityMatrixTest : public ::testing::TestWithParam<MatrixParam> {
 protected:
  static void SetUpTestSuite() {
    // Points (with non-dyadic fares) fill only x < 3000 of a universe
    // whose regions span all of it, so a polygon in the empty strip
    // prunes to zero shards at every K.
    data::TaxiConfig taxi_config;
    taxi_config.universe = geom::Box(0, 0, 3000, 4096);
    data::RegionConfig region_config;
    region_config.universe = geom::Box(0, 0, 4096, 4096);
    region_config.num_polygons = 24;
    region_config.target_avg_vertices = 24;
    region_config.multi_fraction = 0.2;
    base_ = new std::shared_ptr<const core::EngineState>(
        core::BuildEngineState(data::GenerateTaxiPoints(20000, taxi_config),
                               data::GenerateRegions(region_config)));
    const core::EngineState& base = **base_;
    polys_ = new std::vector<geom::Polygon>{
        MakeStarPolygon({2000, 2000}, 400, 900, 16, 11),
        MakeStarPolygon({1200, 2800}, 300, 700, 12, 23),
        MakeRectPolygon(100, 100, 380, 420),
        MakeRectPolygon(3300, 1000, 3900, 2000)};  // The empty strip.
    truth_ = new std::vector<GroundTruth>();
    for (const geom::Polygon& poly : *polys_) {
      GroundTruth truth;
      truth.count =
          core::ExecuteCount(base, poly, query::ErrorBound::Exact()).range.estimate;
      for (const geom::Point& p : base.points->locs) {
        truth.distance.push_back(geom::DistanceToBoundary(p, poly));
        truth.inside.push_back(poly.Contains(p) ? 1 : 0);
      }
      truth_->push_back(std::move(truth));
    }
    unsharded_ = new std::vector<UnshardedAnswers>();
    for (const MatrixBound& b : MatrixBounds()) {
      UnshardedAnswers answers;
      for (const MatrixAggregate& a : MatrixAggregates()) {
        answers.aggregates.push_back(
            core::ExecuteAggregate(base, a.agg, a.attr, b.bound, a.mode));
      }
      for (const geom::Polygon& poly : *polys_) {
        answers.counts.push_back(core::ExecuteCount(base, poly, b.bound));
        answers.selects.push_back(core::ExecuteSelect(base, poly, b.bound));
      }
      unsharded_->push_back(std::move(answers));
    }
  }

  static void TearDownTestSuite() {
    delete deployments_;
    delete unsharded_;
    delete truth_;
    delete polys_;
    delete base_;
  }

  /// One deployment per (carrier, K), shared by that pair's thread and
  /// bound cases: listeners start once, and the transport carriers' later
  /// cases run on warm slice caches (reference requests).
  static CarrierDeployment& Deployment(Carrier carrier, size_t k) {
    if (deployments_ == nullptr) deployments_ = new DeploymentMap();
    std::unique_ptr<CarrierDeployment>& slot = (*deployments_)[{carrier, k}];
    if (slot == nullptr) {
      slot = std::make_unique<CarrierDeployment>(Deploy(carrier, *base_, k));
    }
    return *slot;
  }

  using DeploymentMap =
      std::map<std::pair<Carrier, size_t>, std::unique_ptr<CarrierDeployment>>;

  static std::shared_ptr<const core::EngineState>* base_;
  static std::vector<geom::Polygon>* polys_;
  static std::vector<GroundTruth>* truth_;
  static std::vector<UnshardedAnswers>* unsharded_;
  static DeploymentMap* deployments_;
};

std::shared_ptr<const core::EngineState>* IdentityMatrixTest::base_ = nullptr;
std::vector<geom::Polygon>* IdentityMatrixTest::polys_ = nullptr;
std::vector<GroundTruth>* IdentityMatrixTest::truth_ = nullptr;
std::vector<UnshardedAnswers>* IdentityMatrixTest::unsharded_ = nullptr;
IdentityMatrixTest::DeploymentMap* IdentityMatrixTest::deployments_ = nullptr;

TEST_P(IdentityMatrixTest, ByteIdenticalToUnshardedAndHonorsGroundTruth) {
  const auto [carrier, k, threads, bound_index] = GetParam();
  const query::ErrorBound& bound = MatrixBounds()[bound_index].bound;
  const UnshardedAnswers& want = (*unsharded_)[bound_index];
  const std::string label = std::string(CarrierName(carrier)) +
                            " k=" + std::to_string(k) +
                            " threads=" + std::to_string(threads) + " bound=" +
                            MatrixBounds()[bound_index].name;

  ShardRouter& router = *Deployment(carrier, k).router;
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  const core::ExecHooks hooks = PoolHooks(pool.get());

  for (size_t a = 0; a < MatrixAggregates().size(); ++a) {
    const MatrixAggregate& spec = MatrixAggregates()[a];
    const core::AggregateAnswer got =
        ExecuteAggregate(router, spec.agg, spec.attr, bound, spec.mode, hooks);
    ExpectRowsIdentical(got, want.aggregates[a],
                        label + " aggregate " + std::to_string(a));
    EXPECT_EQ(got.stats.plan, want.aggregates[a].stats.plan) << label;
    EXPECT_EQ(got.stats.achieved_epsilon, want.aggregates[a].stats.achieved_epsilon)
        << label;
  }

  for (size_t p = 0; p < polys_->size(); ++p) {
    const geom::Polygon& poly = (*polys_)[p];
    const GroundTruth& truth = (*truth_)[p];
    const std::string poly_label = label + " poly=" + std::to_string(p);

    const core::CountAnswer count = ExecuteCount(router, poly, bound, hooks);
    ExpectRangeIdentical(count.range, want.counts[p].range, poly_label + " count");
    EXPECT_EQ(count.stats.hr_level, want.counts[p].stats.hr_level) << poly_label;
    EXPECT_EQ(count.stats.achieved_epsilon, want.counts[p].stats.achieved_epsilon)
        << poly_label;
    // Ground truth: the exact count lies inside the returned range.
    EXPECT_LE(count.range.lo, truth.count) << poly_label;
    EXPECT_GE(count.range.hi, truth.count) << poly_label;
    if (p + 1 == polys_->size() && !bound.exact()) {
      EXPECT_EQ(count.stats.shards_probed, 0u) << poly_label << " must prune";
    }

    const core::SelectAnswer select = ExecuteSelect(router, poly, bound, hooks);
    EXPECT_EQ(select.ids, want.selects[p].ids) << poly_label << " select";
    // Ground truth: a point farther than the achieved epsilon from the
    // boundary is selected exactly when it lies inside.
    std::vector<char> selected(truth.inside.size(), 0);
    for (const uint32_t id : select.ids) selected[id] = 1;
    size_t checked = 0;
    for (size_t i = 0; i < truth.inside.size(); ++i) {
      if (truth.distance[i] <= select.stats.achieved_epsilon) continue;
      ++checked;
      ASSERT_EQ(selected[i], truth.inside[i])
          << poly_label << " point " << i << " at distance " << truth.distance[i];
    }
    EXPECT_GT(checked, 0u) << poly_label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCarriers, IdentityMatrixTest,
    ::testing::Combine(::testing::Values(Carrier::kDirect, Carrier::kLoopback,
                                         Carrier::kSocket),
                       ::testing::Values(size_t{1}, size_t{2}, size_t{7},
                                         size_t{16}),
                       ::testing::Values(size_t{0}, size_t{4}, size_t{8}),
                       ::testing::Range(size_t{0}, size_t{4})),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      return std::string(CarrierName(std::get<0>(info.param))) + "_k" +
             std::to_string(std::get<1>(info.param)) + "_t" +
             std::to_string(std::get<2>(info.param)) + "_" +
             MatrixBounds()[std::get<3>(info.param)].name;
    });

TEST_F(ShardServerTest, ZeroSurvivingShardsAnswersZeroAcrossTheSeam) {
  // Points confined to the left half; the query polygon sits in the
  // right half: the scatter set is empty and the (empty) gather must
  // still byte-match the in-process engine's zeros.
  data::TaxiConfig config;
  config.universe = geom::Box(0, 0, 2000, 4096);
  data::PointSet points = data::GenerateTaxiPoints(5000, config);
  data::RegionConfig region_config;
  region_config.universe = geom::Box(0, 0, 4096, 4096);
  region_config.num_polygons = 8;
  data::RegionSet regions = data::GenerateRegions(region_config);
  const auto base = core::BuildEngineState(std::move(points), std::move(regions));

  Seam seam = MakeSeam(base, 4);
  const geom::Polygon far_poly = MakeRectPolygon(3000, 1000, 3800, 2000);
  const raster::HierarchicalRaster hr =
      raster::HierarchicalRaster::BuildEpsilon(far_poly, base->grid, 8.0);
  ASSERT_TRUE(seam.sharded->SurvivingShards(hr).empty());

  const query::ErrorBound bound = query::ErrorBound::Absolute(8.0);
  const join::ResultRange got = ExecuteCount(*seam.router, far_poly, bound).range;
  const join::ResultRange want = core::ExecuteCount(*base, far_poly, bound).range;
  ExpectRangeIdentical(got, want, "far polygon");
  EXPECT_EQ(got.estimate, 0.0);
  EXPECT_TRUE(ExecuteSelect(*seam.router, far_poly, bound).ids.empty());
  // No messages at all crossed the transport for the empty scatter set.
  EXPECT_EQ(seam.transport->stats().messages, 0u);
}

TEST_F(ShardServerTest, TransportServiceByteMatchesUnshardedEngine) {
  // End-to-end through QueryService with the seam on: 8 shard servers x
  // 8 threads, workload duplicated so the second half runs on warm
  // central + per-shard caches (reference requests).
  core::SpatialEngine engine;
  engine.SetPoints(data::PointSet(*base_->points));
  engine.SetRegions(data::RegionSet(*base_->regions));

  std::vector<Request> workload;
  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  const geom::Polygon corner = MakeRectPolygon(100, 100, 380, 420);
  for (const double eps : {4.0, 8.0}) {
    workload.push_back(Request::MakeAggregate(join::AggKind::kCount,
                                              core::Attr::kNone, eps,
                                              core::Mode::kPointIndex));
    workload.push_back(Request::MakeAggregate(join::AggKind::kSum, core::Attr::kFare,
                                              eps, core::Mode::kPointIndex));
    workload.push_back(Request::MakeCount(star, eps));
    workload.push_back(Request::MakeCount(corner, eps));
    workload.push_back(Request::MakeSelect(star, eps));
  }
  // Duplicate through an explicit copy: self-range insert invalidates the
  // source iterators when the vector reallocates (it silently corrupted
  // the duplicated half of earlier versions of this idiom).
  const std::vector<Request> first_pass = workload;
  workload.insert(workload.end(), first_pass.begin(), first_pass.end());

  ServiceOptions options;
  options.num_threads = 8;
  options.num_shards = 8;
  options.use_transport = true;
  QueryService service(engine.Snapshot(), options);
  ASSERT_NE(service.sharded(), nullptr);
  ASSERT_EQ(service.num_shard_servers(), 8u);

  for (const Request& req : workload) service.Submit(req);
  const std::vector<Response> responses = service.DrainResponses();
  ASSERT_EQ(responses.size(), workload.size());
  EXPECT_GT(service.transport_stats().messages, 0u);

  for (size_t i = 0; i < responses.size(); ++i) {
    const Request& req = workload[i];
    const Response& got = responses[i];
    ASSERT_TRUE(got.ok()) << got.error;
    switch (req.kind) {
      case Request::Kind::kAggregate: {
        const core::AggregateAnswer want =
            engine.Aggregate(req.agg, req.attr, req.epsilon, req.mode);
        ExpectRowsIdentical(got.aggregate, want, "request " + std::to_string(i));
        break;
      }
      case Request::Kind::kCountInPolygon: {
        const join::ResultRange want = engine.CountInPolygon(req.poly, req.epsilon);
        EXPECT_EQ(got.range.estimate, want.estimate) << "request " << i;
        EXPECT_EQ(got.range.lo, want.lo) << "request " << i;
        EXPECT_EQ(got.range.hi, want.hi) << "request " << i;
        break;
      }
      case Request::Kind::kSelectInPolygon:
        EXPECT_EQ(got.ids, engine.SelectInPolygon(req.poly, req.epsilon))
            << "request " << i;
        break;
    }
  }

  // The duplicated half was served by reference: at least one shard
  // answered from its per-shard cache, and the per-shard caches only
  // hold keys (no stale bytes growth beyond the budget).
  size_t hits = 0;
  for (size_t s = 0; s < service.num_shard_servers(); ++s) {
    hits += service.shard_server(s)->stats().cache_hits;
  }
  EXPECT_GT(hits, 0u);
}

TEST_F(ShardServerTest, ReferenceRequestsShipFewerBytesOnRepeat) {
  Seam seam = MakeSeam(base_, 8);
  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  const ObjectKey object = PolygonFingerprint(star);
  const raster::HierarchicalRaster hr =
      raster::HierarchicalRaster::BuildEpsilon(star, base_->grid, 4.0);
  const int level = base_->grid.LevelForEpsilon(4.0);

  const join::CellAggregate cold =
      seam.router->ScatterGather(hr, &object, level,
                                 query::ErrorBound::Absolute(4.0), {}, nullptr);
  const LoopbackTransport::Stats after_cold = seam.transport->stats();
  const join::CellAggregate warm =
      seam.router->ScatterGather(hr, &object, level,
                                 query::ErrorBound::Absolute(4.0), {}, nullptr);
  const LoopbackTransport::Stats after_warm = seam.transport->stats();

  // Identical partials either way (the cached slice is the pruned slice).
  EXPECT_EQ(warm.count, cold.count);
  EXPECT_EQ(warm.sum, cold.sum);
  EXPECT_EQ(warm.boundary_count, cold.boundary_count);
  EXPECT_EQ(warm.boundary_sum, cold.boundary_sum);
  // The repeat pass referenced the per-shard caches: same message count,
  // far fewer request bytes (no cell payloads).
  const uint64_t cold_bytes = after_cold.request_bytes;
  const uint64_t warm_bytes = after_warm.request_bytes - after_cold.request_bytes;
  EXPECT_EQ(after_warm.messages, 2 * after_cold.messages);
  EXPECT_LT(warm_bytes, cold_bytes / 4);
  size_t hits = 0;
  for (const auto& server : seam.servers) hits += server->stats().cache_hits;
  EXPECT_EQ(hits, after_cold.messages);  // Every repeat probe was a hit.
}

TEST_F(ShardServerTest, EvictedSliceFallsBackToInlineShipping) {
  // Budget 0: servers never retain a slice, so every reference request
  // answers kNotCached and the router re-ships inline — results must be
  // unaffected.
  Seam seam = MakeSeam(base_, 8, /*cache_budget_bytes=*/0);
  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  const ObjectKey object = PolygonFingerprint(star);
  const raster::HierarchicalRaster hr =
      raster::HierarchicalRaster::BuildEpsilon(star, base_->grid, 4.0);
  const int level = base_->grid.LevelForEpsilon(4.0);

  const join::CellAggregate first =
      seam.router->ScatterGather(hr, &object, level,
                                 query::ErrorBound::Absolute(4.0), {}, nullptr);
  const join::CellAggregate second =
      seam.router->ScatterGather(hr, &object, level,
                                 query::ErrorBound::Absolute(4.0), {}, nullptr);
  EXPECT_EQ(second.count, first.count);
  EXPECT_EQ(second.sum, first.sum);
  size_t misses = 0, entries = 0;
  for (const auto& server : seam.servers) {
    misses += server->stats().cache_misses;
    entries += server->stats().cache_entries;
  }
  EXPECT_GT(misses, 0u);   // The second pass hit the kNotCached path.
  EXPECT_EQ(entries, 0u);  // Nothing is ever retained at budget 0.
}

TEST_F(ShardServerTest, ChecksumMismatchInvalidatesCachedSlice) {
  Seam seam = MakeSeam(base_, 1);
  ASSERT_EQ(seam.servers.size(), 1u);
  ShardServer& server = *seam.servers[0];

  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  const raster::HierarchicalRaster hr =
      raster::HierarchicalRaster::BuildEpsilon(star, base_->grid, 8.0);
  ScatterRequest warm;
  warm.kind = ScatterRequest::Kind::kWarm;
  warm.level = 7;
  warm.checksum = ApproxChecksum(hr.cells().data(), hr.cells().size());
  warm.has_object = true;
  warm.object = ObjectKey(0x8000000000000000ull, 99);
  warm.has_cells = true;
  warm.cells = hr.cells();
  GatherPartial partial;
  ASSERT_TRUE(GatherPartial::Decode(server.Handle(warm.Encode()), &partial).ok());
  ASSERT_EQ(partial.status, GatherPartial::Disposition::kOk);
  EXPECT_EQ(server.stats().cache_entries, 1u);

  // A reference with the right checksum hits...
  ScatterRequest reference;
  reference.kind = ScatterRequest::Kind::kAggregateCells;
  reference.level = warm.level;
  reference.checksum = warm.checksum;
  reference.has_object = true;
  reference.object = warm.object;
  ASSERT_TRUE(
      GatherPartial::Decode(server.Handle(reference.Encode()), &partial).ok());
  EXPECT_EQ(partial.status, GatherPartial::Disposition::kOk);

  // ...but a different checksum under the same key (a stale or colliding
  // entry) answers kNotCached and drops the entry.
  reference.checksum ^= 1;
  ASSERT_TRUE(
      GatherPartial::Decode(server.Handle(reference.Encode()), &partial).ok());
  EXPECT_EQ(partial.status, GatherPartial::Disposition::kNotCached);
  EXPECT_EQ(server.stats().cache_entries, 0u);
}

TEST_F(ShardServerTest, MalformedRequestYieldsErrorPartialNotUb) {
  Seam seam = MakeSeam(base_, 1);
  ShardServer& server = *seam.servers[0];
  GatherPartial partial;
  // Unframed garbage — the decoder's typed code survives the round trip.
  ASSERT_TRUE(GatherPartial::Decode(server.Handle("garbage"), &partial).ok());
  EXPECT_EQ(partial.status, GatherPartial::Disposition::kError);
  EXPECT_EQ(partial.code, StatusCode::kInvalidArgument);
  // A version-1 frame is rejected as kUnimplemented, never decoded.
  std::string v1_frame = ScatterRequest().Encode();
  v1_frame[6] = 1;  // Version byte.
  ASSERT_TRUE(GatherPartial::Decode(server.Handle(v1_frame), &partial).ok());
  EXPECT_EQ(partial.status, GatherPartial::Disposition::kError);
  EXPECT_EQ(partial.code, StatusCode::kUnimplemented);
  // A request that carries neither cells nor an object reference.
  ScatterRequest empty;
  empty.kind = ScatterRequest::Kind::kAggregateCells;
  ASSERT_TRUE(GatherPartial::Decode(server.Handle(empty.Encode()), &partial).ok());
  EXPECT_EQ(partial.status, GatherPartial::Disposition::kError);
  // A warm request without cells.
  ScatterRequest bad_warm;
  bad_warm.kind = ScatterRequest::Kind::kWarm;
  bad_warm.has_object = true;
  bad_warm.object = ObjectKey(3);
  ASSERT_TRUE(
      GatherPartial::Decode(server.Handle(bad_warm.Encode()), &partial).ok());
  EXPECT_EQ(partial.status, GatherPartial::Disposition::kError);
  EXPECT_EQ(server.stats().parse_errors, 2u);  // Garbage + v1 frame.
  EXPECT_EQ(server.stats().requests, 4u);
}

TEST_F(ShardServerTest, SlowHandleEmitsTraceJoinedLine) {
  // Server-side slow-query diagnostics: a Handle() call over the
  // threshold emits one SLOW_SHARD line carrying the request's WIRE
  // trace id — the join key between a client's SLOW_QUERY record and the
  // shard that was slow. Zero trace fields render as "untraced".
  Seam seam = MakeSeam(base_, 1);
  const core::ShardedState::Shard& slice = seam.sharded->shard(0);
  ShardServer::Options options;
  options.shard_index = 3;
  options.slow_handle_ms = 1e-6;  // Everything is "slow".
  std::vector<std::string> lines;
  options.slow_handle_sink = [&lines](const std::string& line) {
    lines.push_back(line);
  };
  ShardServer server(slice.state, slice.global_ids, options);

  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  const raster::HierarchicalRaster hr =
      raster::HierarchicalRaster::BuildEpsilon(star, base_->grid, 8.0);
  ScatterRequest request;
  request.kind = ScatterRequest::Kind::kAggregateCells;
  request.level = 7;
  request.trace_hi = 0x00c0ffee00000001ull;
  request.trace_lo = 0xdeadbeef00000002ull;
  request.span_id = 0x42;
  request.has_cells = true;
  request.cells = hr.cells();
  GatherPartial partial;
  ASSERT_TRUE(
      GatherPartial::Decode(server.Handle(request.Encode()), &partial).ok());
  ASSERT_EQ(partial.status, GatherPartial::Disposition::kOk);

  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("SLOW_SHARD"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("trace=00c0ffee00000001deadbeef00000002"),
            std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("shard=3"), std::string::npos) << lines[0];

  // Untraced requests log too (slowness is slowness), marked as such.
  request.trace_hi = request.trace_lo = request.span_id = 0;
  ASSERT_TRUE(
      GatherPartial::Decode(server.Handle(request.Encode()), &partial).ok());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("trace=untraced"), std::string::npos) << lines[1];

  // The server's handle-latency histogram recorded both calls under its
  // shard label.
  EXPECT_EQ(server.registry()
                ->GetHistogram("dbsa_shard_handle_ms{shard=\"3\"}")
                ->Snapshot()
                .count,
            2u);
}

// ---- shard-aware WarmCache --------------------------------------------

TEST_F(ShardServerTest, WarmCacheWarmsOnlyRoutedRegionsPerShard) {
  for (const size_t k : {size_t{1}, size_t{2}, size_t{7}}) {
    ServiceOptions options;
    options.num_threads = 4;
    options.num_shards = k;
    options.use_transport = true;
    QueryService service(std::shared_ptr<const core::EngineState>(base_), options);
    ASSERT_EQ(service.num_shard_servers(), k);

    const double eps = 8.0;
    service.WarmCache(eps);
    const int level = base_->grid.LevelForEpsilon(eps);
    const std::vector<geom::Polygon>& polys = base_->regions->polys;

    for (size_t s = 0; s < k; ++s) {
      // Expected: exactly the regions whose HR cells route to shard s.
      std::vector<uint64_t> expected;
      for (size_t j = 0; j < polys.size(); ++j) {
        const raster::HierarchicalRaster hr =
            raster::HierarchicalRaster::BuildLevel(polys[j], base_->grid, level);
        if (service.sharded()->ShardIntersects(s, hr.cells().data(),
                                               hr.cells().size())) {
          expected.push_back(j);
        }
      }
      std::vector<uint64_t> cached;
      for (const auto& [object, cached_level] : service.shard_server(s)->CachedKeys()) {
        EXPECT_EQ(cached_level, level) << "k=" << k << " shard " << s;
        EXPECT_EQ(object.hi, 0u) << "k=" << k << " shard " << s
                                 << ": region keys only";
        cached.push_back(object.lo);
      }
      std::sort(cached.begin(), cached.end());
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(cached, expected) << "k=" << k << " shard " << s;
      // The warm routed at least one region somewhere but no shard holds
      // the full region table unless everything routes to it.
      EXPECT_LE(cached.size(), polys.size());
    }
  }
}

TEST_F(ShardServerTest, WarmAndColdResultsByteIdentical) {
  std::vector<Request> workload;
  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  for (const double eps : {4.0, 8.0}) {
    workload.push_back(Request::MakeAggregate(join::AggKind::kCount,
                                              core::Attr::kNone, eps,
                                              core::Mode::kPointIndex));
    workload.push_back(Request::MakeAggregate(join::AggKind::kSum, core::Attr::kFare,
                                              eps, core::Mode::kPointIndex));
    workload.push_back(Request::MakeCount(star, eps));
    workload.push_back(Request::MakeSelect(star, eps));
  }

  for (const size_t k : {size_t{1}, size_t{2}, size_t{7}}) {
    for (const size_t threads : {size_t{1}, size_t{8}}) {
      ServiceOptions options;
      options.num_threads = threads;
      options.num_shards = k;
      options.use_transport = true;

      QueryService cold(std::shared_ptr<const core::EngineState>(base_), options);
      QueryService warm(std::shared_ptr<const core::EngineState>(base_), options);
      warm.WarmCache(4.0);
      warm.WarmCache(8.0);

      for (const Request& req : workload) {
        cold.Submit(req);
        warm.Submit(req);
      }
      const std::vector<Response> cold_responses = cold.DrainResponses();
      const std::vector<Response> warm_responses = warm.DrainResponses();
      ASSERT_EQ(cold_responses.size(), workload.size());
      ASSERT_EQ(warm_responses.size(), workload.size());
      const std::string label =
          "k=" + std::to_string(k) + " threads=" + std::to_string(threads);
      for (size_t i = 0; i < workload.size(); ++i) {
        const Response& c = cold_responses[i];
        const Response& w = warm_responses[i];
        ASSERT_TRUE(c.ok() && w.ok()) << label << " " << c.error << w.error;
        ExpectRowsIdentical(w.aggregate, c.aggregate,
                            label + " request " + std::to_string(i));
        EXPECT_EQ(w.range.estimate, c.range.estimate) << label << " request " << i;
        EXPECT_EQ(w.range.lo, c.range.lo) << label << " request " << i;
        EXPECT_EQ(w.range.hi, c.range.hi) << label << " request " << i;
        EXPECT_EQ(w.ids, c.ids) << label << " request " << i;
      }
      // The warm service's aggregates found every region HR in the
      // central cache and (for point-index plans) the routed slices in
      // the per-shard caches.
      size_t warm_hits = 0;
      for (size_t s = 0; s < warm.num_shard_servers(); ++s) {
        warm_hits += warm.shard_server(s)->stats().cache_hits;
      }
      EXPECT_GT(warm_hits, 0u) << label;
    }
  }
}

}  // namespace
}  // namespace dbsa::service
