#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "calibration.h"
#include "core/engine_state.h"
#include "core/sharded_state.h"
#include "data/regions.h"
#include "data/taxi.h"
#include "data/workload.h"
#include "heap_counter.h"
#include "oracle.h"
#include "raster/hierarchical_raster.h"
#include "service/approx_cache.h"
#include "service/query_service.h"
#include "service/shard_server.h"
#include "service/socket_cluster.h"
#include "service/transport.h"
#include "snapshot/snapshot.h"
#include "spans.h"
#include "util/random.h"

namespace perfbench {
namespace {

namespace core = dbsa::core;
namespace data = dbsa::data;
namespace geom = dbsa::geom;
namespace join = dbsa::join;
namespace query = dbsa::query;
namespace raster = dbsa::raster;
namespace service = dbsa::service;
namespace snapshot = dbsa::snapshot;

using Clock = std::chrono::steady_clock;
using HrPtr = service::ApproxCache::HrPtr;

// ------------------------------------------------------------ constants

/// Fixed pool: one client plus two workers stay under the 4 cores the
/// benchmark is sized for.
constexpr size_t kPoolThreads = 2;
constexpr size_t kShards = 4;
constexpr uint64_t kEpoch = 2021;
constexpr uint64_t kCitySeed = 20210111;
/// Set-ups per run; setup_s is their median (the first after idle is slow).
constexpr int kSetupReps = 5;
/// p90 then keeps at least ten samples beyond it.
constexpr size_t kMinTimedQueries = 100;
/// Share of the timed list the traced mode replays (its prefix).
constexpr double kTraceFraction = 0.25;
/// Traced mode: the layers' self times must cover at least this share of
/// the traced latency (the rest is the benchmark's own glue).
constexpr double kAttributedTolerance = 0.10;
constexpr double kEpsilons[3] = {4.0, 16.0, 64.0};
constexpr int kZoomSteps = 10;
constexpr int kScreenPixels = 1024;
constexpr size_t kHotFoci = 8;
constexpr double kTwoPi = 6.283185307179586;
constexpr double kFreshPanShare = 0.02;

struct Scale {
  size_t points;
  size_t regions;
  size_t lasso_warmup;
  size_t pan_warmup_sessions;
};
constexpr Scale kFullScale{100000, 1000, 200, 20};
constexpr Scale kTinyScale{4000, 24, 10, 3};

geom::Box Universe() { return geom::Box(0.0, 0.0, 16384.0, 16384.0); }

// ----------------------------------------------------------------- json

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class Json {
 public:
  Json& Raw(const std::string& key, const std::string& json) {
    fields_ += (fields_.empty() ? "" : ", ") + Quote(key) + ": " + json;
    return *this;
  }
  Json& Add(const std::string& key, double v) { return Raw(key, Num(v)); }
  Json& Add(const std::string& key, const std::string& v) { return Raw(key, Quote(v)); }
  Json& Add(const std::string& key, bool v) { return Raw(key, v ? "true" : "false"); }
  /// {"value": v, "unit": u} — the metric shape of the result line.
  Json& Metric(const std::string& key, double v, const char* unit) {
    return Raw(key, Json().Add("value", v).Add("unit", std::string(unit)).str());
  }
  std::string str() const { return "{" + fields_ + "}"; }

 private:
  std::string fields_;
};

// --------------------------------------------------------------- inputs

struct Tables {
  data::PointSet points;
  data::RegionSet regions;
};

/// The city is fixed; the seed drives the traffic (which queries, in
/// which order). A seeded city moves the precision metric with the hotspot
/// layout and region shapes, so a seed would change what is measured.
Tables MakeTables(const Scale& scale) {
  data::TaxiConfig taxi;
  taxi.universe = Universe();
  taxi.seed = kCitySeed;
  data::RegionConfig regions = data::CensusConfig(Universe(), scale.regions);
  regions.seed = kCitySeed ^ 0x9e3779b97f4a7c15ULL;
  return Tables{data::GenerateTaxiPoints(scale.points, taxi),
                data::GenerateRegions(regions)};
}

/// One query as the client submits it.
struct Planned {
  service::Query query;
  service::ExecOptions options;
};

Planned Make(service::Query q, query::ErrorBound bound,
             core::Mode mode = core::Mode::kAuto) {
  Planned p{std::move(q), {}};
  p.options.bound = bound;
  p.options.mode = mode;
  return p;
}

geom::Polygon BoxPolygon(const geom::Box& b) {
  geom::Polygon poly(
      geom::Ring{{b.min.x, b.min.y}, {b.max.x, b.min.y}, {b.max.x, b.max.y}, {b.min.x, b.max.y}});
  poly.Normalize();
  return poly;
}

const geom::Polygon* PolygonOf(const service::Query& q) {
  if (const auto* c = std::get_if<service::CountSpec>(&q.spec())) return &c->poly;
  if (const auto* s = std::get_if<service::SelectSpec>(&q.spec())) return &s->poly;
  return nullptr;
}

service::ServiceOptions DefaultServiceOptions() {
  service::ServiceOptions options;
  options.num_threads = kPoolThreads;
  return options;
}

// ------------------------------------------------------- counters/stats

/// The service-side counters a run reads before and after its timed phase.
struct Counters {
  service::ApproxCache::Stats cache;
  service::LoopbackTransport::Stats transport;
  uint64_t shard_hits = 0;
  uint64_t shard_not_cached = 0;
  size_t shard_cache_bytes = 0;
};

Counters ReadCounters(const service::QueryService& s) {
  Counters c;
  c.cache = s.cache_stats();
  c.transport = s.transport_stats();
  for (size_t i = 0; i < s.num_shard_servers(); ++i) {
    const service::ShardServer::Stats st = s.shard_server(i)->stats();
    c.shard_hits += st.cache_hits;
    c.shard_not_cached += st.cache_misses;
    c.shard_cache_bytes += st.cache_bytes;
  }
  return c;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear interpolation between closest ranks of the raw samples.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Loop {
  std::vector<double> latency_ms;
  std::vector<service::Result> results;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// The closed loop with one client: each query is submitted only after
/// the previous Result arrived.
Loop ClosedLoop(service::QueryService& svc, const std::vector<Planned>& queries,
                bool keep_results) {
  Loop loop;
  loop.latency_ms.reserve(queries.size());
  if (keep_results) loop.results.reserve(queries.size());
  const double cpu0 = CpuSeconds();
  const Clock::time_point start = Clock::now();
  for (const Planned& q : queries) {
    const Clock::time_point t0 = Clock::now();
    service::Result r = svc.Execute(q.query, q.options).get();
    loop.latency_ms.push_back(MsSince(t0));
    if (keep_results) loop.results.push_back(std::move(r));
  }
  loop.wall_s = MsSince(start) / 1e3;
  loop.cpu_s = CpuSeconds() - cpu0;
  return loop;
}

// ---------------------------------------------------------- the replay

/// The traced replay's own approximation cache, at the service's default
/// budget: spans around the cache lookup and, on a miss, around the HR
/// build (raster::HierarchicalRaster::BuildLevel — what the service's
/// cache-miss path and core::HrForPolygon run).
class ReplayCache {
 public:
  ReplayCache() : cache_(service::ServiceOptions{}.cache_budget_bytes) {}

  HrPtr Get(const core::EngineState& state, size_t index, const geom::Polygon& poly,
            double epsilon, SpanLog* log) {
    SpanLog::Scope span(log, "approx_cache.lookup");
    const int level = state.grid.LevelForEpsilon(epsilon);
    const bool ad_hoc = index == core::kAdHocPolygon;
    const service::ObjectKey key = ad_hoc ? service::PolygonFingerprint(poly)
                                          : service::ObjectKey(uint64_t{index});
    return cache_.GetOrBuild(
        key, level,
        [&]() {
          SpanLog::Scope build(log, "raster.hr_build");
          raster::HierarchicalRaster hr =
              raster::HierarchicalRaster::BuildLevel(poly, state.grid, level);
          ++builds_;
          cells_ += hr.NumCells();
          return hr;
        },
        nullptr, ad_hoc ? &poly : nullptr);
  }

  void ResetCounts() { builds_ = cells_ = 0; }
  size_t builds() const { return builds_; }
  size_t cells() const { return cells_; }

 private:
  service::ApproxCache cache_;
  size_t builds_ = 0;
  size_t cells_ = 0;
};

core::ExecHooks HandIn(const HrPtr& hr) {
  core::ExecHooks hooks;
  hooks.hr_provider = [hr](size_t, const geom::Polygon&, double) { return hr; };
  return hooks;
}

// ------------------------------------------------------------ workloads

class Workload {
 public:
  explicit Workload(const Tables& tables) : tables_(tables) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Closed-loop rate on the reference host; sizes the query list.
  virtual double nominal_qps() const = 0;
  virtual size_t shards() const { return 1; }
  /// Untimed part of a set-up: drop the previous service, copy the inputs
  /// the next set-up adopts.
  virtual void PrepareSetup() = 0;
  /// Timed: from generated inputs to the first servable query.
  virtual void Setup() = 0;
  virtual service::QueryService& service() = 0;
  /// Never timed; for ad-hoc workloads, disjoint from the timed queries.
  virtual std::vector<Planned> Warmup() const = 0;
  virtual std::vector<Planned> Timed(size_t n) const = 0;
  /// HR builds repeat exactly unless the pool builds regions concurrently.
  virtual bool hr_builds_exact() const { return true; }

  /// Builds the replay's own components and warms them with `warmup`.
  virtual void StartReplay(const std::vector<Planned>& warmup) = 0;
  /// Runs one query serially through the layers' public functions,
  /// spans into `log` (null: untraced).
  virtual void Replay(const Planned& q, SpanLog* log) = 0;
  ReplayCache& replay_cache() { return replay_cache_; }

  /// Extra per-layer metrics only this workload can measure.
  virtual void AddLayerMetrics(const std::vector<Planned>& /*replayed*/,
                               double /*traced_mean_ms*/, Json*) {}
  virtual double assemble_ms() const { return 0.0; }
  virtual void AddWorkingSet(Json*) const {}

 protected:
  const Tables& tables_;
  ReplayCache replay_cache_;
};

/// A city dashboard refreshing its choropleths: COUNT(*) and SUM(fare)
/// GROUP BY every census region, cycling the distance bound. The cycle
/// visits each bound's HR set only after the other two, and the three
/// sets together outgrow the 64 MiB cache: the workload LARGER than the
/// cache, carried by the cache policy, the rasterizer and the pool's
/// per-region fan-out.
class DashboardRefresh : public Workload {
 public:
  DashboardRefresh(const Tables& tables, uint64_t seed) : Workload(tables), seed_(seed) {}
  double nominal_qps() const override { return 5.0; }
  bool hr_builds_exact() const override { return false; }

  void PrepareSetup() override {
    service_.reset();
    state_.reset();
    points_ = tables_.points;
    regions_ = tables_.regions;
  }
  void Setup() override {
    state_ = core::BuildEngineState(std::move(points_), std::move(regions_));
    service_ = std::make_unique<service::QueryService>(state_, DefaultServiceOptions());
    service_->WarmCache(kEpsilons[0]);
  }
  service::QueryService& service() override { return *service_; }

  std::vector<Planned> Warmup() const override { return Cycle(6); }
  /// Whole cycles, so every seed runs the same (aggregate, bound) mix.
  std::vector<Planned> Timed(size_t n) const override { return Cycle((n + 5) / 6 * 6); }

  void StartReplay(const std::vector<Planned>& warmup) override {
    for (const Planned& q : warmup) Replay(q, nullptr);
  }
  void Replay(const Planned& q, SpanLog* log) override {
    SpanLog::Scope root(log, "query");
    const auto& spec = std::get<service::AggregateSpec>(q.query.spec());
    const double eps = q.options.bound.epsilon;
    const std::vector<geom::Polygon>& polys = state_->regions->polys;
    std::vector<HrPtr> hrs(polys.size());
    for (size_t j = 0; j < polys.size(); ++j) {
      hrs[j] = replay_cache_.Get(*state_, j, polys[j], eps, log);
    }
    core::ExecHooks hooks;
    hooks.hr_provider = [&hrs](size_t j, const geom::Polygon&, double) { return hrs[j]; };
    SpanLog::Scope exec(log, "core.execute");
    core::ExecuteAggregate(*state_, spec.agg, spec.attr, q.options.bound, q.options.mode,
                           hooks);
  }

 private:
  /// Three bounds, each visited only after the other two: the seed picks
  /// their order and whether COUNT or SUM leads; position i runs bound
  /// i % 3, the leading aggregate for three positions, then the other.
  std::vector<Planned> Cycle(size_t n) const {
    std::array<double, 3> eps = {kEpsilons[0], kEpsilons[1], kEpsilons[2]};
    for (uint64_t k = 0; k < seed_ % 6; ++k) std::next_permutation(eps.begin(), eps.end());
    const bool sum_first = (seed_ / 6) % 2 == 1;
    std::vector<Planned> out;
    for (size_t i = 0; i < n; ++i) {
      const bool count = ((i / 3) % 2 == 0) != sum_first;
      out.push_back(Make(service::Query::Aggregate(
                             count ? join::AggKind::kCount : join::AggKind::kSum,
                             count ? core::Attr::kNone : core::Attr::kFare),
                         query::ErrorBound::Absolute(eps[i % 3]), core::Mode::kPointIndex));
    }
    return out;
  }

  uint64_t seed_;
  data::PointSet points_;
  data::RegionSet regions_;
  std::shared_ptr<const core::EngineState> state_;
  std::unique_ptr<service::QueryService> service_;
};

/// Freehand lasso selections: a new seeded polygon per query, so no
/// approximation is ever reused — every approximate query builds its HR
/// and the cache only inserts and evicts (the dashboard's layer, used the
/// opposite way).
class LassoAdhoc : public Workload {
 public:
  LassoAdhoc(const Tables& tables, const Scale& scale, uint64_t seed)
      : Workload(tables), seed_(seed), warmup_(scale.lasso_warmup) {}
  double nominal_qps() const override { return 500.0; }

  void PrepareSetup() override {
    service_.reset();
    state_.reset();
    points_ = tables_.points;
    regions_ = tables_.regions;
  }
  void Setup() override {
    state_ = core::BuildEngineState(std::move(points_), std::move(regions_));
    service_ = std::make_unique<service::QueryService>(state_, DefaultServiceOptions());
  }
  service::QueryService& service() override { return *service_; }

  /// A different stream from Timed: warm-up polygons are never timed.
  std::vector<Planned> Warmup() const override {
    return Lassos(seed_ ^ 0x5bd1e995ULL, warmup_);
  }
  std::vector<Planned> Timed(size_t n) const override { return Lassos(seed_, n); }

  void StartReplay(const std::vector<Planned>& warmup) override {
    for (const Planned& q : warmup) Replay(q, nullptr);
  }
  void Replay(const Planned& q, SpanLog* log) override {
    SpanLog::Scope root(log, "query");
    const geom::Polygon& poly = *PolygonOf(q.query);
    const bool select = q.query.kind() == service::QueryKind::kSelect;
    if (q.options.bound.exact()) {
      SpanLog::Scope exec(log, "core.exact_scan");
      if (select) {
        core::ExecuteSelect(*state_, poly, q.options.bound);
      } else {
        core::ExecuteCount(*state_, poly, q.options.bound);
      }
      return;
    }
    const HrPtr hr = replay_cache_.Get(*state_, core::kAdHocPolygon, poly,
                                       q.options.bound.epsilon, log);
    SpanLog::Scope exec(log, "core.execute");
    if (select) {
      core::ExecuteSelect(*state_, poly, q.options.bound, HandIn(hr));
    } else {
      core::ExecuteCount(*state_, poly, q.options.bound, HandIn(hr));
    }
  }

 private:
  /// 3/4 COUNT and 1/4 SELECT; one query in ten exact, the rest at a
  /// seeded bound from kEpsilons. A lasso is star-shaped around a data
  /// point (people lasso where the data is): 8-32 vertices, radius 3-12%
  /// of the city side.
  std::vector<Planned> Lassos(uint64_t seed, size_t n) const {
    dbsa::Rng rng(seed);
    const double side = Universe().Width();
    std::vector<Planned> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const double radius = side * rng.Uniform(0.03, 0.12);
      const geom::Point& anchor = tables_.points.locs[rng.Below(tables_.points.size())];
      const double cx = std::clamp(anchor.x, radius, side - radius);
      const double cy = std::clamp(anchor.y, radius, side - radius);
      const int k = static_cast<int>(rng.Range(8, 32));
      std::vector<double> angles(static_cast<size_t>(k));
      for (double& a : angles) a = rng.Uniform(0.0, kTwoPi);
      std::sort(angles.begin(), angles.end());
      geom::Ring ring;
      for (const double a : angles) {
        const double r = radius * rng.Uniform(0.6, 1.0);
        ring.push_back({cx + r * std::cos(a), cy + r * std::sin(a)});
      }
      geom::Polygon poly(std::move(ring));
      poly.Normalize();
      const query::ErrorBound bound =
          i % 10 == 9 ? query::ErrorBound::Exact()
                      : query::ErrorBound::Absolute(kEpsilons[rng.Below(3)]);
      out.push_back(Make(i % 4 == 3 ? service::Query::Select(std::move(poly))
                                    : service::Query::Count(std::move(poly)),
                         bound));
    }
    return out;
  }

  uint64_t seed_;
  size_t warmup_;
  data::PointSet points_;
  data::RegionSet regions_;
  std::shared_ptr<const core::EngineState> state_;
  std::unique_ptr<service::QueryService> service_;
};

/// Map exploration over 4 Hilbert shards behind the loopback carrier,
/// deployed from epoch-stamped snapshot bytes. Each session zooms in
/// toward a focus, mostly from the city's small hot set, occasionally a
/// fresh pan; detail levels SELECT, the others COUNT. The workload that
/// FITS the caches: the wire format, the router, the shard servers and
/// their slice caches carry it, with little raster work.
class ViewportPan : public Workload {
 public:
  ViewportPan(const Tables& tables, const Scale& scale, uint64_t seed)
      : Workload(tables), seed_(seed), warmup_sessions_(scale.pan_warmup_sessions) {
    // The snapshot bytes are encoded untimed: set-up starts from them.
    data::PointSet points = tables.points;
    data::RegionSet regions = tables.regions;
    core::ShardingOptions sharding;
    sharding.num_shards = kShards;
    const std::shared_ptr<const core::ShardedState> sharded = core::ShardedState::Build(
        core::BuildEngineState(std::move(points), std::move(regions)), sharding);
    client_bytes_ = snapshot::EncodeClientSnapshot(*sharded, kEpoch);
    for (size_t s = 0; s < kShards; ++s) {
      slice_bytes_.push_back(snapshot::EncodeShardSnapshot(*sharded, s, kEpoch));
    }
    // The hot places belong to the city, not to the seed's traffic.
    dbsa::Rng rng(kCitySeed ^ 0x2545f4914f6cdd1dULL);
    for (size_t h = 0; h < kHotFoci; ++h) {
      hot_foci_.push_back(tables.points.locs[rng.Below(tables.points.size())]);
    }
  }
  double nominal_qps() const override { return 500.0; }
  size_t shards() const override { return kShards; }

  void PrepareSetup() override {
    service_.reset();
    sharded_.reset();
    client_copy_ = client_bytes_;
    slice_copies_ = slice_bytes_;
  }
  void Setup() override {
    const snapshot::SnapshotReader client =
        snapshot::SnapshotReader::Parse(std::move(client_copy_)).value();
    std::vector<snapshot::SnapshotReader> slices;
    for (std::string& bytes : slice_copies_) {
      slices.push_back(snapshot::SnapshotReader::Parse(std::move(bytes)).value());
    }
    const Clock::time_point t0 = Clock::now();
    sharded_ = snapshot::AssembleClusterState(client, slices).value();
    assemble_ms_.push_back(MsSince(t0));
    service::ServiceOptions options = DefaultServiceOptions();
    options.use_transport = true;
    options.num_shards = kShards;
    options.serving_epoch = kEpoch;
    service_ = std::make_unique<service::QueryService>(sharded_, options);
    // Cache warm-up: every hot session once (ApproxCache + slice caches).
    for (const Planned& q : HotSessions()) service_->Execute(q.query, q.options).get();
    const Counters warm = ReadCounters(*service_);
    warm_cache_bytes_ = warm.cache.bytes_used;
    warm_slice_bytes_ = warm.shard_cache_bytes;
  }
  service::QueryService& service() override { return *service_; }

  std::vector<Planned> Warmup() const override {
    return Sessions(seed_ ^ 0x7f4a7c15ULL, warmup_sessions_ * kZoomSteps);
  }
  std::vector<Planned> Timed(size_t n) const override { return Sessions(seed_, n); }

  /// Replays over the loopback carrier (the service's) and, for socket.*,
  /// over an in-process socket cluster (one TCP connection per shard),
  /// each with its own shard servers and its own warmed cache, so the two
  /// differ only in the carrier. Loopback handlers are wrapped in
  /// `shard_server.handle` spans; the socket servers run on listener
  /// threads, outside the replay's spans.
  void StartReplay(const std::vector<Planned>& warmup) override {
    std::vector<service::LoopbackTransport::Handler> handlers;
    for (size_t s = 0; s < sharded_->num_shards(); ++s) {
      const core::ShardedState::Shard& shard = sharded_->shard(s);
      service::ShardServer::Options options;
      options.cell_cache_budget_bytes = service::ServiceOptions{}.shard_cache_budget_bytes;
      options.shard_index = s;
      options.serving_epoch = kEpoch;
      servers_.push_back(
          std::make_shared<service::ShardServer>(shard.state, shard.global_ids, options));
      handlers.push_back([this, server = servers_.back()](const std::string& request) {
        SpanLog::Scope span(replay_log_, "shard_server.handle");
        return server->Handle(request);
      });
    }
    loopback_router_ = std::make_unique<service::ShardRouter>(
        sharded_, std::make_shared<service::LoopbackTransport>(std::move(handlers)));
    service::InProcessShardClusterOptions cluster_options;
    cluster_options.serving_epoch = kEpoch;
    replay_cluster_ = std::make_unique<service::InProcessShardCluster>(
        service::MakeInProcessShardClusterFromState(sharded_, cluster_options));
    replay_socket_ = std::make_shared<service::SocketTransport>(replay_cluster_->placement);
    socket_router_ = std::make_unique<service::ShardRouter>(sharded_, replay_socket_);
    for (const bool socket : {false, true}) {
      service::ShardRouter& router = socket ? *socket_router_ : *loopback_router_;
      router.set_epoch(kEpoch);
      ReplayCache& cache = socket ? socket_cache_ : replay_cache_;
      for (const Planned& q : HotSessions()) ReplayOn(router, cache, q, nullptr);
      for (const Planned& q : warmup) ReplayOn(router, cache, q, nullptr);
    }
    socket_warm_ = replay_socket_->stats();
  }
  void Replay(const Planned& q, SpanLog* log) override {
    ReplayOn(*loopback_router_, replay_cache_, q, log);
  }

  /// socket.*: the replayed queries again over the socket cluster; traced
  /// TCP latency minus traced loopback latency is the wire.
  void AddLayerMetrics(const std::vector<Planned>& replayed, double loopback_mean_ms,
                       Json* out) override {
    SpanLog log;
    for (size_t i = 0; i < replayed.size(); ++i) {
      log.BeginQuery(i);
      ReplayOn(*socket_router_, socket_cache_, replayed[i], &log);
    }
    const double m = static_cast<double>(std::max<size_t>(replayed.size(), 1));
    out->Metric("socket.wire_ms_per_query", log.RootMs() / m - loopback_mean_ms, "ms");
    out->Metric("socket.messages_per_query",
                static_cast<double>(replay_socket_->stats().messages - socket_warm_.messages) /
                    m,
                "count");
  }

  double assemble_ms() const override { return Median(assemble_ms_); }

  void AddWorkingSet(Json* out) const override {
    out->Add("approx_cache_bytes_after_warmup", static_cast<double>(warm_cache_bytes_));
    out->Add("slice_cache_bytes_after_warmup", static_cast<double>(warm_slice_bytes_));
  }

 private:
  void ReplayOn(service::ShardRouter& router, ReplayCache& cache, const Planned& q,
                SpanLog* log) {
    replay_log_ = log;
    SpanLog::Scope root(log, "query");
    const geom::Polygon& poly = *PolygonOf(q.query);
    const HrPtr hr = cache.Get(*sharded_->base_ptr(), core::kAdHocPolygon, poly,
                               q.options.bound.epsilon, log);
    SpanLog::Scope exec(log, "router.execute");
    if (q.query.kind() == service::QueryKind::kSelect) {
      service::ExecuteSelect(router, poly, q.options.bound, HandIn(hr));
    } else {
      service::ExecuteCount(router, poly, q.options.bound, HandIn(hr));
    }
  }

  /// One zoom-in session toward `focus`: kZoomSteps viewports at one
  /// pixel of bound each; the two detail levels SELECT, the rest COUNT.
  static void AppendSession(const geom::Point& focus, std::vector<Planned>* out) {
    const std::vector<data::ZoomStep> steps =
        data::MakeZoomSequence(Universe(), focus, kZoomSteps, kScreenPixels);
    for (size_t s = 0; s < steps.size(); ++s) {
      geom::Polygon viewport = BoxPolygon(steps[s].viewport);
      const bool detail = s + 2 >= steps.size();
      out->push_back(Make(detail ? service::Query::Select(std::move(viewport))
                                 : service::Query::Count(std::move(viewport)),
                          query::ErrorBound::Absolute(steps[s].epsilon)));
    }
  }
  std::vector<Planned> HotSessions() const {
    std::vector<Planned> out;
    for (const geom::Point& focus : hot_foci_) AppendSession(focus, &out);
    return out;
  }
  /// Sessions until n queries: a hot focus, or with kFreshPanShare a
  /// fresh pan to a random data point.
  std::vector<Planned> Sessions(uint64_t seed, size_t n) const {
    dbsa::Rng rng(seed);
    std::vector<Planned> out;
    while (out.size() < n) {
      const geom::Point focus =
          rng.Uniform() < kFreshPanShare
              ? tables_.points.locs[rng.Below(tables_.points.size())]
              : hot_foci_[rng.Below(hot_foci_.size())];
      AppendSession(focus, &out);
    }
    out.resize(n);
    return out;
  }

  uint64_t seed_;
  size_t warmup_sessions_;
  std::string client_bytes_;
  std::vector<std::string> slice_bytes_;
  std::string client_copy_;
  std::vector<std::string> slice_copies_;
  std::vector<geom::Point> hot_foci_;
  std::vector<double> assemble_ms_;
  size_t warm_cache_bytes_ = 0;
  size_t warm_slice_bytes_ = 0;
  // Teardown runs bottom-up: routers and the replay socket before the
  // listeners they reach.
  std::shared_ptr<const core::ShardedState> sharded_;
  std::unique_ptr<service::QueryService> service_;
  std::vector<std::shared_ptr<service::ShardServer>> servers_;
  std::unique_ptr<service::InProcessShardCluster> replay_cluster_;
  std::shared_ptr<service::SocketTransport> replay_socket_;
  std::unique_ptr<service::ShardRouter> loopback_router_;
  std::unique_ptr<service::ShardRouter> socket_router_;
  service::SocketTransport::Stats socket_warm_;
  ReplayCache socket_cache_;
  SpanLog* replay_log_ = nullptr;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, const Tables& tables,
                                       const Scale& scale, uint64_t seed) {
  if (name == "dashboard_refresh") return std::make_unique<DashboardRefresh>(tables, seed);
  if (name == "lasso_adhoc") return std::make_unique<LassoAdhoc>(tables, scale, seed);
  if (name == "viewport_pan") return std::make_unique<ViewportPan>(tables, scale, seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// --------------------------------------------------------------- oracle

struct Verdict {
  size_t ok = 0;  ///< Status OK and passed the oracle.
  size_t failures = 0;
  std::vector<std::string> examples;
};

Verdict CheckAll(const Tables& tables, const std::vector<Planned>& queries,
                 const std::vector<service::Result>& results) {
  Oracle oracle(tables.points, tables.regions);
  // Repeated polygons (viewport sessions) are solved once.
  std::map<std::vector<double>, std::vector<uint32_t>> memo;
  Verdict v;
  for (size_t i = 0; i < results.size(); ++i) {
    const service::Result& r = results[i];
    std::string err = r.ok() ? Oracle::CheckBound(r) : "status " + r.status.ToString();
    if (err.empty()) {
      if (const geom::Polygon* poly = PolygonOf(queries[i].query)) {
        std::vector<double> key;
        for (const geom::Point& p : poly->outer()) {
          key.push_back(p.x);
          key.push_back(p.y);
        }
        auto it = memo.find(key);
        if (it == memo.end()) it = memo.emplace(key, oracle.InsideOf(*poly)).first;
        err = r.kind == service::QueryKind::kSelect
                  ? oracle.CheckSelect(*poly, it->second, r)
                  : oracle.CheckCount(*poly, it->second.size(), r);
      } else {
        const auto& spec = std::get<service::AggregateSpec>(queries[i].query.spec());
        err = oracle.CheckAggregate(spec.agg, r);
      }
    }
    if (err.empty()) {
      ++v.ok;
    } else {
      ++v.failures;
      if (v.examples.size() < 5) v.examples.push_back("query " + std::to_string(i) + ": " + err);
    }
  }
  return v;
}

/// Mean (hi - lo) / max(hi, 1) over COUNT results and aggregate rows.
double AnswerRelWidth(const std::vector<service::Result>& results) {
  double sum = 0.0;
  size_t n = 0;
  const auto add = [&](double lo, double hi) {
    sum += (hi - lo) / std::max(hi, 1.0);
    ++n;
  };
  for (const service::Result& r : results) {
    if (r.kind == service::QueryKind::kCount) add(r.range.lo, r.range.hi);
    if (r.kind == service::QueryKind::kAggregate) {
      for (const core::AggregateRow& row : r.aggregate.rows) add(row.lo, row.hi);
    }
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

std::string JsonStrings(const std::vector<std::string>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + Quote(v[i]);
  return out + "]";
}

std::string JsonNumbers(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + Num(v[i]);
  return out + "]";
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"dashboard_refresh", "lasso_adhoc", "viewport_pan"};
}

std::string RunWorkload(const RunOptions& opt) {
  const Scale& scale = opt.tiny ? kTinyScale : kFullScale;
  const double calibration_start = CalibrationMs();
  const Tables tables = MakeTables(scale);
  std::unique_ptr<Workload> w = MakeWorkload(opt.workload, tables, scale, opt.seed);

  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    w->PrepareSetup();
    const Clock::time_point t0 = Clock::now();
    w->Setup();
    setup_s.push_back(MsSince(t0) / 1e3);
  }

  const std::vector<Planned> warmup = w->Warmup();
  ClosedLoop(w->service(), warmup, /*keep_results=*/false);

  size_t n = std::max<size_t>(
      opt.tiny ? 1 : kMinTimedQueries,
      static_cast<size_t>(std::ceil(opt.seconds * w->nominal_qps())));
  const std::vector<Planned> timed = w->Timed(n);
  n = timed.size();
  const Counters before = ReadCounters(w->service());
  Loop loop = ClosedLoop(w->service(), timed, /*keep_results=*/true);
  const Counters after = ReadCounters(w->service());
  const double peak_heap_mb = static_cast<double>(PeakHeapBytes()) / (1 << 20);

  const Verdict verdict = CheckAll(tables, timed, loop.results);
  const double qn = static_cast<double>(n);
  size_t ok_status = 0;
  double cells_touched = 0.0;
  double shards_probed = 0.0;
  for (const service::Result& r : loop.results) {
    ok_status += r.ok() ? 1 : 0;
    cells_touched += static_cast<double>(r.bound.cells_touched);
    shards_probed += static_cast<double>(r.bound.shards_probed);
  }
  const double width = AnswerRelWidth(loop.results);
  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double misses = static_cast<double>(after.cache.misses - before.cache.misses);
  const double evictions =
      static_cast<double>(after.cache.evictions - before.cache.evictions);
  const double messages =
      static_cast<double>(after.transport.messages - before.transport.messages);
  const double request_bytes =
      static_cast<double>(after.transport.request_bytes - before.transport.request_bytes);
  const double response_bytes = static_cast<double>(after.transport.response_bytes -
                                                    before.transport.response_bytes);
  const double shard_hits = static_cast<double>(after.shard_hits - before.shard_hits);
  const double not_cached =
      static_cast<double>(after.shard_not_cached - before.shard_not_cached);

  Json e2e;
  e2e.Metric("qps", static_cast<double>(ok_status) / loop.wall_s, "1/s")
      .Metric("latency_p50_ms", Percentile(loop.latency_ms, 0.5), "ms")
      .Metric("latency_p90_ms", Percentile(loop.latency_ms, 0.9), "ms")
      .Metric("cpu_ms_per_query", loop.cpu_s * 1e3 / qn, "ms")
      .Metric("ok_ratio", static_cast<double>(verdict.ok) / qn, "ratio")
      .Metric("answer_rel_width", width, "ratio")
      .Metric("setup_s", Median(setup_s), "s")
      .Metric("peak_heap_mb", peak_heap_mb, "MiB");

  // Counters that must repeat exactly for a seed, and those that may not.
  Json exact;
  exact.Add("answer_rel_width", width)
      .Add("cells_touched", cells_touched)
      .Add("shards_probed", shards_probed)
      .Add("transport_messages", messages)
      .Add("transport_request_bytes", request_bytes)
      .Add("transport_response_bytes", response_bytes)
      .Add("ok_queries", static_cast<double>(verdict.ok));
  Json varying;
  varying.Add("approx_cache_hits", hits).Add("approx_cache_evictions", evictions);
  if (w->hr_builds_exact()) {
    exact.Add("hr_builds", misses);
  } else {
    varying.Add("hr_builds", misses);
  }
  if (w->shards() > 1) {
    exact.Add("shard_cache_hits", shard_hits).Add("shard_not_cached", not_cached);
  }

  Json meta;
  meta.Add("source_id", opt.source_id)
      .Add("build_type", std::string(PERFBENCH_BUILD_TYPE))
      .Add("compiler", std::string(PERFBENCH_COMPILER))
      .Add("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Add("workload", opt.workload)
      .Add("seed", static_cast<double>(opt.seed))
      .Add("city_seed", static_cast<double>(kCitySeed))
      .Add("seconds", opt.seconds)
      .Add("trace", opt.trace)
      .Add("scale", std::string(opt.tiny ? "tiny" : "full"))
      .Add("points", static_cast<double>(scale.points))
      .Add("regions", static_cast<double>(scale.regions))
      .Add("shards", static_cast<double>(w->shards()))
      .Add("pool_threads", static_cast<double>(kPoolThreads))
      .Add("closed_loop_clients", 1.0);
  Json layers;
  bool attributed_ok = true;
  if (opt.trace) {
    const size_t m = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(static_cast<double>(n) * kTraceFraction)));
    const std::vector<Planned> replayed(timed.begin(), timed.begin() + m);
    w->StartReplay(warmup);
    w->replay_cache().ResetCounts();
    SpanLog log;
    for (size_t i = 0; i < m; ++i) {
      log.BeginQuery(i);
      w->Replay(replayed[i], &log);
    }
    const double dm = static_cast<double>(m);
    std::map<std::string, double> self = log.SelfMsByName();
    const double traced_mean = log.RootMs() / dm;
    double layer_sum = 0.0;
    for (const auto& [name, ms] : self) {
      if (name != "query") layer_sum += ms;
    }
    layer_sum /= dm;
    double untraced_mean = 0.0;
    for (size_t i = 0; i < m; ++i) untraced_mean += loop.latency_ms[i];
    untraced_mean /= dm;
    const double attributed = traced_mean > 0.0 ? layer_sum / traced_mean : 0.0;
    attributed_ok = attributed >= 1.0 - kAttributedTolerance;
    const ReplayCache& rc = w->replay_cache();

    layers.Metric("raster.hr_builds_per_query", misses / qn, "count")
        .Metric("raster.hr_build_ms_per_query", self["raster.hr_build"] / dm, "ms")
        .Metric("raster.cells_per_build",
                rc.builds() ? static_cast<double>(rc.cells()) / rc.builds() : 0.0, "count")
        .Metric("core.execute_ms_per_query", self["core.execute"] / dm, "ms")
        .Metric("core.exact_scan_ms_per_query", self["core.exact_scan"] / dm, "ms")
        .Metric("core.cells_touched_per_query", cells_touched / qn, "count")
        .Metric("approx_cache.lookup_ms_per_query", self["approx_cache.lookup"] / dm, "ms")
        .Metric("approx_cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
                "ratio")
        .Metric("approx_cache.evictions_per_query", evictions / qn, "count")
        .Metric("approx_cache.bytes_mb",
                static_cast<double>(after.cache.bytes_used) / (1 << 20), "MiB")
        .Metric("service.self_ms_per_query", untraced_mean - layer_sum, "ms")
        .Metric("service.fanout_efficiency",
                untraced_mean > 0.0 ? layer_sum / (untraced_mean * kPoolThreads) : 0.0,
                "ratio")
        .Metric("router.self_ms_per_query", self["router.execute"] / dm, "ms")
        .Metric("router.shards_probed_per_query", shards_probed / qn, "count")
        .Metric("transport.messages_per_query", messages / qn, "count")
        .Metric("transport.request_bytes_per_query", request_bytes / qn, "bytes")
        .Metric("transport.response_bytes_per_query", response_bytes / qn, "bytes")
        .Metric("shard_server.handle_ms_per_query", self["shard_server.handle"] / dm, "ms")
        .Metric("shard_server.cache_hit_ratio",
                shard_hits + not_cached > 0 ? shard_hits / (shard_hits + not_cached) : 0.0,
                "ratio")
        .Metric("shard_server.not_cached_per_query", not_cached / qn, "count");
    if (w->shards() > 1) {
      w->AddLayerMetrics(replayed, traced_mean, &layers);
    } else {
      layers.Metric("socket.wire_ms_per_query", 0.0, "ms")
          .Metric("socket.messages_per_query", 0.0, "count");
    }
    layers.Metric("snapshot.assemble_ms", w->assemble_ms(), "ms")
        .Metric("trace.overhead_ratio", untraced_mean > 0.0 ? traced_mean / untraced_mean : 0.0,
                "ratio")
        .Metric("trace.attributed_ratio", attributed, "ratio")
        .Metric("trace.mean_latency_ms", traced_mean, "ms");
    if (!opt.spans_out.empty()) {
      Json span_meta = meta;
      span_meta.Add("replayed_queries", dm);
      if (!log.WriteJsonl(opt.spans_out, span_meta.str())) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", opt.spans_out.c_str());
      }
    }
  }
  const double calibration_end = CalibrationMs();
  if (opt.trace) {
    layers.Metric("host.calibration_ms", 0.5 * (calibration_start + calibration_end), "ms");
  }

  Json checks;
  checks.Add("oracle_ok", verdict.failures == 0)
      .Add("trace_attributed_ok", attributed_ok)
      .Add("trace_attributed_tolerance", kAttributedTolerance);
  Json working_set;
  w->AddWorkingSet(&working_set);
  working_set.Add("approx_cache_bytes_at_end", static_cast<double>(after.cache.bytes_used))
      .Add("approx_cache_budget_bytes", static_cast<double>(after.cache.budget_bytes));

  Json record;
  record.Add("record", std::string("perfbench"))

      .Raw("meta", meta.str())
      .Add("attempted", qn)
      .Add("ok", static_cast<double>(verdict.ok))
      .Add("failed", static_cast<double>(n - verdict.ok))
      .Raw("failure_examples", JsonStrings(verdict.examples))
      .Raw("checks", checks.str())
      .Raw("end_to_end", e2e.str())
      .Raw("per_layer", opt.trace ? layers.str() : "null")
      .Raw("exact_counters", exact.str())
      .Raw("varying_counters", varying.str())
      .Raw("setup_s_samples", JsonNumbers(setup_s))
      .Raw("calibration_ms", JsonNumbers({calibration_start, calibration_end}))
      .Raw("working_set", working_set.str());
  return record.str();
}

}  // namespace perfbench
