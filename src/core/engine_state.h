// The engine's immutable build products, split out of the SpatialEngine
// façade so they can be shared: one EngineState holds the registered
// tables, the covering grid and the linearized point index, and NOTHING in
// it mutates after BuildEngineState returns. Any number of threads may
// execute queries against the same state concurrently through the
// Execute* functions below — all per-query scratch lives on the caller's
// stack. The service layer (src/service/) shares states behind
// shared_ptr snapshots and injects caching / intra-query parallelism via
// ExecHooks.

#ifndef DBSA_CORE_ENGINE_STATE_H_
#define DBSA_CORE_ENGINE_STATE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "join/exact_join.h"
#include "join/point_index_join.h"
#include "join/result_range.h"
#include "query/error_bound.h"
#include "query/optimizer.h"
#include "telemetry/trace.h"

namespace dbsa::core {

/// Per-region answer of an aggregation query.
struct AggregateRow {
  uint32_t region = 0;
  double value = 0.0;
  /// Guaranteed range (conservative plans only; lo == hi == value
  /// otherwise).
  double lo = 0.0;
  double hi = 0.0;
};

/// Execution report of one query.
struct ExecStats {
  query::PlanKind plan = query::PlanKind::kExactRStar;
  std::string explain;
  double elapsed_ms = 0.0;
  double achieved_epsilon = 0.0;
  /// Hierarchical-raster level actually served (-1: no raster was
  /// involved — exact plans, canvas plans).
  int hr_level = -1;
  /// Approximation cells probed. Sharded executions count each cell once
  /// per shard slice it was routed to (honest scatter accounting), so the
  /// number may exceed the unsharded cell count for the same query.
  size_t query_cells = 0;
  size_t pip_tests = 0;
  size_t index_bytes = 0;
  size_t hr_cache_hits = 0;    ///< Approximations served from a cache.
  size_t hr_cache_misses = 0;  ///< Approximations built by this query.
  /// Sharded execution only: distinct shards that survived pruning for at
  /// least one query polygon (0 = the unsharded path ran).
  size_t shards_probed = 0;
};

struct AggregateAnswer {
  std::vector<AggregateRow> rows;
  ExecStats stats;
};

/// Answers of the ad-hoc polygon queries under the v2 envelope: payload
/// plus the execution report the serving layer turns into the achieved
/// side of the distance-bound contract (service::Result::bound).
struct CountAnswer {
  join::ResultRange range;
  ExecStats stats;
};

struct SelectAnswer {
  std::vector<uint32_t> ids;
  ExecStats stats;
};

/// Which attribute of the point table to aggregate.
enum class Attr { kNone, kFare, kPassengers };

/// Execution-mode override (kAuto defers to the optimizer).
enum class Mode { kAuto, kAct, kPointIndex, kCanvasBrj, kExact };

/// Immutable snapshot of one (points, regions) registration: the tables
/// themselves plus every shared build product. Construct only through
/// BuildEngineState; treat as frozen afterwards.
struct EngineState {
  std::shared_ptr<const data::PointSet> points;
  std::shared_ptr<const data::RegionSet> regions;
  /// Widened passenger column, materialized once per state (the seed
  /// engine recomputed it on every SetPoints call).
  std::vector<double> passengers_as_double;
  raster::Grid grid{geom::Point{0.0, 0.0}, 1.0};
  /// Built eagerly so concurrent queries never race on lazy construction.
  std::optional<join::PointIndex> point_index;

  const double* AttrColumn(Attr attr) const;
  join::JoinInput MakeInput(Attr attr) const;
};

/// Builds the shared products (covering grid, point index, attribute
/// columns) for the given tables. The tables are adopted, not copied.
/// `grid_override`, when non-null, pins the state's grid instead of
/// deriving it from the table bounds — shards of one base state must all
/// linearize against the base grid so cell keys and epsilon levels agree
/// across shards (core/sharded_state.h).
std::shared_ptr<const EngineState> BuildEngineState(
    std::shared_ptr<const data::PointSet> points,
    std::shared_ptr<const data::RegionSet> regions,
    const raster::Grid* grid_override = nullptr);

/// Convenience overload that wraps the tables (moved, not copied).
std::shared_ptr<const EngineState> BuildEngineState(data::PointSet points,
                                                    data::RegionSet regions);

/// poly_index value passed to an HrProvider for polygons that are not part
/// of the registered region table (ad-hoc query polygons).
inline constexpr size_t kAdHocPolygon = static_cast<size_t>(-1);

/// Returns the HR approximation of `poly` at the level implied by
/// `epsilon` — either freshly built or shared from a cache. Must be
/// thread-safe; the returned structure must stay valid for the query's
/// lifetime (shared_ptr ownership guarantees it).
using HrProvider = std::function<std::shared_ptr<const raster::HierarchicalRaster>(
    size_t poly_index, const geom::Polygon& poly, double epsilon)>;

/// Injection points for the serving layer. Defaults (empty functions)
/// reproduce the single-threaded engine exactly.
struct ExecHooks {
  /// Approximation source; null -> build fresh on the caller's stack.
  HrProvider hr_provider;
  /// Runs fn(0..n-1) — possibly concurrently, in any order. Used for the
  /// per-polygon stage of the point-index plan; the per-region combine
  /// stays serial in polygon order, so results are bit-identical to the
  /// serial execution regardless of scheduling.
  std::function<void(size_t n, const std::function<void(size_t)>& fn)> parallel_for;
  /// Cap on concurrently in-flight iterations of any fan-out stage
  /// (RunMaybeParallel chunks the iteration space). 0 = unlimited. A
  /// scheduling knob only — results are identical at any cap; the serving
  /// layer wires service::ExecOptions::max_shard_fanout here to keep one
  /// query from monopolizing every shard connection at once.
  size_t max_fanout = 0;
  /// Span collector of the submitting query (telemetry/trace.h); null
  /// when tracing is off. Observe-only: stages record wall-clock spans
  /// into it, nothing reads it back during execution — results are
  /// byte-identical with or without a trace attached.
  telemetry::QueryTrace* trace = nullptr;
};

// ---- executor building blocks -----------------------------------------
// Shared by the unsharded executor below and the sharded executors
// (service/shard_server.h) so the two paths cannot drift apart —
// the sharded merge identity depends on them performing the exact same
// plan resolution and row assembly.

/// Optimizer profile for a region aggregation over `state`.
query::QueryProfile MakeAggregateProfile(const EngineState& state, double epsilon,
                                         const ExecHooks& hooks);

/// The Mode that pins an already-resolved plan: executors that choose a
/// plan against one cost model (e.g. the shard-aware profile) and then
/// delegate execution must not let the delegate's optimizer second-guess
/// the choice.
Mode ModeForPlan(query::PlanKind plan);

/// Runs fn(0..n-1) through hooks.parallel_for when set (and n > 1),
/// serially otherwise — the standard fan-out of every executor stage.
void RunMaybeParallel(const ExecHooks& hooks, size_t n,
                      const std::function<void(size_t)>& fn);

/// Applies the mode override, the epsilon==0 exactness requirement, and
/// the kPassengers reroute (the point index carries fare prefix sums
/// only) to the optimizer's choice.
query::PlanKind ResolveAggregatePlan(query::PlanKind optimizer_choice,
                                     join::AggKind agg, Attr attr, double epsilon,
                                     Mode mode);

/// Builds the per-region answer rows (value + Section 6 range) from the
/// merged per-region cell aggregates of a point-index execution.
void RowsFromRegionAggregates(const std::vector<join::CellAggregate>& per_region,
                              join::AggKind agg, std::vector<AggregateRow>* rows);

/// HR approximation of one polygon: through hooks.hr_provider when set
/// (the serving layer's cache), otherwise built fresh on this thread.
std::shared_ptr<const raster::HierarchicalRaster> HrForPolygon(
    const EngineState& state, const ExecHooks& hooks, size_t poly_index,
    const geom::Polygon& poly, double epsilon);

/// SELECT AGG(attr) FROM P, R WHERE P.loc INSIDE R.geometry GROUP BY R.id
/// with distance bound epsilon (0 = exact). Pure: state is shared-read.
AggregateAnswer ExecuteAggregate(const EngineState& state, join::AggKind agg,
                                 Attr attr, double epsilon, Mode mode = Mode::kAuto,
                                 const ExecHooks& hooks = {});

/// COUNT points inside an ad-hoc polygon with a guaranteed result range.
join::ResultRange ExecuteCountInPolygon(const EngineState& state,
                                        const geom::Polygon& poly, double epsilon,
                                        const ExecHooks& hooks = {});

/// Conservative approximate selection of point ids inside an ad-hoc
/// polygon (every true inside point returned; extras within epsilon).
std::vector<uint32_t> ExecuteSelectInPolygon(const EngineState& state,
                                             const geom::Polygon& poly, double epsilon,
                                             const ExecHooks& hooks = {});

// ---- v2 executors: the typed distance-bound contract -------------------
// The envelope's ErrorBound replaces the loose epsilon: kAbsoluteDistance
// reproduces the Grid::LevelForEpsilon snapping, kGridLevel pins the HR
// level exactly, kExact bypasses approximation entirely (exact plans for
// aggregations, brute-force point-in-polygon for ad-hoc queries). The
// double-epsilon entry points above remain as the Absolute(epsilon) case.

AggregateAnswer ExecuteAggregate(const EngineState& state, join::AggKind agg,
                                 Attr attr, const query::ErrorBound& bound,
                                 Mode mode = Mode::kAuto,
                                 const ExecHooks& hooks = {});

/// COUNT under a typed bound. Exact bounds scan the point table with PIP
/// tests (range collapses to the exact count); approximate bounds probe
/// the point index through the bound's grid level.
CountAnswer ExecuteCount(const EngineState& state, const geom::Polygon& poly,
                         const query::ErrorBound& bound,
                         const ExecHooks& hooks = {});

/// Selection under a typed bound. Exact bounds return exactly the inside
/// points, ascending by row id; approximate bounds return the
/// conservative covered set in the index's canonical (leaf key, row)
/// order, as before.
SelectAnswer ExecuteSelect(const EngineState& state, const geom::Polygon& poly,
                           const query::ErrorBound& bound,
                           const ExecHooks& hooks = {});

}  // namespace dbsa::core

#endif  // DBSA_CORE_ENGINE_STATE_H_
