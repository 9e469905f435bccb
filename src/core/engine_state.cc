#include "core/engine_state.h"

#include <algorithm>
#include <utility>

#include "canvas/brj.h"
#include "join/act_join.h"
#include "join/exact_join.h"
#include "util/check.h"
#include "util/timer.h"

namespace dbsa::core {

const double* EngineState::AttrColumn(Attr attr) const {
  switch (attr) {
    case Attr::kNone:
      return nullptr;
    case Attr::kFare:
      return points->fare.data();
    case Attr::kPassengers:
      return passengers_as_double.data();
  }
  return nullptr;
}

join::JoinInput EngineState::MakeInput(Attr attr) const {
  join::JoinInput in;
  in.points = points->locs.data();
  in.attrs = AttrColumn(attr);
  in.num_points = points->size();
  in.polys = &regions->polys;
  in.region_of = &regions->region_of;
  in.num_regions = regions->num_regions;
  return in;
}

std::shared_ptr<const EngineState> BuildEngineState(
    std::shared_ptr<const data::PointSet> points,
    std::shared_ptr<const data::RegionSet> regions,
    const raster::Grid* grid_override) {
  DBSA_CHECK(points != nullptr && regions != nullptr);
  auto state = std::make_shared<EngineState>();
  state->points = std::move(points);
  state->regions = std::move(regions);
  state->passengers_as_double.assign(state->points->passengers.begin(),
                                     state->points->passengers.end());
  if (grid_override != nullptr) {
    state->grid = *grid_override;
  } else {
    geom::Box bounds = state->points->Bounds();
    bounds.Extend(state->regions->Bounds());
    state->grid = raster::Grid::Covering(bounds);
  }
  state->point_index.emplace(state->points->locs.data(), state->points->fare.data(),
                             state->points->size(), state->grid);
  return state;
}

std::shared_ptr<const EngineState> BuildEngineState(data::PointSet points,
                                                    data::RegionSet regions) {
  return BuildEngineState(
      std::make_shared<const data::PointSet>(std::move(points)),
      std::make_shared<const data::RegionSet>(std::move(regions)));
}

query::QueryProfile MakeAggregateProfile(const EngineState& state, double epsilon,
                                         const ExecHooks& hooks) {
  query::QueryProfile profile;
  profile.num_points = state.points->size();
  profile.num_polygons = state.regions->NumPolygons();
  profile.avg_vertices = state.regions->AvgVertices();
  profile.epsilon = epsilon;
  profile.universe_extent = state.grid.side();
  profile.total_perimeter = state.regions->TotalPerimeter();
  profile.total_polygon_area = state.regions->TotalArea();
  profile.point_index_available = state.point_index.has_value();
  profile.hr_cache_available = static_cast<bool>(hooks.hr_provider);
  return profile;
}

Mode ModeForPlan(query::PlanKind plan) {
  switch (plan) {
    case query::PlanKind::kActJoin:
      return Mode::kAct;
    case query::PlanKind::kPointIndexJoin:
      return Mode::kPointIndex;
    case query::PlanKind::kCanvasBrj:
      return Mode::kCanvasBrj;
    case query::PlanKind::kExactRStar:
      return Mode::kExact;
  }
  return Mode::kExact;
}

void RunMaybeParallel(const ExecHooks& hooks, size_t n,
                      const std::function<void(size_t)>& fn) {
  if (!hooks.parallel_for || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const size_t chunk = hooks.max_fanout == 0 ? n : hooks.max_fanout;
  // Chunks run back to back, so at most `chunk` iterations are in flight
  // at once; the iteration->result mapping (and thus every merge order
  // downstream) is unchanged by the cap.
  for (size_t start = 0; start < n; start += chunk) {
    const size_t len = std::min(chunk, n - start);
    if (len == 1) {
      fn(start);
    } else {
      hooks.parallel_for(len, [&](size_t i) { fn(start + i); });
    }
  }
}

query::PlanKind ResolveAggregatePlan(query::PlanKind optimizer_choice,
                                     join::AggKind agg, Attr attr, double epsilon,
                                     Mode mode) {
  query::PlanKind plan = optimizer_choice;
  switch (mode) {
    case Mode::kAuto:
      break;
    case Mode::kAct:
      plan = query::PlanKind::kActJoin;
      break;
    case Mode::kPointIndex:
      plan = query::PlanKind::kPointIndexJoin;
      break;
    case Mode::kCanvasBrj:
      plan = query::PlanKind::kCanvasBrj;
      break;
    case Mode::kExact:
      plan = query::PlanKind::kExactRStar;
      break;
  }
  if (epsilon <= 0.0) plan = query::PlanKind::kExactRStar;
  // The point index stores prefix sums of one attribute column (fare); a
  // SUM/AVG over another column cannot be answered from it. Reroute to the
  // ACT join, which aggregates any column at the same distance bound.
  if (plan == query::PlanKind::kPointIndexJoin && agg != join::AggKind::kCount &&
      attr == Attr::kPassengers) {
    plan = query::PlanKind::kActJoin;
  }
  return plan;
}

void RowsFromRegionAggregates(const std::vector<join::CellAggregate>& per_region,
                              join::AggKind agg, std::vector<AggregateRow>* rows) {
  rows->resize(per_region.size());
  for (size_t r = 0; r < per_region.size(); ++r) {
    const join::CellAggregate& a = per_region[r];
    double value = 0.0, lo = 0.0, hi = 0.0;
    if (agg == join::AggKind::kCount) {
      const join::ResultRange range = join::CountRange(a);
      value = range.estimate;
      lo = range.lo;
      hi = range.hi;
    } else if (agg == join::AggKind::kSum) {
      const join::ResultRange range = join::SumRange(a);
      value = range.estimate;
      lo = range.lo;
      hi = range.hi;
    } else {  // AVG
      value = a.count > 0 ? a.SumValue() / a.count : 0.0;
      lo = hi = value;
    }
    (*rows)[r] = {static_cast<uint32_t>(r), value, lo, hi};
  }
}

std::shared_ptr<const raster::HierarchicalRaster> HrForPolygon(
    const EngineState& state, const ExecHooks& hooks, size_t poly_index,
    const geom::Polygon& poly, double epsilon) {
  if (hooks.hr_provider) return hooks.hr_provider(poly_index, poly, epsilon);
  return std::make_shared<raster::HierarchicalRaster>(
      raster::HierarchicalRaster::BuildEpsilon(poly, state.grid, epsilon));
}

AggregateAnswer ExecuteAggregate(const EngineState& state, join::AggKind agg,
                                 Attr attr, double epsilon, Mode mode,
                                 const ExecHooks& hooks) {
  DBSA_CHECK(!state.regions->polys.empty());
  const join::JoinInput in = state.MakeInput(attr);
  AggregateAnswer answer;

  const query::QueryProfile profile = MakeAggregateProfile(state, epsilon, hooks);
  const query::PlanChoice choice = query::ChoosePlan(profile);
  const query::PlanKind plan =
      ResolveAggregatePlan(choice.kind, agg, attr, epsilon, mode);

  answer.stats.plan = plan;
  answer.stats.explain = choice.explain;

  Timer timer;
  switch (plan) {
    case query::PlanKind::kActJoin: {
      join::ActJoinOptions opts;
      opts.epsilon = epsilon;
      const join::JoinStats stats = join::ActJoin(in, agg, state.grid, opts);
      answer.stats.pip_tests = stats.pip_tests;
      answer.stats.index_bytes = stats.index_bytes;
      answer.stats.hr_level = state.grid.LevelForEpsilon(epsilon);
      answer.stats.achieved_epsilon =
          state.grid.AchievedEpsilon(answer.stats.hr_level);
      answer.rows.resize(stats.value.size());
      for (size_t r = 0; r < stats.value.size(); ++r) {
        answer.rows[r] = {static_cast<uint32_t>(r), stats.value[r], stats.value[r],
                          stats.value[r]};
      }
      break;
    }
    case query::PlanKind::kPointIndexJoin: {
      DBSA_CHECK(state.point_index.has_value());
      DBSA_CHECK(agg == join::AggKind::kCount || agg == join::AggKind::kSum ||
                 agg == join::AggKind::kAvg);
      answer.stats.hr_level = state.grid.LevelForEpsilon(epsilon);
      answer.stats.achieved_epsilon =
          state.grid.AchievedEpsilon(answer.stats.hr_level);
      // Stage 1 — independent per polygon (HR query cells + prefix-sum
      // lookups), so the hook may fan it out across threads.
      const std::vector<geom::Polygon>& polys = state.regions->polys;
      std::vector<join::CellAggregate> per_poly(polys.size());
      const auto one_poly = [&](size_t j) {
        const std::shared_ptr<const raster::HierarchicalRaster> hr =
            HrForPolygon(state, hooks, j, polys[j], epsilon);
        per_poly[j] = state.point_index->QueryCells(*hr,
                                                    join::SearchStrategy::kSortedSweep);
      };
      RunMaybeParallel(hooks, polys.size(), one_poly);
      // Stage 2 — combine into regions serially in polygon order, keeping
      // floating-point accumulation order independent of the scheduling
      // above (the service's determinism guarantee). The boundary partials
      // give the Section 6 result range.
      std::vector<join::CellAggregate> per_region(state.regions->num_regions);
      for (size_t j = 0; j < polys.size(); ++j) {
        answer.stats.query_cells += per_poly[j].query_cells;
        per_region[state.regions->region_of[j]].Merge(per_poly[j]);
      }
      answer.stats.index_bytes =
          state.point_index->MemoryBytes(join::SearchStrategy::kSortedSweep);
      RowsFromRegionAggregates(per_region, agg, &answer.rows);
      break;
    }
    case query::PlanKind::kCanvasBrj: {
      canvas::BrjOptions opts;
      opts.epsilon = epsilon;
      const canvas::BrjResult brj = canvas::BoundedRasterJoin(
          in.points, in.attrs, in.num_points, state.regions->polys,
          state.regions->region_of, state.regions->num_regions,
          state.grid.universe(), opts);
      answer.stats.achieved_epsilon = epsilon;
      answer.rows.resize(state.regions->num_regions);
      for (size_t r = 0; r < state.regions->num_regions; ++r) {
        double value = 0.0;
        if (agg == join::AggKind::kCount) {
          value = brj.count[r];
        } else if (agg == join::AggKind::kSum) {
          value = brj.sum[r];
        } else if (agg == join::AggKind::kAvg) {
          value = brj.count[r] > 0 ? brj.sum[r] / brj.count[r] : 0.0;
        } else {
          DBSA_CHECK(false);  // MIN/MAX not supported on the count canvas.
        }
        answer.rows[r] = {static_cast<uint32_t>(r), value, value, value};
      }
      break;
    }
    case query::PlanKind::kExactRStar: {
      const join::JoinStats stats = join::RStarMbrJoin(in, agg);
      answer.stats.pip_tests = stats.pip_tests;
      answer.stats.index_bytes = stats.index_bytes;
      answer.stats.achieved_epsilon = 0.0;
      answer.rows.resize(stats.value.size());
      for (size_t r = 0; r < stats.value.size(); ++r) {
        answer.rows[r] = {static_cast<uint32_t>(r), stats.value[r], stats.value[r],
                          stats.value[r]};
      }
      break;
    }
  }
  answer.stats.elapsed_ms = timer.Millis();
  return answer;
}

join::ResultRange ExecuteCountInPolygon(const EngineState& state,
                                        const geom::Polygon& poly, double epsilon,
                                        const ExecHooks& hooks) {
  return ExecuteCount(state, poly, query::ErrorBound::Absolute(epsilon), hooks)
      .range;
}

std::vector<uint32_t> ExecuteSelectInPolygon(const EngineState& state,
                                             const geom::Polygon& poly, double epsilon,
                                             const ExecHooks& hooks) {
  return ExecuteSelect(state, poly, query::ErrorBound::Absolute(epsilon), hooks)
      .ids;
}

// ---- v2 executors: the typed distance-bound contract -------------------

AggregateAnswer ExecuteAggregate(const EngineState& state, join::AggKind agg,
                                 Attr attr, const query::ErrorBound& bound,
                                 Mode mode, const ExecHooks& hooks) {
  // Effective epsilon 0 routes to the exact plan inside
  // ResolveAggregatePlan; pinning the mode as well just makes the contract
  // explicit in the EXPLAIN output.
  return ExecuteAggregate(state, agg, attr, bound.EffectiveEpsilon(state.grid),
                          bound.exact() ? Mode::kExact : mode, hooks);
}

namespace {

/// Shared brute-force stage of the kExact ad-hoc queries: visits every
/// point inside the polygon, ascending by row id. The bounding-box
/// prefilter keeps the PIP count honest in `pip_tests`.
template <typename Fn>
size_t ForEachInsidePoint(const EngineState& state, const geom::Polygon& poly,
                          Fn&& fn) {
  const std::vector<geom::Point>& locs = state.points->locs;
  const geom::Box& bounds = poly.bounds();
  size_t pip_tests = 0;
  for (uint32_t i = 0; i < locs.size(); ++i) {
    const geom::Point& p = locs[i];
    if (p.x < bounds.min.x || p.x > bounds.max.x || p.y < bounds.min.y ||
        p.y > bounds.max.y) {
      continue;
    }
    ++pip_tests;
    if (poly.Contains(p)) fn(i);
  }
  return pip_tests;
}

}  // namespace

CountAnswer ExecuteCount(const EngineState& state, const geom::Polygon& poly,
                         const query::ErrorBound& bound, const ExecHooks& hooks) {
  CountAnswer out;
  Timer timer;
  if (bound.exact()) {
    double count = 0.0;
    out.stats.pip_tests =
        ForEachInsidePoint(state, poly, [&](uint32_t) { count += 1.0; });
    out.range.approx = out.range.lo = out.range.hi = out.range.estimate = count;
    out.stats.plan = query::PlanKind::kExactRStar;
  } else {
    DBSA_CHECK(state.point_index.has_value());
    const double epsilon = bound.EffectiveEpsilon(state.grid);
    const std::shared_ptr<const raster::HierarchicalRaster> hr =
        HrForPolygon(state, hooks, kAdHocPolygon, poly, epsilon);
    const join::CellAggregate agg =
        state.point_index->QueryCells(*hr, join::SearchStrategy::kSortedSweep);
    out.range = join::CountRange(agg);
    out.stats.plan = query::PlanKind::kPointIndexJoin;
    out.stats.hr_level = state.grid.LevelForEpsilon(epsilon);
    out.stats.achieved_epsilon = state.grid.AchievedEpsilon(out.stats.hr_level);
    out.stats.query_cells = agg.query_cells;
    out.stats.index_bytes =
        state.point_index->MemoryBytes(join::SearchStrategy::kSortedSweep);
  }
  out.stats.elapsed_ms = timer.Millis();
  return out;
}

SelectAnswer ExecuteSelect(const EngineState& state, const geom::Polygon& poly,
                           const query::ErrorBound& bound,
                           const ExecHooks& hooks) {
  SelectAnswer out;
  Timer timer;
  if (bound.exact()) {
    out.stats.pip_tests =
        ForEachInsidePoint(state, poly, [&](uint32_t i) { out.ids.push_back(i); });
    out.stats.plan = query::PlanKind::kExactRStar;
  } else {
    DBSA_CHECK(state.point_index.has_value());
    const double epsilon = bound.EffectiveEpsilon(state.grid);
    const std::shared_ptr<const raster::HierarchicalRaster> hr =
        HrForPolygon(state, hooks, kAdHocPolygon, poly, epsilon);
    state.point_index->SelectIds(*hr, join::SearchStrategy::kSortedSweep,
                                 &out.ids);
    out.stats.plan = query::PlanKind::kPointIndexJoin;
    out.stats.hr_level = state.grid.LevelForEpsilon(epsilon);
    out.stats.achieved_epsilon = state.grid.AchievedEpsilon(out.stats.hr_level);
    out.stats.query_cells = hr->cells().size();
    out.stats.index_bytes =
        state.point_index->MemoryBytes(join::SearchStrategy::kSortedSweep);
  }
  out.stats.elapsed_ms = timer.Millis();
  return out;
}

}  // namespace dbsa::core
