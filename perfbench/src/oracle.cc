#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "raster/cell_id.h"

namespace perfbench {

using dbsa::geom::Point;
using dbsa::geom::Polygon;
using dbsa::geom::Ring;
using dbsa::service::Result;

namespace {

constexpr int kBucketsPerSide = 128;

/// Crossing-number test of one ring (half-open edge rule).
bool RingCrosses(const Ring& ring, const Point& p) {
  bool inside = false;
  const size_t n = ring.size();
  for (size_t i = 0, j = n - 1; i < n; j = i++) {
    const Point& a = ring[i];
    const Point& b = ring[j];
    if ((a.y > p.y) != (b.y > p.y)) {
      const double x = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y);
      if (p.x < x) inside = !inside;
    }
  }
  return inside;
}

double SegmentDistance(const Point& p, const Point& a, const Point& b) {
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  const double len2 = dx * dx + dy * dy;
  double t = len2 > 0.0 ? ((p.x - a.x) * dx + (p.y - a.y) * dy) / len2 : 0.0;
  t = std::clamp(t, 0.0, 1.0);
  return std::hypot(p.x - (a.x + t * dx), p.y - (a.y + t * dy));
}

double RingDistance(const Ring& ring, const Point& p) {
  double best = INFINITY;
  const size_t n = ring.size();
  for (size_t i = 0, j = n - 1; i < n; j = i++) {
    best = std::min(best, SegmentDistance(p, ring[j], ring[i]));
  }
  return best;
}

/// Answers may differ from the truth by floating-point summation order
/// (compensated sums in the engine, plain sums here).
bool NearlyLe(double a, double b) {
  return a <= b + 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

}  // namespace

bool Oracle::Contains(const Polygon& poly, const Point& p) {
  bool inside = RingCrosses(poly.outer(), p);
  for (const Ring& hole : poly.holes()) {
    if (RingCrosses(hole, p)) inside = !inside;
  }
  return inside;
}

double Oracle::BoundaryDistance(const Polygon& poly, const Point& p) {
  double best = RingDistance(poly.outer(), p);
  for (const Ring& hole : poly.holes()) best = std::min(best, RingDistance(hole, p));
  return best;
}

Oracle::Oracle(const dbsa::data::PointSet& points, const dbsa::data::RegionSet& regions)
    : points_(points), regions_(regions) {
  const dbsa::geom::Box b = points.Bounds();
  min_x_ = b.min.x;
  min_y_ = b.min.y;
  const double side = std::max({b.max.x - b.min.x, b.max.y - b.min.y, 1.0});
  buckets_per_side_ = kBucketsPerSide;
  bucket_side_ = side / kBucketsPerSide * (1.0 + 1e-12);
  buckets_.resize(static_cast<size_t>(kBucketsPerSide) * kBucketsPerSide);
  for (uint32_t i = 0; i < points.size(); ++i) {
    const int bx = std::min(
        kBucketsPerSide - 1, static_cast<int>((points.locs[i].x - min_x_) / bucket_side_));
    const int by = std::min(
        kBucketsPerSide - 1, static_cast<int>((points.locs[i].y - min_y_) / bucket_side_));
    buckets_[static_cast<size_t>(by) * kBucketsPerSide + bx].push_back(i);
  }
}

template <typename Fn>
void Oracle::ForEachCandidate(const Polygon& poly, Fn&& fn) const {
  const dbsa::geom::Box& b = poly.bounds();
  const auto clamp_bucket = [&](double v, double lo) {
    return std::clamp(static_cast<int>(std::floor((v - lo) / bucket_side_)), 0,
                      buckets_per_side_ - 1);
  };
  const int x0 = clamp_bucket(b.min.x - kTieDistance, min_x_);
  const int x1 = clamp_bucket(b.max.x + kTieDistance, min_x_);
  const int y0 = clamp_bucket(b.min.y - kTieDistance, min_y_);
  const int y1 = clamp_bucket(b.max.y + kTieDistance, min_y_);
  for (int by = y0; by <= y1; ++by) {
    for (int bx = x0; bx <= x1; ++bx) {
      for (const uint32_t i : buckets_[static_cast<size_t>(by) * buckets_per_side_ + bx]) {
        const Point& p = points_.locs[i];
        if (p.x >= b.min.x - kTieDistance && p.x <= b.max.x + kTieDistance &&
            p.y >= b.min.y - kTieDistance && p.y <= b.max.y + kTieDistance) {
          fn(i, p);
        }
      }
    }
  }
}

template <typename Fn>
void Oracle::ForEachTie(const Polygon& poly, Fn&& fn) const {
  ForEachCandidate(poly, [&](uint32_t i, const Point& p) {
    if (BoundaryDistance(poly, p) < kTieDistance) fn(i);
  });
}

std::vector<uint32_t> Oracle::InsideOf(const Polygon& poly) const {
  std::vector<uint32_t> ids;
  ForEachCandidate(poly, [&](uint32_t i, const Point& p) {
    if (Contains(poly, p)) ids.push_back(i);
  });
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::string Oracle::CheckBound(const Result& r) {
  std::ostringstream err;
  if (r.bound.requested.exact()) {
    if (r.bound.epsilon_achieved != 0.0) {
      err << "exact request reported epsilon_achieved=" << r.bound.epsilon_achieved;
    }
    return err.str();
  }
  const double requested = r.bound.requested.epsilon;
  if (r.bound.epsilon_achieved > requested &&
      r.bound.hr_level != dbsa::raster::CellId::kMaxLevel) {
    err << "epsilon_achieved=" << r.bound.epsilon_achieved << " > requested "
        << requested << " at level " << r.bound.hr_level;
  }
  return err.str();
}

std::string Oracle::CheckCount(const Polygon& poly, size_t truth,
                               const Result& r) const {
  const double exact = static_cast<double>(truth);
  std::ostringstream err;
  if (r.bound.requested.exact() && (r.range.lo != r.range.hi)) {
    err << "exact COUNT returned a range [" << r.range.lo << ", " << r.range.hi << "]";
    return err.str();
  }
  if (r.range.lo <= exact && exact <= r.range.hi) return "";
  double ties = 0.0;
  ForEachTie(poly, [&](uint32_t) { ties += 1.0; });
  if (r.range.lo > exact + ties || r.range.hi < exact - ties) {
    err << "COUNT " << exact << " outside [" << r.range.lo << ", " << r.range.hi << "]";
  }
  return err.str();
}

std::string Oracle::CheckSelect(const Polygon& poly, const std::vector<uint32_t>& truth,
                                const Result& r) const {
  std::vector<uint32_t> got = r.ids;
  std::sort(got.begin(), got.end());
  if (std::adjacent_find(got.begin(), got.end()) != got.end()) {
    return "SELECT returned a duplicate id";
  }
  const bool exact = r.bound.requested.exact();
  // Points the two sides disagree on must be explained by the bound: an
  // extra must lie within epsilon of the boundary (0 for exact answers,
  // up to ties), a missing inside point too.
  const double eps = (exact ? 0.0 : r.bound.epsilon_achieved) * (1.0 + 1e-9) +
                     Oracle::kTieDistance;
  std::vector<uint32_t> diff;
  std::set_symmetric_difference(got.begin(), got.end(), truth.begin(), truth.end(),
                                std::back_inserter(diff));
  for (const uint32_t id : diff) {
    if (id >= points_.size()) return "SELECT returned id out of range";
    const double d = BoundaryDistance(poly, points_.locs[id]);
    if (d > eps) {
      const bool extra = std::binary_search(got.begin(), got.end(), id);
      std::ostringstream err;
      err << "SELECT " << (extra ? "returned outside point " : "missed inside point ")
          << id << " at distance " << d << " > epsilon " << eps;
      return err.str();
    }
  }
  return "";
}

void Oracle::ComputeRegionTruth() {
  region_count_.assign(regions_.num_regions, 0.0);
  region_sum_.assign(regions_.num_regions, 0.0);
  for (size_t j = 0; j < regions_.polys.size(); ++j) {
    const uint32_t region = regions_.region_of[j];
    for (const uint32_t i : InsideOf(regions_.polys[j])) {
      region_count_[region] += 1.0;
      region_sum_[region] += points_.fare[i];
    }
  }
  have_region_truth_ = true;
}

std::string Oracle::CheckAggregate(dbsa::join::AggKind agg, const Result& r) {
  if (!have_region_truth_) ComputeRegionTruth();
  const bool is_sum = agg == dbsa::join::AggKind::kSum;
  const std::vector<double>& truth = is_sum ? region_sum_ : region_count_;
  if (r.aggregate.rows.size() != truth.size()) {
    return "aggregate returned " + std::to_string(r.aggregate.rows.size()) +
           " rows, expected " + std::to_string(truth.size());
  }
  for (const dbsa::core::AggregateRow& row : r.aggregate.rows) {
    if (row.region >= truth.size()) return "aggregate row for unknown region";
    const double exact = truth[row.region];
    if (NearlyLe(row.lo, exact) && NearlyLe(exact, row.hi)) continue;
    // Slack: the count (or fare mass) of tie points of the region's parts.
    double slack = 0.0;
    for (size_t j = 0; j < regions_.polys.size(); ++j) {
      if (regions_.region_of[j] != row.region) continue;
      ForEachTie(regions_.polys[j], [&](uint32_t i) {
        slack += is_sum ? std::fabs(points_.fare[i]) : 1.0;
      });
    }
    if (!NearlyLe(row.lo, exact + slack) || !NearlyLe(exact - slack, row.hi)) {
      std::ostringstream err;
      err << (is_sum ? "SUM" : "COUNT") << " of region " << row.region << " = "
          << exact << " outside [" << row.lo << ", " << row.hi << "]";
      return err.str();
    }
  }
  return "";
}

}  // namespace perfbench
