// Ground truth for every answer the benchmark checks. It is the
// benchmark's own brute force over the generated tables — its own
// point-in-polygon and point-to-boundary distance, a bucket grid over the
// points — and shares no code path with the program under test. It runs
// untimed and outside set-up.
//
// Points closer than kTieDistance to a polygon boundary are "ties": two
// correct point-in-polygon implementations may classify them differently
// by floating-point rounding, so a disagreement on them is not an error.
// The generated tables almost never contain one.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine_state.h"
#include "data/dataset.h"
#include "geom/polygon.h"
#include "join/result_range.h"
#include "service/query.h"

namespace perfbench {

class Oracle {
 public:
  static constexpr double kTieDistance = 1e-6;

  /// Keeps references to the tables; they must outlive the oracle.
  Oracle(const dbsa::data::PointSet& points, const dbsa::data::RegionSet& regions);

  /// Row ids of the points inside `poly`, ascending.
  std::vector<uint32_t> InsideOf(const dbsa::geom::Polygon& poly) const;

  /// Each check returns "" when the answer is correct, else what is wrong.
  /// `truth` is InsideOf(poly) (callers memoize it across repeated
  /// polygons); ties are counted only when an answer disagrees with it.
  std::string CheckCount(const dbsa::geom::Polygon& poly, size_t truth,
                         const dbsa::service::Result& r) const;
  std::string CheckSelect(const dbsa::geom::Polygon& poly,
                          const std::vector<uint32_t>& truth,
                          const dbsa::service::Result& r) const;
  /// COUNT or SUM(fare) per region.
  std::string CheckAggregate(dbsa::join::AggKind agg, const dbsa::service::Result& r);
  /// epsilon_achieved <= requested epsilon, except when the request was
  /// finer than the finest grid level (hr_level == CellId::kMaxLevel);
  /// exact requests must report 0.
  static std::string CheckBound(const dbsa::service::Result& r);

  static bool Contains(const dbsa::geom::Polygon& poly, const dbsa::geom::Point& p);
  static double BoundaryDistance(const dbsa::geom::Polygon& poly,
                                 const dbsa::geom::Point& p);

 private:
  /// Visits the points within kTieDistance of `poly`'s boundary.
  template <typename Fn>
  void ForEachTie(const dbsa::geom::Polygon& poly, Fn&& fn) const;
  /// Visits the candidate points of `poly`'s (tie-widened) bounding box.
  template <typename Fn>
  void ForEachCandidate(const dbsa::geom::Polygon& poly, Fn&& fn) const;
  void ComputeRegionTruth();

  const dbsa::data::PointSet& points_;
  const dbsa::data::RegionSet& regions_;
  double min_x_ = 0.0;
  double min_y_ = 0.0;
  double bucket_side_ = 1.0;
  int buckets_per_side_ = 1;
  std::vector<std::vector<uint32_t>> buckets_;
  bool have_region_truth_ = false;
  std::vector<double> region_count_;
  std::vector<double> region_sum_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
