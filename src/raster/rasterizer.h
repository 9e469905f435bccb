// Scanline polygon rasterization with interior/boundary classification —
// the software equivalent of the GPU rasterization the paper leverages to
// compute fine-grained approximations on the fly (Section 1, "Hardware
// Trends"). Produces the cell sets that UniformRaster / HierarchicalRaster
// wrap.

#ifndef DBSA_RASTER_RASTERIZER_H_
#define DBSA_RASTER_RASTERIZER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "geom/polygon.h"
#include "raster/grid.h"

namespace dbsa::raster {

/// Options controlling boundary-cell treatment (Section 2.2).
struct RasterOptions {
  /// Conservative rasters keep every cell touching the boundary: only
  /// false positives are possible. Non-conservative rasters drop boundary
  /// cells whose coverage fraction is below min_coverage, admitting false
  /// negatives as well (both stay within the distance bound).
  bool conservative = true;

  /// Only used when conservative == false; in [0, 1].
  double min_coverage = 0.5;
};

/// The uniform-grid footprint of one polygon at a fixed level: Morton
/// codes (at that level) of interior cells and of boundary cells, each
/// sorted ascending. Interior and boundary sets are disjoint.
struct CellCover {
  int level = 0;
  std::vector<uint64_t> interior;
  std::vector<uint64_t> boundary;

  size_t TotalCells() const { return interior.size() + boundary.size(); }
};

/// Rasterizes a polygon onto the grid at `level`.
CellCover RasterizePolygon(const geom::Polygon& poly, const Grid& grid, int level,
                           const RasterOptions& opts = RasterOptions());

/// Visits every cell (ix, iy) at `level` crossed by segment (a, b) —
/// supercover grid traversal (Amanatides-Woo with corner handling).
/// `visit` is any callable taking (uint32_t ix, uint32_t iy); a cell may be
/// visited more than once. A template so the per-cell call inlines.
template <typename Visit>
void TraverseSegment(const geom::Point& a, const geom::Point& b, const Grid& grid,
                     int level, Visit&& visit) {
  const double cs = grid.CellSize(level);
  const double inv = 1.0 / cs;
  // Segment endpoints in cell coordinates.
  const double ax = (a.x - grid.origin().x) * inv;
  const double ay = (a.y - grid.origin().y) * inv;
  const double bx = (b.x - grid.origin().x) * inv;
  const double by = (b.y - grid.origin().y) * inv;

  const double max_idx = static_cast<double>(grid.CellsPerSide(level) - 1);
  auto clamp_idx = [max_idx](double v) {
    return static_cast<int64_t>(std::clamp(std::floor(v), 0.0, max_idx));
  };

  int64_t ix = clamp_idx(ax);
  int64_t iy = clamp_idx(ay);
  const int64_t jx = clamp_idx(bx);
  const int64_t jy = clamp_idx(by);

  const double dx = bx - ax;
  const double dy = by - ay;
  const int64_t step_x = (dx > 0) ? 1 : ((dx < 0) ? -1 : 0);
  const int64_t step_y = (dy > 0) ? 1 : ((dy < 0) ? -1 : 0);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double t_delta_x = (step_x != 0) ? std::fabs(1.0 / dx) : kInf;
  const double t_delta_y = (step_y != 0) ? std::fabs(1.0 / dy) : kInf;

  double t_max_x = kInf;
  if (step_x > 0) {
    t_max_x = (static_cast<double>(ix + 1) - ax) / dx;
  } else if (step_x < 0) {
    t_max_x = (static_cast<double>(ix) - ax) / dx;
  }
  double t_max_y = kInf;
  if (step_y > 0) {
    t_max_y = (static_cast<double>(iy + 1) - ay) / dy;
  } else if (step_y < 0) {
    t_max_y = (static_cast<double>(iy) - ay) / dy;
  }

  // Upper bound on steps: the L1 cell distance plus slack for corner cases.
  int64_t guard = std::llabs(jx - ix) + std::llabs(jy - iy) + 4;
  visit(static_cast<uint32_t>(ix), static_cast<uint32_t>(iy));
  while ((ix != jx || iy != jy) && guard-- > 0) {
    if (t_max_x < t_max_y) {
      ix += step_x;
      t_max_x += t_delta_x;
    } else if (t_max_y < t_max_x) {
      iy += step_y;
      t_max_y += t_delta_y;
    } else {
      // Exact corner crossing: include both side cells (supercover), then
      // step diagonally.
      if (ix + step_x >= 0 && ix + step_x <= static_cast<int64_t>(max_idx)) {
        visit(static_cast<uint32_t>(ix + step_x), static_cast<uint32_t>(iy));
      }
      if (iy + step_y >= 0 && iy + step_y <= static_cast<int64_t>(max_idx)) {
        visit(static_cast<uint32_t>(ix), static_cast<uint32_t>(iy + step_y));
      }
      ix += step_x;
      iy += step_y;
      t_max_x += t_delta_x;
      t_max_y += t_delta_y;
      guard -= 1;
    }
    ix = std::clamp<int64_t>(ix, 0, static_cast<int64_t>(max_idx));
    iy = std::clamp<int64_t>(iy, 0, static_cast<int64_t>(max_idx));
    visit(static_cast<uint32_t>(ix), static_cast<uint32_t>(iy));
  }
}

}  // namespace dbsa::raster

#endif  // DBSA_RASTER_RASTERIZER_H_
