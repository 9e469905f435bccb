#include "raster/rasterizer.h"

#include <algorithm>
#include <cmath>

#include "geom/polygon_ops.h"

namespace dbsa::raster {

namespace {

inline uint64_t PackXY(uint32_t ix, uint32_t iy) {
  return (static_cast<uint64_t>(iy) << 32) | ix;
}

}  // namespace

CellCover RasterizePolygon(const geom::Polygon& poly, const Grid& grid, int level,
                           const RasterOptions& opts) {
  CellCover cover;
  cover.level = level;
  if (poly.outer().size() < 3) return cover;

  // Pass 1: boundary cells via supercover traversal of every edge, as a
  // sorted, unique row-major (PackXY) list.
  std::vector<uint64_t> boundary_xy;
  poly.ForEachEdge([&](const geom::Point& a, const geom::Point& b) {
    TraverseSegment(a, b, grid, level, [&](uint32_t ix, uint32_t iy) {
      boundary_xy.push_back(PackXY(ix, iy));
    });
  });
  std::sort(boundary_xy.begin(), boundary_xy.end());
  boundary_xy.erase(std::unique(boundary_xy.begin(), boundary_xy.end()),
                    boundary_xy.end());

  // Pass 2: interior cells via scanline parity at cell-center rows.
  const double cs = grid.CellSize(level);
  uint32_t bx0, by0, bx1, by1;
  grid.PointToXY(poly.bounds().min, level, &bx0, &by0);
  grid.PointToXY(poly.bounds().max, level, &bx1, &by1);

  std::vector<double> xs;
  // Rows ascend and spans within a row ascend, so the visited keys ascend
  // too: a forward-only cursor into boundary_xy answers membership.
  size_t cursor = 0;
  for (uint32_t iy = by0; iy <= by1; ++iy) {
    const double y = grid.origin().y + (static_cast<double>(iy) + 0.5) * cs;
    xs.clear();
    poly.ForEachEdge([&](const geom::Point& a, const geom::Point& b) {
      if ((a.y > y) != (b.y > y)) {
        xs.push_back(a.x + (y - a.y) / (b.y - a.y) * (b.x - a.x));
      }
    });
    if (xs.size() < 2) continue;
    std::sort(xs.begin(), xs.end());
    for (size_t k = 0; k + 1 < xs.size(); k += 2) {
      // Cells whose center x lies in (xs[k], xs[k+1]).
      const double fx0 = (xs[k] - grid.origin().x) / cs - 0.5;
      const double fx1 = (xs[k + 1] - grid.origin().x) / cs - 0.5;
      int64_t lo = static_cast<int64_t>(std::ceil(fx0));
      int64_t hi = static_cast<int64_t>(std::floor(fx1));
      lo = std::max<int64_t>(lo, bx0);
      hi = std::min<int64_t>(hi, bx1);
      for (int64_t ix = lo; ix <= hi; ++ix) {
        const uint64_t key = PackXY(static_cast<uint32_t>(ix), iy);
        while (cursor < boundary_xy.size() && boundary_xy[cursor] < key) ++cursor;
        if (cursor == boundary_xy.size() || boundary_xy[cursor] != key) {
          cover.interior.push_back(
              sfc::MortonEncode(static_cast<uint32_t>(ix), iy));
        }
      }
    }
  }

  // Boundary filtering (non-conservative mode drops low-coverage cells).
  cover.boundary.reserve(boundary_xy.size());
  for (const uint64_t key : boundary_xy) {
    const uint32_t ix = static_cast<uint32_t>(key & 0xffffffffu);
    const uint32_t iy = static_cast<uint32_t>(key >> 32);
    if (!opts.conservative) {
      const geom::Box cell_box = grid.CellBoxXY(level, ix, iy);
      if (geom::BoxCoverageFraction(poly, cell_box) < opts.min_coverage) continue;
    }
    cover.boundary.push_back(sfc::MortonEncode(ix, iy));
  }

  std::sort(cover.interior.begin(), cover.interior.end());
  std::sort(cover.boundary.begin(), cover.boundary.end());
  return cover;
}

}  // namespace dbsa::raster
