#include "raster/hierarchical_raster.h"

#include <algorithm>
#include <deque>

#include "raster/rasterizer.h"

#include "geom/polygon_ops.h"

namespace dbsa::raster {

namespace {

// Level of the smallest cell holding both leaf keys (the bounding-box
// corners of a polygon).
int StartLevel(uint64_t lo, uint64_t hi) {
  for (int l = CellId::kMaxLevel; l > 0; --l) {
    const int shift = 2 * (CellId::kMaxLevel - l);
    if ((lo >> shift) == (hi >> shift)) return l;
  }
  return 0;
}

void SortById(std::vector<HrCell>* cells) {
  std::sort(cells->begin(), cells->end(),
            [](const HrCell& a, const HrCell& b) { return a.id < b.id; });
}

// Depth-first refinement over the sorted finest-level boundary codes. A
// node owns the contiguous run of codes under its prefix: an empty run is
// an off-boundary (homogeneous) cell, a run at max_level is one boundary
// cell, anything else splits four ways on the next two bits.
struct TopDownRefiner {
  const geom::Polygon& poly;
  const Grid& grid;
  const RasterOptions& opts;
  int max_level;
  const std::vector<uint64_t>& codes;
  std::vector<HrCell> out;

  // Emits the cells of node (level, prefix), whose codes are [begin, end).
  void Refine(int level, uint64_t prefix, size_t begin, size_t end) {
    if (begin == end) {
      // Off-boundary cell: homogeneous; its center decides.
      uint32_t ix, iy;
      sfc::MortonDecode(prefix, &ix, &iy);
      if (poly.Contains(grid.CellBoxXY(level, ix, iy).Center())) {
        out.push_back({CellId::FromLevelPrefix(level, prefix), /*boundary=*/false});
      }
      return;
    }
    if (level == max_level) {
      if (!opts.conservative) {
        uint32_t ix, iy;
        sfc::MortonDecode(prefix, &ix, &iy);
        if (geom::BoxCoverageFraction(poly, grid.CellBoxXY(level, ix, iy)) <
            opts.min_coverage) {
          return;
        }
      }
      out.push_back({CellId::FromLevelPrefix(level, prefix), /*boundary=*/true});
      return;
    }
    // Child c owns the codes below the first code of child c + 1.
    const int child_shift = 2 * (max_level - level - 1);
    for (uint64_t child = 0; child < 4; ++child) {
      const uint64_t child_prefix = (prefix << 2) | child;
      size_t child_end = end;
      if (child < 3) {
        child_end = static_cast<size_t>(
            std::lower_bound(codes.begin() + static_cast<std::ptrdiff_t>(begin),
                             codes.begin() + static_cast<std::ptrdiff_t>(end),
                             (child_prefix + 1) << child_shift) -
            codes.begin());
      }
      Refine(level + 1, child_prefix, begin, child_end);
      begin = child_end;
    }
  }
};

}  // namespace

HierarchicalRaster HierarchicalRaster::BuildEpsilon(const geom::Polygon& poly,
                                                    const Grid& grid, double epsilon,
                                                    const RasterOptions& opts) {
  return BuildEpsilonTopDown(poly, grid, epsilon, opts);
}

HierarchicalRaster HierarchicalRaster::BuildLevel(const geom::Polygon& poly,
                                                  const Grid& grid, int level,
                                                  const RasterOptions& opts) {
  // AchievedEpsilon(level) is exactly the cell diagonal, so LevelForEpsilon
  // maps it back to `level`.
  return BuildEpsilon(poly, grid, grid.AchievedEpsilon(level), opts);
}

HierarchicalRaster HierarchicalRaster::BuildEpsilonBottomUp(const geom::Polygon& poly,
                                                            const Grid& grid,
                                                            double epsilon,
                                                            const RasterOptions& opts) {
  const int level = grid.LevelForEpsilon(epsilon);
  const CellCover cover = RasterizePolygon(poly, grid, level, opts);

  std::vector<HrCell> out;
  out.reserve(cover.boundary.size() + cover.interior.size() / 2);
  for (const uint64_t m : cover.boundary) {
    out.push_back({CellId::FromLevelPrefix(level, m), /*boundary=*/true});
  }

  // Bottom-up merge of interior cells: whenever all four children of a
  // parent are interior, replace them by the parent. Interior cells are
  // error-free regardless of size (Section 2.2).
  std::vector<uint64_t> cur = cover.interior;  // Already sorted.
  for (int l = level; l > 0 && !cur.empty(); --l) {
    std::vector<uint64_t> promoted;
    size_t i = 0;
    const size_t n = cur.size();
    while (i < n) {
      if (i + 3 < n && (cur[i] >> 2) == (cur[i + 3] >> 2)) {
        // Sorted and distinct: four entries sharing a parent are exactly
        // the four children.
        promoted.push_back(cur[i] >> 2);
        i += 4;
      } else {
        out.push_back({CellId::FromLevelPrefix(l, cur[i]), /*boundary=*/false});
        ++i;
      }
    }
    cur = std::move(promoted);
  }
  if (!cur.empty()) {
    // Merged all the way to a single level-0 cell (whole universe).
    for (const uint64_t m : cur) {
      out.push_back({CellId::FromLevelPrefix(0, m), /*boundary=*/false});
    }
  }

  SortById(&out);
  HierarchicalRaster hr;
  hr.FinalizeFrom(std::move(out));
  return hr;
}

HierarchicalRaster HierarchicalRaster::BuildEpsilonTopDown(const geom::Polygon& poly,
                                                           const Grid& grid,
                                                           double epsilon,
                                                           const RasterOptions& opts) {
  const int max_level = grid.LevelForEpsilon(epsilon);
  const uint64_t lo = grid.LeafKey(poly.bounds().min);
  const int start_level =
      std::min(StartLevel(lo, grid.LeafKey(poly.bounds().max)), max_level);
  const uint64_t start_prefix = lo >> (2 * (CellId::kMaxLevel - start_level));

  // Boundary cells at max_level only, from one supercover pass over every
  // edge: sorted, unique Morton codes. A coarser cell is on the boundary
  // iff its prefix range holds a code, so no per-level pass is needed.
  std::vector<uint64_t> codes;
  poly.ForEachEdge([&](const geom::Point& a, const geom::Point& b) {
    TraverseSegment(a, b, grid, max_level, [&](uint32_t ix, uint32_t iy) {
      codes.push_back(sfc::MortonEncode(ix, iy));
    });
  });
  std::sort(codes.begin(), codes.end());
  codes.erase(std::unique(codes.begin(), codes.end()), codes.end());

  // Refine needs every code under its node's prefix. LeafKey and the
  // traversal round independently, so keep only the start cell's codes.
  const int start_shift = 2 * (max_level - start_level);
  const auto first =
      std::lower_bound(codes.begin(), codes.end(), start_prefix << start_shift);
  const auto last =
      std::lower_bound(first, codes.end(), (start_prefix + 1) << start_shift);

  TopDownRefiner refiner{poly, grid, opts, max_level, codes, {}};
  refiner.Refine(start_level, start_prefix, static_cast<size_t>(first - codes.begin()),
                 static_cast<size_t>(last - codes.begin()));

  // Children are visited in order 0..3, so the cells come out in Z-order.
  HierarchicalRaster hr;
  hr.FinalizeFrom(std::move(refiner.out));
  return hr;
}

HierarchicalRaster HierarchicalRaster::BuildBudget(const geom::Polygon& poly,
                                                   const Grid& grid, size_t max_cells,
                                                   const RasterOptions& opts) {
  // Start at the smallest cell containing the polygon's bounding box.
  const uint64_t lo = grid.LeafKey(poly.bounds().min);
  const int start_level = StartLevel(lo, grid.LeafKey(poly.bounds().max));

  std::deque<CellId> queue;
  queue.push_back(CellId::FromLevelPrefix(
      start_level, lo >> (2 * (CellId::kMaxLevel - start_level))));

  std::vector<HrCell> out;
  while (!queue.empty()) {
    const CellId cell = queue.front();
    queue.pop_front();
    const geom::Box box = grid.CellBox(cell);
    const geom::BoxRelation rel = geom::ClassifyBox(poly, box);
    if (rel == geom::BoxRelation::kOutside) continue;
    if (rel == geom::BoxRelation::kInside) {
      out.push_back({cell, /*boundary=*/false});
      continue;
    }
    // Boundary cell: refine breadth-first while the budget allows (a split
    // nets at most +3 cells).
    const size_t current_total = out.size() + queue.size() + 1;
    if (cell.level() < CellId::kMaxLevel && current_total + 3 <= max_cells) {
      for (int i = 0; i < 4; ++i) queue.push_back(cell.Child(i));
    } else {
      if (!opts.conservative &&
          geom::BoxCoverageFraction(poly, box) < opts.min_coverage) {
        continue;
      }
      out.push_back({cell, /*boundary=*/true});
    }
  }

  // Breadth-first output: levels interleave, so restore Z-order.
  SortById(&out);
  HierarchicalRaster hr;
  hr.FinalizeFrom(std::move(out));
  return hr;
}

void HierarchicalRaster::FinalizeFrom(std::vector<HrCell> cells) {
  DBSA_DCHECK(std::is_sorted(
      cells.begin(), cells.end(),
      [](const HrCell& a, const HrCell& b) { return a.id < b.id; }));
  cells_ = std::move(cells);
  range_lo_.resize(cells_.size());
  range_hi_.resize(cells_.size());
  for (size_t i = 0; i < cells_.size(); ++i) {
    range_lo_[i] = cells_[i].id.LeafKeyMin();
    range_hi_[i] = cells_[i].id.LeafKeyMax();
  }
}

size_t HierarchicalRaster::NumBoundaryCells() const {
  size_t n = 0;
  for (const HrCell& c : cells_) n += c.boundary ? 1 : 0;
  return n;
}

double HierarchicalRaster::AchievedEpsilon(const Grid& grid) const {
  int coarsest_boundary = CellId::kMaxLevel;
  bool any = false;
  for (const HrCell& c : cells_) {
    if (c.boundary) {
      coarsest_boundary = std::min(coarsest_boundary, c.id.level());
      any = true;
    }
  }
  return any ? grid.CellDiagonal(coarsest_boundary) : 0.0;
}

CellKind HierarchicalRaster::Classify(const geom::Point& p, const Grid& grid) const {
  if (cells_.empty()) return CellKind::kOutside;
  const uint64_t key = grid.LeafKey(p);
  // Cells are disjoint and sorted by id, which sorts range_lo ascending.
  const auto it = std::upper_bound(range_lo_.begin(), range_lo_.end(), key);
  if (it == range_lo_.begin()) return CellKind::kOutside;
  const size_t idx = static_cast<size_t>(it - range_lo_.begin()) - 1;
  if (key > range_hi_[idx]) return CellKind::kOutside;
  return cells_[idx].boundary ? CellKind::kBoundary : CellKind::kInterior;
}

size_t HierarchicalRaster::MemoryBytes() const {
  return cells_.size() * (sizeof(HrCell) + 2 * sizeof(uint64_t));
}

}  // namespace dbsa::raster
