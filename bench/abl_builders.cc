// ABL-BUILD — ablation of the HR construction strategy: the bottom-up
// scanline build materializes every finest-level interior cell (cost
// follows polygon AREA), while the top-down refinement makes one
// finest-level supercover pass and only explores descendants of boundary
// cells (cost follows PERIMETER). Both produce the same cells (tests
// verify cell-for-cell identity); the library always builds top-down.
// This bench shows how far bottom-up falls behind as the footprint grows.

#include <cstdio>

#include "bench_util.h"

namespace dbsa {
namespace {

void Run() {
  PrintBanner("Ablation: HR builders (bottom-up scanline vs top-down refine)");
  bench::PrintScale("one 64-vertex star polygon, radius sweep, eps=4m");

  const raster::Grid grid({0, 0}, bench::BenchUniverse().Width());
  TablePrinter table({"polygon radius (m)", "finest cells (est)", "bottom-up (ms)",
                      "top-down (ms)", "cells out", "winner"});

  for (const double radius : {50.0, 150.0, 400.0, 1000.0, 2500.0}) {
    Rng rng(11);
    geom::Ring ring;
    const int n = 64;
    for (int i = 0; i < n; ++i) {
      const double angle = 2.0 * 3.141592653589793 * i / n;
      const double r = rng.Uniform(radius * 0.6, radius);
      ring.push_back({8192 + r * std::cos(angle), 8192 + r * std::sin(angle)});
    }
    geom::Polygon poly(std::move(ring));
    poly.Normalize();

    const int level = grid.LevelForEpsilon(4.0);
    const double cs = grid.CellSize(level);
    const double est_cells =
        (poly.bounds().Width() / cs) * (poly.bounds().Height() / cs);

    Timer t1;
    const raster::HierarchicalRaster bu =
        raster::HierarchicalRaster::BuildEpsilonBottomUp(poly, grid, 4.0);
    const double bu_ms = t1.Millis();
    Timer t2;
    const raster::HierarchicalRaster td =
        raster::HierarchicalRaster::BuildEpsilonTopDown(poly, grid, 4.0);
    const double td_ms = t2.Millis();

    char radius_label[32];
    std::snprintf(radius_label, sizeof(radius_label), "%.0f", radius);
    table.AddRow({radius_label, HumanCount(est_cells), TablePrinter::Num(bu_ms, 4),
                  TablePrinter::Num(td_ms, 4), std::to_string(td.NumCells()),
                  bu_ms < td_ms ? "bottom-up" : "top-down"});
    (void)bu;
  }
  table.Print();
  PrintNote("");
  PrintNote("expected shape: the two stay close for the smallest footprints;");
  PrintNote("top-down pulls ahead as interior area dwarfs the perimeter — its");
  PrintNote("cost stays ~linear in boundary cells, bottom-up's follows area.");
}

}  // namespace
}  // namespace dbsa

int main() {
  dbsa::Run();
  return 0;
}
