#include "core/hierarchy.h"

#include <algorithm>
#include <map>

#include "util/contracts.h"

namespace ebl {
namespace {

// Orientation classes: does the transform swap x and y?
bool swaps_axes(const Trans& t) { return t.rot90() % 2 == 1; }

}  // namespace

Trapezoid transform_trapezoid_noswap(const Trapezoid& t, const Trans& trans) {
  expects(!swaps_axes(trans), "transform_trapezoid_noswap: axis-swapping transform");
  // Map the four corner points; the result is again a horizontal trapezoid,
  // possibly with top/bottom or left/right exchanged.
  const Point bl = trans(Point{t.xl0, t.y0});
  const Point br = trans(Point{t.xr0, t.y0});
  const Point tl = trans(Point{t.xl1, t.y1});
  const Point tr = trans(Point{t.xr1, t.y1});
  // bl/br share one y, tl/tr the other.
  Coord by = bl.y;
  Coord ty = tl.y;
  Coord bxl = std::min(bl.x, br.x);
  Coord bxr = std::max(bl.x, br.x);
  Coord txl = std::min(tl.x, tr.x);
  Coord txr = std::max(tl.x, tr.x);
  if (by > ty) {
    std::swap(by, ty);
    std::swap(bxl, txl);
    std::swap(bxr, txr);
  }
  return Trapezoid{by, ty, bxl, bxr, txl, txr};
}

HierPrepResult run_hier_prep(const Library& lib, CellId top, LayerKey layer,
                             const FractureOptions& options) {
  HierPrepResult result;

  // Cache: (cell id, swapped?) -> fractured local shots.
  std::map<std::pair<std::uint32_t, bool>, ShotList> cache;

  const auto local_shots = [&](CellId id, bool swapped) -> const ShotList& {
    const auto key = std::make_pair(id.value, swapped);
    auto it = cache.find(key);
    if (it != cache.end()) return it->second;

    PolygonSet local;
    for (const Polygon& p : lib.cell(id).shapes_on(layer)) {
      // For the swapped class, pre-rotate by 90° so instance transforms
      // reduce to the non-swapping group.
      local.insert(swapped ? p.transformed(Trans{Point{0, 0}, Orient::r90}) : p);
    }
    ShotList shots;
    if (!local.empty()) {
      shots = fracture(local, options).shots;
      ++result.stats.cells_fractured;
    }
    return cache.emplace(key, std::move(shots)).first->second;
  };

  lib.each_instance(top, [&](CellId id, const CTrans& ctrans) {
    ++result.stats.instances;
    const std::vector<Polygon>& shapes = lib.cell(id).shapes_on(layer);
    if (shapes.empty()) return;
    // Same check as flatten: an off-grid placement is a DataError naming the
    // cell path, never wrapped geometry.
    Box box;
    for (const Polygon& p : shapes) box += p.bbox();
    check_on_grid(box, ctrans);

    // A displacement off the grid cannot narrow to a Trans even when the
    // placed shapes land on it; such an instance takes the fallback too.
    const Box origin{0, 0, 0, 0};
    if (!ctrans.is_orthogonal() || !ctrans.keeps_on_grid(origin)) {
      // Fallback: flatten this instance alone.
      ++result.stats.fallback_instances;
      PolygonSet inst;
      for (const Polygon& p : shapes) inst.insert(p.transformed(ctrans));
      for (Shot& s : fracture(inst, options).shots)
        result.shots.push_back(std::move(s));
      return;
    }

    const Trans trans = ctrans.to_trans();
    const bool swapped = swaps_axes(trans);
    // Residual transform applied to the cached (possibly pre-rotated) shots:
    // trans = residual * r90^(swapped), so residual = trans * r90^-1.
    const Trans residual =
        swapped ? trans * Trans{Point{0, 0}, Orient::r270} : trans;
    ensures(residual.rot90() % 2 == 0, "hier prep: residual must not swap axes");

    for (const Shot& s : local_shots(id, swapped)) {
      result.shots.push_back(
          Shot{transform_trapezoid_noswap(s.shape, residual), s.dose});
    }
  });

  result.stats.shots = result.shots.size();
  result.stats.area = shot_area(result.shots);
  return result;
}

}  // namespace ebl
