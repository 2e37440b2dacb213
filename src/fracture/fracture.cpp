#include "fracture/fracture.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/contracts.h"

namespace ebl {

double shot_area(const ShotList& shots) {
  double a = 0.0;
  for (const Shot& s : shots) a += s.shape.area();
  return a;
}

double shot_charge_area(const ShotList& shots) {
  double a = 0.0;
  for (const Shot& s : shots) a += s.shape.area() * s.dose;
  return a;
}

namespace {

// x of the left/right side at height y (exact rational rounded to grid).
Coord side_x_at(Coord y, Coord y0, Coord y1, Coord xa, Coord xb) {
  const Coord64 den = Coord64(y1) - y0;
  const Wide num = Wide(Coord64(xa)) * den + Wide(Coord64(xb) - xa) * (Coord64(y) - y0);
  const Wide half = den / 2;
  if (num >= 0) return static_cast<Coord>((num + half) / den);
  return static_cast<Coord>(-(((-num) + half) / den));
}

// Splits t into horizontal slices of height <= max_h.
void split_y(const Trapezoid& t, Coord max_h, std::vector<Trapezoid>& out) {
  const Coord64 h = Coord64(t.y1) - t.y0;
  if (h <= max_h) {
    out.push_back(t);
    return;
  }
  const auto slices = static_cast<Coord64>((h + max_h - 1) / max_h);
  Coord prev_y = t.y0;
  Coord prev_xl = t.xl0;
  Coord prev_xr = t.xr0;
  for (Coord64 i = 1; i <= slices; ++i) {
    const Coord y = i == slices
                        ? t.y1
                        : static_cast<Coord>(t.y0 + h * i / slices);
    const Coord xl = (y == t.y1) ? t.xl1 : side_x_at(y, t.y0, t.y1, t.xl0, t.xl1);
    const Coord xr = (y == t.y1) ? t.xr1 : side_x_at(y, t.y0, t.y1, t.xr0, t.xr1);
    const Trapezoid slice{prev_y, y, prev_xl, prev_xr, xl, xr};
    if (slice.valid()) out.push_back(slice);
    prev_y = y;
    prev_xl = xl;
    prev_xr = xr;
  }
}

// Clips t to the vertical strip [x0, x1]; pieces remain trapezoids by
// splitting at the heights where the slanted sides cross the strip edges.
void clip_strip(const Trapezoid& t, Coord x0, Coord x1, std::vector<Trapezoid>& out) {
  // Heights where a side crosses x0 or x1 (rounded to grid): at most four
  // besides the two ends.
  std::array<Coord, 6> ys{t.y0, t.y1};
  std::size_t nys = 2;
  const auto add_crossing = [&](Coord xa, Coord xb, Coord xc) {
    // side runs from (xa, y0) to (xb, y1); crossing with x = xc.
    if ((xa < xc && xb < xc) || (xa > xc && xb > xc) || xa == xb) return;
    const Coord64 den = Coord64(xb) - xa;
    const Wide num = Wide(Coord64(t.y0)) * den + Wide(Coord64(t.y1) - t.y0) * (Coord64(xc) - xa);
    const Wide half = (den > 0 ? den : -den) / 2;
    Coord64 y;
    if (den > 0) {
      y = num >= 0 ? static_cast<Coord64>((num + half) / den)
                   : -static_cast<Coord64>(((-num) + half) / den);
    } else {
      const Wide nnum = -num;
      const Coord64 nden = -den;
      y = nnum >= 0 ? static_cast<Coord64>((nnum + half) / nden)
                    : -static_cast<Coord64>(((-nnum) + half) / nden);
    }
    if (y > t.y0 && y < t.y1) ys[nys++] = static_cast<Coord>(y);
  };
  add_crossing(t.xl0, t.xl1, x0);
  add_crossing(t.xl0, t.xl1, x1);
  add_crossing(t.xr0, t.xr1, x0);
  add_crossing(t.xr0, t.xr1, x1);
  for (std::size_t i = 1; i < nys; ++i)  // insertion sort of at most six
    for (std::size_t j = i; j > 0 && ys[j] < ys[j - 1]; --j) std::swap(ys[j], ys[j - 1]);
  nys = static_cast<std::size_t>(std::unique(ys.begin(), ys.begin() + nys) - ys.begin());

  for (std::size_t i = 0; i + 1 < nys; ++i) {
    const Coord ya = ys[i];
    const Coord yb = ys[i + 1];
    const Coord xla = std::clamp(side_x_at(ya, t.y0, t.y1, t.xl0, t.xl1), x0, x1);
    const Coord xlb = std::clamp(side_x_at(yb, t.y0, t.y1, t.xl0, t.xl1), x0, x1);
    const Coord xra = std::clamp(side_x_at(ya, t.y0, t.y1, t.xr0, t.xr1), x0, x1);
    const Coord xrb = std::clamp(side_x_at(yb, t.y0, t.y1, t.xr0, t.xr1), x0, x1);
    const Trapezoid piece{ya, yb, xla, xra, xlb, xrb};
    if (piece.valid()) out.push_back(piece);
  }
}

// split_to_max_size, appending to @p out; @p y_slices is scratch.
void split_into(const Trapezoid& t, Coord max_size, std::vector<Trapezoid>& y_slices,
                std::vector<Trapezoid>& out) {
  y_slices.clear();
  split_y(t, max_size, y_slices);
  for (const Trapezoid& slice : y_slices) {
    const Box bb = slice.bbox();
    const Coord64 w = bb.width();
    if (w <= max_size) {
      out.push_back(slice);
      continue;
    }
    const auto cols = static_cast<Coord64>((w + max_size - 1) / max_size);
    for (Coord64 c = 0; c < cols; ++c) {
      const Coord xa = static_cast<Coord>(bb.lo.x + w * c / cols);
      const Coord xb = static_cast<Coord>(bb.lo.x + w * (c + 1) / cols);
      clip_strip(slice, xa, xb, out);
    }
  }
}

}  // namespace

std::vector<Trapezoid> split_to_max_size(const Trapezoid& t, Coord max_size) {
  expects(max_size > 0, "split_to_max_size: max_size must be positive");
  std::vector<Trapezoid> y_slices, out;
  split_into(t, max_size, y_slices, out);
  return out;
}

std::vector<Trapezoid> clip_trapezoid(const Trapezoid& t, const Box& box) {
  std::vector<Trapezoid> out;
  if (box.empty() || !t.valid() || !t.bbox().touches(box)) return out;
  // Clamp in y first (trivial), then clip the x strip.
  const Coord y0 = std::max(t.y0, box.lo.y);
  const Coord y1 = std::min(t.y1, box.hi.y);
  if (y1 <= y0) return out;
  const Trapezoid ycut{y0, y1, side_x_at(y0, t.y0, t.y1, t.xl0, t.xl1),
                       side_x_at(y0, t.y0, t.y1, t.xr0, t.xr1),
                       side_x_at(y1, t.y0, t.y1, t.xl0, t.xl1),
                       side_x_at(y1, t.y0, t.y1, t.xr0, t.xr1)};
  if (!ycut.valid()) return out;
  clip_strip(ycut, box.lo.x, box.hi.x, out);
  return out;
}

FractureResult fracture(const std::vector<Trapezoid>& traps, const FractureOptions& options) {
  FractureResult result;
  result.stats.figures = traps.size();

  // One pair of buffers serves every figure.
  std::vector<Trapezoid> pieces, y_slices;
  for (const Trapezoid& t : traps) {
    pieces.clear();
    if (options.max_shot_size > 0) {
      split_into(t, options.max_shot_size, y_slices, pieces);
    } else {
      pieces.push_back(t);
    }
    for (const Trapezoid& p : pieces) {
      if (!p.valid()) continue;
      result.shots.push_back(Shot{p, 1.0});
      if (p.is_rect()) ++result.stats.rectangles;
      else if (p.is_triangle()) ++result.stats.triangles;
      if (options.sliver_threshold > 0) {
        const Box bb = p.bbox();
        const Coord64 min_dim = std::min(bb.width(), bb.height());
        if (min_dim < options.sliver_threshold) ++result.stats.slivers;
      }
      result.stats.area += p.area();
    }
  }
  result.stats.shots = result.shots.size();
  return result;
}

void check_fracture_input(const Polygon& p, const FractureOptions& options) {
  if (options.strategy != FractureStrategy::rectangles) return;
  bool rectilinear = p.outer().is_rectilinear();
  for (const auto& h : p.holes()) rectilinear = rectilinear && h.is_rectilinear();
  if (!rectilinear)
    throw DataError("fracture: rectangles strategy requires rectilinear input");
}

FractureResult fracture(const PolygonSet& set, const FractureOptions& options, int threads) {
  for (const Polygon& p : set.polygons()) check_fracture_input(p, options);
  const bool merge = options.strategy != FractureStrategy::bands;
  return fracture(set.trapezoids(merge, threads), options);
}

}  // namespace ebl
