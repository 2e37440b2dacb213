#include "geom/boolean.h"

#include <algorithm>
#include <cmath>

#include "geom/edge.h"
#include "util/contracts.h"

namespace ebl {
namespace {

// Rounds num/den to the nearest integer (ties away from zero); den > 0.
Coord64 round_div(Wide num, Wide den) {
  if (den == 1) return static_cast<Coord64>(num);
  const Wide half = den / 2;
  if (num >= 0) return static_cast<Coord64>((num + half) / den);
  return static_cast<Coord64>(-(((-num) + half) / den));
}

// Calls f(i, j) exactly once, with i < j, for every pair of closed boxes that
// touch. The boxes are binned on a uniform CSR grid (the idiom of
// pec/exposure.cpp): cells start at the larger mean box side and are coarsened
// until both the cell count and the total cover stay O(boxes). A pair is
// tested only in the cell that holds the min corner of the two boxes'
// intersection, which both boxes cover. Cell lists ascend, so within a cell
// the calls come in (i, j) index order.
template <class F>
void for_each_touching_pair(const std::vector<Box>& boxes, F&& f) {
  const std::size_t n = boxes.size();
  if (n < 2) return;
  Box frame;
  double sum_w = 0.0, sum_h = 0.0;
  for (const Box& b : boxes) {
    frame += b;
    sum_w += static_cast<double>(b.width());
    sum_h += static_cast<double>(b.height());
  }
  const double mean_side = std::max(sum_w, sum_h) / static_cast<double>(n);
  const Coord64 extent = std::max(frame.width(), frame.height());
  const double budget = 4.0 * static_cast<double>(n) + 64.0;

  // Cell coordinates are 64-bit offsets from the frame corner, so extents
  // near +-2^31 cannot overflow.
  Coord64 cell = std::max<Coord64>(1, static_cast<Coord64>(std::ceil(mean_side)));
  Coord64 gx = 0, gy = 0;
  const auto cx = [&](Coord x) { return (Coord64(x) - frame.lo.x) / cell; };
  const auto cy = [&](Coord y) { return (Coord64(y) - frame.lo.y) / cell; };
  for (;; cell *= 2) {
    gx = frame.width() / cell + 1;
    gy = frame.height() / cell + 1;
    if (cell > extent) break;
    if (static_cast<double>(gx) * static_cast<double>(gy) > budget) continue;
    double cover = 0.0;
    for (const Box& b : boxes) {
      cover += static_cast<double>(cx(b.hi.x) - cx(b.lo.x) + 1) *
               static_cast<double>(cy(b.hi.y) - cy(b.lo.y) + 1);
      if (cover > budget) break;
    }
    if (cover <= budget) break;
  }

  struct Binned {
    Box box;
    std::int32_t x0, y0, x1, y1;  // covered cell range
  };
  std::vector<Binned> bin(n);
  const std::size_t ncells = static_cast<std::size_t>(gx * gy);
  std::vector<std::uint32_t> start(ncells + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Box& b = boxes[i];
    bin[i] = {b, static_cast<std::int32_t>(cx(b.lo.x)), static_cast<std::int32_t>(cy(b.lo.y)),
              static_cast<std::int32_t>(cx(b.hi.x)), static_cast<std::int32_t>(cy(b.hi.y))};
    for (std::int32_t y = bin[i].y0; y <= bin[i].y1; ++y)
      for (std::int32_t x = bin[i].x0; x <= bin[i].x1; ++x)
        ++start[static_cast<std::size_t>(y) * gx + x + 1];
  }
  for (std::size_t c = 1; c <= ncells; ++c) start[c] += start[c - 1];
  std::vector<std::uint32_t> items(start[ncells]);
  std::vector<std::uint32_t> cursor(start.begin(), start.end() - 1);
  for (std::uint32_t i = 0; i < n; ++i)
    for (std::int32_t y = bin[i].y0; y <= bin[i].y1; ++y)
      for (std::int32_t x = bin[i].x0; x <= bin[i].x1; ++x)
        items[cursor[static_cast<std::size_t>(y) * gx + x]++] = i;

  for (std::int32_t y = 0; y < gy; ++y) {
    for (std::int32_t x = 0; x < gx; ++x) {
      const std::size_t c = static_cast<std::size_t>(y) * gx + x;
      for (std::uint32_t a = start[c]; a < start[c + 1]; ++a) {
        const Binned& bi = bin[items[a]];
        for (std::uint32_t k = a + 1; k < start[c + 1]; ++k) {
          const Binned& bj = bin[items[k]];
          if (!bi.box.touches(bj.box)) continue;
          // The intersection's min corner lies in cell (max x0, max y0).
          if (std::max(bi.x0, bj.x0) != x || std::max(bi.y0, bj.y0) != y) continue;
          f(items[a], items[k]);
        }
      }
    }
  }
}

}  // namespace

void BooleanEngine::add_contour(const SimplePolygon& poly, int group, bool as_given) {
  if (poly.size() < 3) return;
  // Orientation: solid contours must be CCW so winding is +1 inside.
  const bool reverse = !as_given && !poly.is_ccw();
  const std::size_t n = poly.size();
  for (std::size_t i = 0; i < n; ++i) {
    Point a = poly[i];
    Point b = poly[(i + 1) % n];
    if (reverse) std::swap(a, b);
    if (a.y == b.y) continue;  // horizontal edges carry no winding
    Seg s;
    if (a.y < b.y) {
      s = {a, b, +1, static_cast<std::int8_t>(group)};
    } else {
      s = {b, a, -1, static_cast<std::int8_t>(group)};
    }
    segs_.push_back(s);
  }
}

void BooleanEngine::add(const SimplePolygon& poly, int group) {
  add_contour(poly, group, /*as_given=*/false);
}

void BooleanEngine::add(const Polygon& poly, int group) {
  // Polygon normalizes outer to CCW and holes to CW on construction.
  add_contour(poly.outer(), group, /*as_given=*/true);
  for (const auto& h : poly.holes()) add_contour(h, group, /*as_given=*/true);
}

void BooleanEngine::add_raw(const SimplePolygon& contour, int group) {
  add_contour(contour, group, /*as_given=*/true);
}

void BooleanEngine::add(const Box& box, int group) {
  if (box.empty()) return;
  add(SimplePolygon::rect(box), group);
}

void BooleanEngine::add(const Trapezoid& trap, int group) {
  if (!trap.valid()) return;
  add(trap.to_polygon(), group);
}

std::vector<BooleanEngine::Seg> BooleanEngine::split_segments() const {
  std::vector<Seg> segs = segs_;
  stats_ = BooleanStats{};
  stats_.input_edges = segs.size();

  constexpr int kMaxRounds = 32;
  for (int round = 0; round < kMaxRounds; ++round) {
    stats_.split_rounds = static_cast<std::size_t>(round);
    std::sort(segs.begin(), segs.end(), [](const Seg& a, const Seg& b) {
      if (a.lo.y != b.lo.y) return a.lo.y < b.lo.y;
      return a.lo.x < b.lo.x;
    });

    std::vector<std::vector<Point>> cuts(segs.size());
    bool any_cut = false;

    auto note_cut = [&](std::size_t idx, Point p) {
      const Seg& s = segs[idx];
      if (p.y <= s.lo.y || p.y >= s.hi.y) return;  // must split strictly inside in y
      cuts[idx].push_back(p);
      any_cut = true;
    };

    std::vector<Box> boxes;
    boxes.reserve(segs.size());
    for (const Seg& s : segs) boxes.push_back(Box{s.lo, s.hi});
    // i < j in the (lo.y, lo.x) order: intersection_point rounds relative to
    // its first edge, so the call order is part of the cut set.
    for_each_touching_pair(boxes, [&](std::size_t i, std::size_t j) {
      const Edge ei{segs[i].lo, segs[i].hi};
      const Edge ej{segs[j].lo, segs[j].hi};
      switch (classify_intersection(ei, ej)) {
        case SegCross::none:
          break;
        case SegCross::proper: {
          const Point p = intersection_point(ei, ej);
          note_cut(i, p);
          note_cut(j, p);
          break;
        }
        case SegCross::touch: {
          // T-junction: split the segment whose interior is touched.
          if (ei.contains(ej.a)) note_cut(i, ej.a);
          if (ei.contains(ej.b)) note_cut(i, ej.b);
          if (ej.contains(ei.a)) note_cut(j, ei.a);
          if (ej.contains(ei.b)) note_cut(j, ei.b);
          break;
        }
        case SegCross::overlap: {
          note_cut(i, ej.a);
          note_cut(i, ej.b);
          note_cut(j, ei.a);
          note_cut(j, ei.b);
          break;
        }
      }
    });

    if (!any_cut) {
      stats_.split_edges = segs.size();
      return segs;
    }

    std::vector<Seg> next;
    next.reserve(segs.size() + 16);
    for (std::size_t i = 0; i < segs.size(); ++i) {
      if (cuts[i].empty()) {
        next.push_back(segs[i]);
        continue;
      }
      auto& cs = cuts[i];
      std::sort(cs.begin(), cs.end(),
                [](Point a, Point b) { return a.y != b.y ? a.y < b.y : a.x < b.x; });
      cs.erase(std::unique(cs.begin(), cs.end()), cs.end());
      Point prev = segs[i].lo;
      for (Point c : cs) {
        if (c.y > prev.y) next.push_back({prev, c, segs[i].weight, segs[i].group});
        if (c.y >= prev.y) prev = c;  // horizontal residue is dropped
      }
      if (segs[i].hi.y > prev.y)
        next.push_back({prev, segs[i].hi, segs[i].weight, segs[i].group});
    }
    segs = std::move(next);
  }
  throw DataError("BooleanEngine: edge splitting did not reach a fixpoint");
}

std::vector<Band> BooleanEngine::bands(BoolOp op) const {
  std::vector<Seg> segs = split_segments();
  if (segs.empty()) return {};

  // Collect event ys (every segment endpoint).
  std::vector<Coord> ys;
  ys.reserve(segs.size() * 2);
  for (const Seg& s : segs) {
    ys.push_back(s.lo.y);
    ys.push_back(s.hi.y);
  }
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());

  // Segments sorted by lo.y for incremental activation.
  std::sort(segs.begin(), segs.end(), [](const Seg& a, const Seg& b) {
    return a.lo.y < b.lo.y;
  });

  const auto inside = [op](int wa, int wb) {
    const bool a = wa != 0;
    const bool b = wb != 0;
    switch (op) {
      case BoolOp::Or: return a || b;
      case BoolOp::And: return a && b;
      case BoolOp::Sub: return a && !b;
      case BoolOp::Xor: return a != b;
    }
    return false;
  };

  // Active segments in exact band order by (x@y0, x@y1, seg): crossings were
  // removed, so this is a consistent total order within the band, and the
  // seg tie-break makes it strict. The vector is kept between bands. Each x
  // is an exact rational num/den over the segment's den = hi.y - lo.y > 0; a
  // vertical segment gets den = 1, the same rational, so comparisons and
  // round_div see equal values.
  struct Entry {
    Wide x0, x1;  // numerators of x@y0 and x@y1
    Coord64 den;
    std::uint32_t seg;
  };
  const auto num_at = [](const Seg& s, Coord64 den, Coord y) -> Wide {
    if (s.lo.x == s.hi.x) return s.lo.x;
    return Wide(Coord64(s.lo.x)) * den + Wide(Coord64(s.hi.x) - s.lo.x) * (Coord64(y) - s.lo.y);
  };
  const auto rat_cmp = [](Wide an, Coord64 ad, Wide bn, Coord64 bd) -> int {
    const Wide lhs = ad == bd ? an : an * bd;
    const Wide rhs = ad == bd ? bn : bn * ad;
    return lhs < rhs ? -1 : (lhs > rhs ? 1 : 0);
  };
  const auto before = [&](const Entry& a, const Entry& b) {
    if (const int c = rat_cmp(a.x0, a.den, b.x0, b.den); c != 0) return c < 0;
    if (const int c = rat_cmp(a.x1, a.den, b.x1, b.den); c != 0) return c < 0;
    return a.seg < b.seg;  // coincident segments: deterministic tie-break
  };

  std::vector<Band> result;
  std::vector<Entry> order, fresh, merged_order;
  std::vector<BandInterval> row;  // the current band's intervals
  std::size_t next_seg = 0;

  for (std::size_t bi = 0; bi + 1 < ys.size(); ++bi) {
    const Coord y0 = ys[bi];
    const Coord y1 = ys[bi + 1];

    // Retire segments ending at or below y0. A continuing segment's x@y0 is
    // the previous band's x@y1.
    std::size_t kept = 0;
    for (const Entry& e : order) {
      const Seg& s = segs[e.seg];
      if (s.hi.y <= y0) continue;
      order[kept++] = {e.x1, num_at(s, e.den, y1), e.den, e.seg};
    }
    order.resize(kept);
    // Repair the order by insertion. Without crossings the continuing
    // entries are already in order; residual sub-band crossings that
    // rounding left are the only inversions. A strict total order has one
    // sorted permutation, so this is the order a full sort would give.
    for (std::size_t i = 1; i < order.size(); ++i) {
      if (!before(order[i], order[i - 1])) continue;
      const Entry e = order[i];
      std::size_t j = i;
      do {
        order[j] = order[j - 1];
        --j;
      } while (j > 0 && before(e, order[j - 1]));
      order[j] = e;
    }
    // Merge in the segments starting at y0.
    fresh.clear();
    while (next_seg < segs.size() && segs[next_seg].lo.y <= y0) {
      const Seg& s = segs[next_seg];
      const Coord64 den = s.lo.x == s.hi.x ? 1 : Coord64(s.hi.y) - s.lo.y;
      fresh.push_back({num_at(s, den, y0), num_at(s, den, y1), den,
                       static_cast<std::uint32_t>(next_seg)});
      ++next_seg;
    }
    if (!fresh.empty()) {
      std::sort(fresh.begin(), fresh.end(), before);
      merged_order.resize(order.size() + fresh.size());
      std::merge(order.begin(), order.end(), fresh.begin(), fresh.end(),
                 merged_order.begin(), before);
      std::swap(order, merged_order);
    }
    if (order.empty()) continue;

    row.clear();
    int wa = 0;
    int wb = 0;
    BandInterval cur{};
    for (const Entry& e : order) {
      const Seg& s = segs[e.seg];
      const bool was_inside = inside(wa, wb);
      if (s.group == 0) wa += s.weight; else wb += s.weight;
      const bool now_inside = inside(wa, wb);
      if (!was_inside && now_inside) {
        cur.xl0 = static_cast<Coord>(round_div(e.x0, e.den));
        cur.xl1 = static_cast<Coord>(round_div(e.x1, e.den));
        cur.left_seg = static_cast<std::int32_t>(e.seg);
      } else if (was_inside && !now_inside) {
        cur.xr0 = static_cast<Coord>(round_div(e.x0, e.den));
        cur.xr1 = static_cast<Coord>(round_div(e.x1, e.den));
        cur.right_seg = static_cast<std::int32_t>(e.seg);
        row.push_back(cur);
      }
    }
    ensures(wa == 0 && wb == 0, "winding must return to zero at band end");

    // Coalesce intervals that the grid cannot keep apart:
    //  - zero-gap at both ends (they form one figure);
    //  - strict overlap at either end. Strict overlaps arise from residual
    //    sub-band crossings: when an intersection point rounds onto a
    //    segment endpoint's y, the crossing cannot be split on the grid and
    //    the two inside intervals interleave. The union of such intervals is
    //    connected almost everywhere in the band, so merging is the
    //    area-faithful repair (error is a sub-dbu-height sliver).
    std::size_t merged = 0;  // coalesced in place: merged <= read index
    for (const BandInterval& iv : row) {
      if (iv.xl0 == iv.xr0 && iv.xl1 == iv.xr1) continue;  // measure-zero sliver
      if (merged > 0) {
        BandInterval& prev = row[merged - 1];
        const bool touch_both = prev.xr0 >= iv.xl0 && prev.xr1 >= iv.xl1;
        const bool overlap_any = prev.xr0 > iv.xl0 || prev.xr1 > iv.xl1;
        if (touch_both || overlap_any) {
          prev.xr0 = std::max(prev.xr0, iv.xr0);
          prev.xr1 = std::max(prev.xr1, iv.xr1);
          prev.right_seg = -1;  // repaired boundary: no single support segment
          continue;
        }
      }
      row[merged++] = iv;
    }

    if (merged > 0) {
      stats_.intervals += merged;
      const auto end = row.begin() + static_cast<std::ptrdiff_t>(merged);
      result.push_back(Band{y0, y1, {row.begin(), end}});
    }
  }
  stats_.bands = result.size();
  return result;
}

std::vector<Trapezoid> band_trapezoids(const std::vector<Band>& bands) {
  std::vector<Trapezoid> traps;
  for (const Band& b : bands) {
    for (const BandInterval& iv : b.intervals) {
      const Trapezoid t{b.y0, b.y1, iv.xl0, iv.xr0, iv.xl1, iv.xr1};
      if (t.valid()) traps.push_back(t);
    }
  }
  return traps;
}

std::vector<Trapezoid> merge_trapezoids_vertically(const std::vector<Band>& bands) {
  // Growable trapezoids carry the supporting-segment ids of their sides so
  // a band split by a foreign event y can be reunited exactly: when the ids
  // match, the rounded intermediate boundary is dropped and the merged
  // trapezoid interpolates straight between its (exact) extreme sides.
  struct Growing {
    Trapezoid t;
    std::int32_t left_seg;
    std::int32_t right_seg;
  };
  std::vector<Trapezoid> done;
  std::vector<Growing> grow, next_grow;
  std::vector<char> used;

  const auto collinear_sides = [](const Trapezoid& a, const Trapezoid& b) {
    // a on bottom, b on top; shares a.y1 == b.y0, a.xl1 == b.xl0, a.xr1 == b.xr0.
    // Sides stay straight iff slopes match exactly in grid coordinates.
    const Coord64 ha = Coord64(a.y1) - a.y0;
    const Coord64 hb = Coord64(b.y1) - b.y0;
    const bool left = Wide(Coord64(a.xl1) - a.xl0) * hb == Wide(Coord64(b.xl1) - b.xl0) * ha;
    const bool right = Wide(Coord64(a.xr1) - a.xr0) * hb == Wide(Coord64(b.xr1) - b.xr0) * ha;
    return left && right;
  };

  for (const Band& band : bands) {
    next_grow.clear();
    used.assign(band.intervals.size(), 0);
    const std::vector<BandInterval>& ivs = band.intervals;
    for (const Growing& g : grow) {
      bool extended = false;
      if (g.t.y1 == band.y0) {
        // Every match needs iv.xl0 == g.t.xl1, and a band's intervals are
        // sorted left to right, so the candidates are one run found by
        // binary search; the first unused one that fits wins.
        const auto run = std::lower_bound(
            ivs.begin(), ivs.end(), g.t.xl1,
            [](const BandInterval& iv, Coord x) { return iv.xl0 < x; });
        for (auto i = static_cast<std::size_t>(run - ivs.begin());
             i < ivs.size() && ivs[i].xl0 == g.t.xl1; ++i) {
          if (used[i]) continue;
          const BandInterval& iv = ivs[i];
          const bool same_segs = g.left_seg >= 0 && g.left_seg == iv.left_seg &&
                                 g.right_seg >= 0 && g.right_seg == iv.right_seg;
          if (!same_segs) {
            if (iv.xl0 != g.t.xl1 || iv.xr0 != g.t.xr1) continue;
            const Trapezoid cand{band.y0, band.y1, iv.xl0, iv.xr0, iv.xl1, iv.xr1};
            if (!collinear_sides(g.t, cand)) continue;
          } else {
            // Same supporting segments: the boundary must be contiguous in
            // rounded space too (it is, both bands rounded the same
            // rational), but intervals in the same band could reuse a
            // segment after a coalescing repair — keep the contiguity check.
            if (iv.xl0 != g.t.xl1 || iv.xr0 != g.t.xr1) continue;
          }
          // A residual crossing can leave iv inverted at the top
          // (xl1 > xr1). Such an interval is no figure, and growing g into
          // it would make fracture drop g's area too; g stops below it.
          if (iv.xl1 > iv.xr1) continue;
          next_grow.push_back(
              Growing{Trapezoid{g.t.y0, band.y1, g.t.xl0, g.t.xr0, iv.xl1, iv.xr1},
                      same_segs ? g.left_seg : -1, same_segs ? g.right_seg : -1});
          used[i] = 1;
          extended = true;
          break;
        }
      }
      if (!extended) done.push_back(g.t);
    }
    for (std::size_t i = 0; i < band.intervals.size(); ++i) {
      if (used[i]) continue;
      const BandInterval& iv = band.intervals[i];
      const Trapezoid t{band.y0, band.y1, iv.xl0, iv.xr0, iv.xl1, iv.xr1};
      if (t.valid()) next_grow.push_back(Growing{t, iv.left_seg, iv.right_seg});
    }
    std::swap(grow, next_grow);
  }
  for (const Growing& g : grow) done.push_back(g.t);
  return done;
}

std::vector<Trapezoid> BooleanEngine::trapezoids(BoolOp op, bool merge_vertical) const {
  const std::vector<Band> bs = bands(op);
  return merge_vertical ? merge_trapezoids_vertically(bs) : band_trapezoids(bs);
}

std::vector<Polygon> BooleanEngine::polygons(BoolOp op) const {
  return stitch_bands(bands(op));
}

}  // namespace ebl
