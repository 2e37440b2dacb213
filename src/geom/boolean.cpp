#include "geom/boolean.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "geom/edge.h"
#include "util/contracts.h"
#include "util/parallel.h"

namespace ebl {
namespace {

// Rounds num/den to the nearest integer (ties away from zero); den > 0.
Coord64 round_div(Wide num, Wide den) {
  if (den == 1) return static_cast<Coord64>(num);
  const Wide half = den / 2;
  if (num >= 0) return static_cast<Coord64>((num + half) / den);
  return static_cast<Coord64>(-(((-num) + half) / den));
}

// Below this much estimated work a job runs as one part on the calling
// thread: for the pair tests, inner-loop steps of the grid; for the sweep,
// active entries summed over bands (about 6 ns each). Parallel parts and
// slabs pay a dispatch and a seed; this keeps small jobs from paying it.
constexpr std::uint64_t kMinPartWork = std::uint64_t{1} << 15;
// Parts (pair tests) and slabs (sweep) per thread: more pieces than threads
// even out the uneven ones.
constexpr std::size_t kPiecesPerThread = 4;

// Cuts [0, n) into at most @p pieces runs of about equal work, given the
// exclusive scan @p w of per-index work (w.size() == n + 1). Every run holds
// at least one index. Returns the run boundaries, starting at 0 and ending
// at n.
std::vector<std::size_t> balanced_cuts(const std::vector<std::uint64_t>& w, std::size_t pieces) {
  const std::size_t n = w.size() - 1;
  pieces = std::max<std::size_t>(1, std::min(pieces, n));
  std::vector<std::size_t> cuts(pieces + 1, n);
  cuts[0] = 0;
  for (std::size_t k = 1; k < pieces; ++k) {
    const std::uint64_t target =
        static_cast<std::uint64_t>(Wide(w[n]) * Wide(k) / Wide(pieces));
    const auto at = static_cast<std::size_t>(std::lower_bound(w.begin(), w.end(), target) - w.begin());
    cuts[k] = std::clamp(at, cuts[k - 1] + 1, n - (pieces - k));
  }
  return cuts;
}

// Calls f(i, j, out) exactly once, with i < j, for every pair of closed
// boxes that touch. The boxes are binned on a uniform CSR grid (the idiom of
// pec/exposure.cpp): cells start at the larger mean box side and are
// coarsened until both the cell count and the total cover stay O(boxes). A
// pair is tested only in the cell that holds the min corner of the two
// boxes' intersection, which both boxes cover. Cell lists ascend, so within
// a cell the calls come in (i, j) index order.
//
// The grid rows are cut into at most @p parts runs of about equal pair work
// (count -> exclusive scan over the rows' cell lists), run under
// parallel_for on @p threads. f records what it finds only into @p out, the
// vector of its run; the runs' vectors come back in row order. @p parts ==
// 0 picks kPiecesPerThread parts per thread, or one part below
// kMinPartWork.
template <class T, class F>
std::vector<std::vector<T>> for_each_touching_pair(const std::vector<Box>& boxes,
                                                   std::size_t parts, int threads, F&& f) {
  const std::size_t n = boxes.size();
  if (n < 2) return {};
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

  // A row's work is the inner-loop steps of its cells, len * (len + 1) / 2.
  std::vector<std::uint64_t> row_work(static_cast<std::size_t>(gy) + 1, 0);
  for (std::size_t c = 0; c < ncells; ++c) {
    const std::uint64_t len = start[c + 1] - start[c];
    row_work[c / gx + 1] += len * (len + 1) / 2;
  }
  for (std::size_t y = 1; y < row_work.size(); ++y) row_work[y] += row_work[y - 1];
  if (parts == 0)
    parts = threads > 1 && row_work.back() >= kMinPartWork
                ? static_cast<std::size_t>(threads) * kPiecesPerThread
                : 1;
  const std::vector<std::size_t> rows = balanced_cuts(row_work, parts);
  std::vector<std::vector<T>> found(rows.size() - 1);

  parallel_for(rows.size() - 1, [&](std::size_t p_begin, std::size_t p_end) {
    for (std::size_t part = p_begin; part < p_end; ++part) {
      for (auto y = static_cast<std::int32_t>(rows[part]); y < static_cast<std::int32_t>(rows[part + 1]); ++y) {
        for (std::int32_t x = 0; x < gx; ++x) {
          const std::size_t c = static_cast<std::size_t>(y) * gx + x;
          for (std::uint32_t a = start[c]; a < start[c + 1]; ++a) {
            const Binned& bi = bin[items[a]];
            for (std::uint32_t k = a + 1; k < start[c + 1]; ++k) {
              const Binned& bj = bin[items[k]];
              if (!bi.box.touches(bj.box)) continue;
              // The intersection's min corner lies in cell (max x0, max y0).
              if (std::max(bi.x0, bj.x0) != x || std::max(bi.y0, bj.y0) != y) continue;
              f(items[a], items[k], found[part]);
            }
          }
        }
      }
    }
  }, threads);
  return found;
}

// band_trapezoids, one band at a time.
void append_band_trapezoids(const Band& b, std::vector<Trapezoid>& traps) {
  for (const BandInterval& iv : b.intervals) {
    const Trapezoid t{b.y0, b.y1, iv.xl0, iv.xr0, iv.xl1, iv.xr1};
    if (t.valid()) traps.push_back(t);
  }
}

// merge_trapezoids_vertically, one band at a time: add() the bands in
// order, then finish().
class VerticalMerge {
 public:
  void add(const Band& band) {
    next_grow_.clear();
    used_.assign(band.intervals.size(), 0);
    const std::vector<BandInterval>& ivs = band.intervals;
    for (const Growing& g : grow_) {
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
          if (used_[i]) continue;
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
          next_grow_.push_back(
              Growing{Trapezoid{g.t.y0, band.y1, g.t.xl0, g.t.xr0, iv.xl1, iv.xr1},
                      same_segs ? g.left_seg : -1, same_segs ? g.right_seg : -1});
          used_[i] = 1;
          extended = true;
          break;
        }
      }
      if (!extended) done_.push_back(g.t);
    }
    for (std::size_t i = 0; i < band.intervals.size(); ++i) {
      if (used_[i]) continue;
      const BandInterval& iv = band.intervals[i];
      const Trapezoid t{band.y0, band.y1, iv.xl0, iv.xr0, iv.xl1, iv.xr1};
      if (t.valid()) next_grow_.push_back(Growing{t, iv.left_seg, iv.right_seg});
    }
    std::swap(grow_, next_grow_);
  }

  std::vector<Trapezoid> finish() {
    for (const Growing& g : grow_) done_.push_back(g.t);
    grow_.clear();
    return std::move(done_);
  }

 private:
  // Growable trapezoids carry the supporting-segment ids of their sides so
  // a band split by a foreign event y can be reunited exactly: when the ids
  // match, the rounded intermediate boundary is dropped and the merged
  // trapezoid interpolates straight between its (exact) extreme sides.
  struct Growing {
    Trapezoid t;
    std::int32_t left_seg;
    std::int32_t right_seg;
  };

  static bool collinear_sides(const Trapezoid& a, const Trapezoid& b) {
    // a on bottom, b on top; shares a.y1 == b.y0, a.xl1 == b.xl0, a.xr1 == b.xr0.
    // Sides stay straight iff slopes match exactly in grid coordinates.
    const Coord64 ha = Coord64(a.y1) - a.y0;
    const Coord64 hb = Coord64(b.y1) - b.y0;
    const bool left = Wide(Coord64(a.xl1) - a.xl0) * hb == Wide(Coord64(b.xl1) - b.xl0) * ha;
    const bool right = Wide(Coord64(a.xr1) - a.xr0) * hb == Wide(Coord64(b.xr1) - b.xr0) * ha;
    return left && right;
  }

  std::vector<Trapezoid> done_;
  std::vector<Growing> grow_, next_grow_;
  std::vector<char> used_;
};

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

std::vector<BooleanEngine::Seg> BooleanEngine::split_segments(int threads, std::size_t parts,
                                                             BooleanStats& stats) const {
  std::vector<Seg> segs = segs_;
  stats.input_edges = segs.size();

  // Cuts are collected per part of the pair tests, then gathered per
  // segment by count -> exclusive scan -> fill. Each segment's cuts are
  // sorted and deduplicated, so the cut set does not depend on the order in
  // which the parts ran.
  struct Cut {
    std::uint32_t seg;
    Point p;
  };
  std::vector<std::uint32_t> first;  // segment i's cuts are [first[i], first[i + 1])
  std::vector<Point> cut_points;

  constexpr int kMaxRounds = 32;
  for (int round = 0; round < kMaxRounds; ++round) {
    stats.split_rounds = static_cast<std::size_t>(round);
    std::sort(segs.begin(), segs.end(), [](const Seg& a, const Seg& b) {
      if (a.lo.y != b.lo.y) return a.lo.y < b.lo.y;
      return a.lo.x < b.lo.x;
    });

    std::vector<Box> boxes;
    boxes.reserve(segs.size());
    for (const Seg& s : segs) boxes.push_back(Box{s.lo, s.hi});
    // i < j in the (lo.y, lo.x) order: intersection_point rounds relative to
    // its first edge, so the argument order is part of the cut set.
    const auto part_cuts = for_each_touching_pair<Cut>(
        boxes, parts, threads, [&](std::size_t i, std::size_t j, std::vector<Cut>& cuts) {
      const auto note_cut = [&](std::size_t idx, Point p) {
        const Seg& s = segs[idx];
        if (p.y <= s.lo.y || p.y >= s.hi.y) return;  // must split strictly inside in y
        cuts.push_back({static_cast<std::uint32_t>(idx), p});
      };
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

    first.assign(segs.size() + 1, 0);
    for (const auto& cuts : part_cuts)
      for (const Cut& c : cuts) ++first[c.seg + 1];
    for (std::size_t i = 0; i < segs.size(); ++i) first[i + 1] += first[i];
    if (first.back() == 0) {
      stats.split_edges = segs.size();
      return segs;
    }
    cut_points.resize(first.back());
    {
      std::vector<std::uint32_t> fill(first.begin(), first.end() - 1);
      for (const auto& cuts : part_cuts)
        for (const Cut& c : cuts) cut_points[fill[c.seg]++] = c.p;
    }

    std::vector<Seg> next;
    next.reserve(segs.size() + first.back());
    for (std::size_t i = 0; i < segs.size(); ++i) {
      const Seg& s = segs[i];
      if (first[i] == first[i + 1]) {
        next.push_back(s);
        continue;
      }
      const auto cs = cut_points.begin() + first[i];
      auto ce = cut_points.begin() + first[i + 1];
      std::sort(cs, ce, [](Point a, Point b) { return a.y != b.y ? a.y < b.y : a.x < b.x; });
      ce = std::unique(cs, ce);
      Point prev = s.lo;
      for (auto c = cs; c != ce; ++c) {
        if (c->y > prev.y) next.push_back({prev, *c, s.weight, s.group});
        if (c->y >= prev.y) prev = *c;  // horizontal residue is dropped
      }
      if (s.hi.y > prev.y) next.push_back({prev, s.hi, s.weight, s.group});
    }
    segs = std::move(next);
  }
  throw DataError("BooleanEngine: edge splitting did not reach a fixpoint");
}

std::vector<Band> BooleanEngine::bands(BoolOp op, int threads) const {
  return sweep_bands(op, threads, 0);
}

void BooleanEngine::sweep(BoolOp op, int threads, std::size_t slabs,
                          const std::function<void(std::vector<Band>&)>& take) const {
  threads = resolve_threads(threads);
  BooleanStats stats;
  std::vector<Seg> segs = split_segments(threads, slabs, stats);
  stats_ = stats;
  if (segs.empty()) return;

  // Segments sorted by lo.y for incremental activation. The event ys (every
  // segment endpoint) merge their lo.ys, now in order, with their hi.ys
  // sorted on the side; the two sorts run side by side.
  std::vector<Coord> his(segs.size());
  for (std::size_t i = 0; i < segs.size(); ++i) his[i] = segs[i].hi.y;
  parallel_for(2, [&](std::size_t begin, std::size_t end) {
    for (std::size_t task = begin; task < end; ++task) {
      if (task == 0) {
        std::sort(segs.begin(), segs.end(),
                  [](const Seg& a, const Seg& b) { return a.lo.y < b.lo.y; });
      } else {
        std::sort(his.begin(), his.end());
      }
    }
  }, threads);
  std::vector<Coord> ys;
  ys.reserve(segs.size() * 2);
  for (std::size_t i = 0, j = 0; i < segs.size() || j < his.size();) {
    const Coord y = j == his.size() || (i < segs.size() && segs[i].lo.y <= his[j])
                        ? segs[i++].lo.y
                        : his[j++];
    if (ys.empty() || ys.back() != y) ys.push_back(y);
  }
  const std::size_t nbands = ys.size() - 1;  // every segment has lo.y < hi.y

  // Cut the bands into y-slabs of about equal work (count -> exclusive
  // scan). Band b's work is its active entry count plus one: +1 at each
  // segment's first band and -1 past its last (both walks run over sorted
  // ys), scanned into the counts, then the counts scanned into the work.
  const bool auto_slabs = slabs == 0;
  if (auto_slabs) slabs = static_cast<std::size_t>(threads) * kPiecesPerThread;
  std::vector<std::size_t> slab_bands{0, nbands};
  if (std::min(slabs, nbands) > 1) {
    std::vector<std::int64_t> delta(nbands + 1, 0);
    for (std::size_t i = 0, b = 0; i < segs.size(); ++i) {
      while (ys[b] < segs[i].lo.y) ++b;
      ++delta[b];
    }
    for (std::size_t j = 0, b = 0; j < his.size(); ++j) {
      while (ys[b] < his[j]) ++b;
      --delta[b];
    }
    std::vector<std::uint64_t> work(nbands + 1, 0);
    std::int64_t active = 0;
    for (std::size_t b = 0; b < nbands; ++b) {
      active += delta[b];
      work[b + 1] = work[b] + static_cast<std::uint64_t>(active) + 1;
    }
    if (auto_slabs) slabs = std::min<std::size_t>(slabs, work.back() / kMinPartWork);
    slab_bands = balanced_cuts(work, slabs);
  }
  slabs = slab_bands.size() - 1;

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
  const auto entry = [&](std::size_t idx, Coord y0, Coord y1) {
    const Seg& s = segs[idx];
    const Coord64 den = s.lo.x == s.hi.x ? 1 : Coord64(s.hi.y) - s.lo.y;
    return Entry{num_at(s, den, y0), num_at(s, den, y1), den, static_cast<std::uint32_t>(idx)};
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

  // One slab's bands into @p result, its interval count into @p intervals.
  // The band output depends only on the band's active set, whose sorted
  // order is unique, so a slab seeds its first band with a full sort of the
  // segments that cross its bottom and then sweeps like the whole range
  // would: the bands come out as one sweep would give them.
  const auto sweep_slab = [&](std::size_t slab, std::vector<Band>& result,
                              std::size_t& intervals) {
    const std::size_t b_begin = slab_bands[slab];
    const std::size_t b_end = slab_bands[slab + 1];
    std::vector<Entry> order, fresh, merged_order;
    std::vector<BandInterval> row;  // the current band's intervals
    std::size_t next_seg = static_cast<std::size_t>(
        std::partition_point(segs.begin(), segs.end(),
                             [&](const Seg& s) { return s.lo.y < ys[b_begin]; }) -
        segs.begin());
    for (std::size_t i = 0; i < next_seg; ++i)
      if (segs[i].hi.y > ys[b_begin]) order.push_back(entry(i, ys[b_begin], ys[b_begin + 1]));
    std::sort(order.begin(), order.end(), before);

    for (std::size_t bi = b_begin; bi < b_end; ++bi) {
      const Coord y0 = ys[bi];
      const Coord y1 = ys[bi + 1];

      if (bi > b_begin) {
        // Retire segments ending at or below y0. A continuing segment's x@y0
        // is the previous band's x@y1.
        std::size_t kept = 0;
        for (const Entry& e : order) {
          const Seg& s = segs[e.seg];
          if (s.hi.y <= y0) continue;
          order[kept++] = {e.x1, num_at(s, e.den, y1), e.den, e.seg};
        }
        order.resize(kept);
        // Repair the order by insertion. Without crossings the continuing
        // entries are already in order; residual sub-band crossings that
        // rounding left are the only inversions. A strict total order has
        // one sorted permutation, so this is the order a full sort would
        // give.
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
      }
      // Merge in the segments starting at y0.
      fresh.clear();
      for (; next_seg < segs.size() && segs[next_seg].lo.y <= y0; ++next_seg)
        fresh.push_back(entry(next_seg, y0, y1));
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
      //    segment endpoint's y, the crossing cannot be split on the grid
      //    and the two inside intervals interleave. The union of such
      //    intervals is connected almost everywhere in the band, so merging
      //    is the area-faithful repair (error is a sub-dbu-height sliver).
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
        intervals += merged;
        const auto end = row.begin() + static_cast<std::ptrdiff_t>(merged);
        result.push_back(Band{y0, y1, {row.begin(), end}});
      }
    }
  };
  // The slabs run in waves of one per thread, bottom to top. After each
  // wave the calling thread sums the wave's counters and hands its bands to
  // take in slab order, then drops them, so only one wave's bands are alive
  // unless take keeps them.
  const auto wave = static_cast<std::size_t>(threads);
  std::vector<std::vector<Band>> wave_bands(std::min(wave, slabs));
  std::vector<std::size_t> wave_intervals(wave_bands.size());
  for (std::size_t first_slab = 0; first_slab < slabs; first_slab += wave) {
    const std::size_t n = std::min(wave, slabs - first_slab);
    parallel_for(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i)
        sweep_slab(first_slab + i, wave_bands[i], wave_intervals[i]);
    }, threads);
    for (std::size_t i = 0; i < n; ++i) {
      stats.bands += wave_bands[i].size();
      stats.intervals += wave_intervals[i];
      take(wave_bands[i]);
      wave_bands[i].clear();
      wave_intervals[i] = 0;
    }
  }
  stats_ = stats;
}

std::vector<Band> BooleanEngine::sweep_bands(BoolOp op, int threads, std::size_t slabs) const {
  // The slabs' bands are moved, not copied: their interval vectors are most
  // of the output.
  std::vector<Band> result;
  sweep(op, threads, slabs, [&](std::vector<Band>& bands) {
    result.insert(result.end(), std::make_move_iterator(bands.begin()),
                  std::make_move_iterator(bands.end()));
  });
  return result;
}

std::vector<Trapezoid> BooleanEngine::sweep_trapezoids(BoolOp op, bool merge_vertical,
                                                       int threads, std::size_t slabs) const {
  // Each wave's bands are folded into the figures and dropped, so the full
  // band list is never held.
  VerticalMerge merge;
  std::vector<Trapezoid> flat;
  sweep(op, threads, slabs, [&](std::vector<Band>& bands) {
    for (const Band& b : bands) {
      if (merge_vertical) merge.add(b); else append_band_trapezoids(b, flat);
    }
  });
  return merge_vertical ? merge.finish() : flat;
}

namespace detail {
std::vector<Band> boolean_bands_forced(const BooleanEngine& eng, BoolOp op, int threads,
                                       std::size_t pieces) {
  return eng.sweep_bands(op, threads, std::max<std::size_t>(1, pieces));
}

std::vector<Trapezoid> boolean_trapezoids_forced(const BooleanEngine& eng, BoolOp op,
                                                 bool merge_vertical, int threads,
                                                 std::size_t pieces) {
  return eng.sweep_trapezoids(op, merge_vertical, threads, std::max<std::size_t>(1, pieces));
}
}  // namespace detail

std::vector<Trapezoid> band_trapezoids(const std::vector<Band>& bands) {
  std::vector<Trapezoid> traps;
  for (const Band& b : bands) append_band_trapezoids(b, traps);
  return traps;
}

std::vector<Trapezoid> merge_trapezoids_vertically(const std::vector<Band>& bands) {
  VerticalMerge merge;
  for (const Band& b : bands) merge.add(b);
  return merge.finish();
}

std::vector<Trapezoid> BooleanEngine::trapezoids(BoolOp op, bool merge_vertical,
                                                 int threads) const {
  return sweep_trapezoids(op, merge_vertical, threads, 0);
}

std::vector<Polygon> BooleanEngine::polygons(BoolOp op, int threads) const {
  return stitch_bands(bands(op, threads));
}

}  // namespace ebl
