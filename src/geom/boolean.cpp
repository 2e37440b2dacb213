#include "geom/boolean.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "geom/edge.h"
#include "util/contracts.h"
#include "util/parallel.h"

namespace ebl {
namespace {

// Rounds num/den to the nearest integer (ties away from zero); den > 0.
Coord64 round_div(Wide num, Wide den) {
  if (den == 1) return static_cast<Coord64>(num);
  constexpr Wide kFast = Wide(1) << 62;  // den < 2^32, so num + half stays in 64 bits
  if (num >= -kFast && num <= kFast && den <= 0xffffffff) {
    const auto n = static_cast<Coord64>(num);
    const auto d = static_cast<Coord64>(den);
    return n >= 0 ? (n + d / 2) / d : -((-n + d / 2) / d);
  }
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

// A box binned on the pair grid, with the range of cells it covers.
struct Binned {
  Box box;
  std::int32_t x0, y0, x1, y1;
};

// The pair tests of grid rows [y_begin, y_end): every touching pair in a
// cell whose intersection's min corner lies in that cell.
template <class F, class T>
[[gnu::noinline, gnu::aligned(64)]] void test_rows(std::size_t y_begin, std::size_t y_end,
                                                   Coord64 gx,
                                                   const std::vector<std::uint32_t>& start,
                                                   const std::vector<std::uint32_t>& items,
                                                   const std::vector<Binned>& bin, F& f,
                                                   std::vector<T>& out) {
  for (auto y = static_cast<std::int32_t>(y_begin); y < static_cast<std::int32_t>(y_end); ++y) {
    for (std::int32_t x = 0; x < gx; ++x) {
      const std::size_t c = static_cast<std::size_t>(y) * gx + x;
      for (std::uint32_t a = start[c]; a < start[c + 1]; ++a) {
        const Binned& bi = bin[items[a]];
        for (std::uint32_t k = a + 1; k < start[c + 1]; ++k) {
          const Binned& bj = bin[items[k]];
          if (!bi.box.touches(bj.box)) continue;
          // The intersection's min corner lies in cell (max x0, max y0).
          if (std::max(bi.x0, bj.x0) != x || std::max(bi.y0, bj.y0) != y) continue;
          f(items[a], items[k], out);
        }
      }
    }
  }
}

// Calls f(i, j, out) exactly once, with i < j, for every pair of closed
// boxes that touch and of which at least one is @p tested (every pair when
// @p tested is empty). The boxes are binned on a uniform CSR grid (the idiom
// of pec/exposure.cpp): cells start at the larger mean box side and are
// coarsened until both the cell count and the total cover stay O(boxes). A
// pair is tested only in the cell that holds the min corner of the two
// boxes' intersection, which both boxes cover.
//
// Testing every pair, the grid rows are cut into at most @p parts runs of
// about equal pair work (count -> exclusive scan over the rows' cell lists).
// With @p tested, only the tested boxes are binned and every box looks up
// the cells it covers, in @p parts runs of boxes. The runs go under
// parallel_for on @p threads; f records what it finds only into @p out, the
// vector of its run, and the runs' vectors come back in order. @p parts == 0
// picks kPiecesPerThread parts per thread, or one part below kMinPartWork.
template <class T, class F>
std::vector<std::vector<T>> for_each_touching_pair(const std::vector<Box>& boxes,
                                                   const std::vector<char>& tested,
                                                   std::size_t parts, int threads, F&& f) {
  const std::size_t n = boxes.size();
  if (n < 2) return {};
  // The grid covers the binned boxes: all of them, or the tested ones.
  const bool all = tested.empty();
  const auto binned = [&](std::size_t i) { return all || tested[i] != 0; };
  Box frame;
  double sum_w = 0.0, sum_h = 0.0;
  std::size_t nbinned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!binned(i)) continue;
    const Box& b = boxes[i];
    frame += b;
    sum_w += static_cast<double>(b.width());
    sum_h += static_cast<double>(b.height());
    ++nbinned;
  }
  if (nbinned == 0) return {};
  const double mean_side = std::max(sum_w, sum_h) / static_cast<double>(nbinned);
  const Coord64 extent = std::max(frame.width(), frame.height());
  const double budget = 4.0 * static_cast<double>(nbinned) + 64.0;

  // Cell coordinates are 64-bit offsets from the frame corner, so extents
  // near +-2^31 cannot overflow. Cells are 2^shift wide; which pairs touch
  // does not depend on the grid, only how fast they are found.
  int shift = 0;
  while ((Coord64{1} << shift) < mean_side) ++shift;
  Coord64 gx = 0, gy = 0;
  const auto cx = [&](Coord x) { return (Coord64(x) - frame.lo.x) >> shift; };
  const auto cy = [&](Coord y) { return (Coord64(y) - frame.lo.y) >> shift; };
  for (;; ++shift) {
    gx = (frame.width() >> shift) + 1;
    gy = (frame.height() >> shift) + 1;
    if ((Coord64{1} << shift) > extent) break;
    if (static_cast<double>(gx) * static_cast<double>(gy) > budget) continue;
    double cover = 0.0;
    for (std::size_t i = 0; i < n && cover <= budget; ++i) {
      if (!binned(i)) continue;
      const Box& b = boxes[i];
      cover += static_cast<double>(cx(b.hi.x) - cx(b.lo.x) + 1) *
               static_cast<double>(cy(b.hi.y) - cy(b.lo.y) + 1);
    }
    if (cover <= budget) break;
  }

  // Boxes outside the frame (only when not all are binned) get cell ranges
  // clamped to it.
  std::vector<Binned> bin(n);
  const std::size_t ncells = static_cast<std::size_t>(gx * gy);
  std::vector<std::uint32_t> start(ncells + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Box& b = boxes[i];
    bin[i] = {b, static_cast<std::int32_t>(std::max<Coord64>(0, cx(b.lo.x))),
              static_cast<std::int32_t>(std::max<Coord64>(0, cy(b.lo.y))),
              static_cast<std::int32_t>(std::min(gx - 1, cx(b.hi.x))),
              static_cast<std::int32_t>(std::min(gy - 1, cy(b.hi.y)))};
    if (!binned(i)) continue;
    for (std::int32_t y = bin[i].y0; y <= bin[i].y1; ++y)
      for (std::int32_t x = bin[i].x0; x <= bin[i].x1; ++x)
        ++start[static_cast<std::size_t>(y) * gx + x + 1];
  }
  for (std::size_t c = 1; c <= ncells; ++c) start[c] += start[c - 1];
  std::vector<std::uint32_t> items(start[ncells]);
  std::vector<std::uint32_t> cursor(start.begin(), start.end() - 1);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!binned(i)) continue;
    for (std::int32_t y = bin[i].y0; y <= bin[i].y1; ++y)
      for (std::int32_t x = bin[i].x0; x <= bin[i].x1; ++x)
        items[cursor[static_cast<std::size_t>(y) * gx + x]++] = i;
  }

  if (!all) {
    if (parts == 0)
      parts = threads > 1 && n >= kMinPartWork ? static_cast<std::size_t>(threads) * kPiecesPerThread
                                              : 1;
    parts = std::min(parts, n);
    std::vector<std::vector<T>> found(parts);
    parallel_for(parts, [&](std::size_t p_begin, std::size_t p_end) {
      for (std::size_t part = p_begin; part < p_end; ++part) {
        for (std::size_t i = n * part / parts; i < n * (part + 1) / parts; ++i) {
          const Binned& bi = bin[i];
          if (!bi.box.touches(frame)) continue;
          for (std::int32_t y = bi.y0; y <= bi.y1; ++y) {
            for (std::int32_t x = bi.x0; x <= bi.x1; ++x) {
              const std::size_t c = static_cast<std::size_t>(y) * gx + x;
              for (std::uint32_t a = start[c]; a < start[c + 1]; ++a) {
                const std::uint32_t j = items[a];
                // A tested pair is found from both sides; take it once.
                if (j == i || (tested[i] && j < i)) continue;
                const Binned& bj = bin[j];
                if (!bi.box.touches(bj.box)) continue;
                // The intersection's min corner lies in cell (max x0, max y0);
                // bj lies in the frame, so bi's clamp does not move it.
                if (std::max(bi.x0, bj.x0) != x || std::max(bi.y0, bj.y0) != y) continue;
                f(std::min<std::size_t>(i, j), std::max<std::size_t>(i, j), found[part]);
              }
            }
          }
        }
      }
    }, threads);
    return found;
  }

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
    for (std::size_t part = p_begin; part < p_end; ++part)
      test_rows(rows[part], rows[part + 1], gx, start, items, bin, f, found[part]);
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

// A split segment as the sweep reads it: the exact line x(y) = num(y) / den.
// A vertical segment gets den = 1, the same rational, so comparisons and
// round_div see equal values.
struct Line {
  Coord64 dx;         // hi.x - lo.x
  Coord lox, loy, hiy;
  std::uint32_t den;  // hi.y - lo.y, or 1 when vertical
  std::int8_t weight, group;
  // |lo.x|, |dx| and den below 2^30: within the segment's y range num()
  // fits in 62 bits, and products with a den in 64 x 64 -> 128 bits.
  bool small;

  Coord64 num64(Coord y) const { return Coord64(lox) * den + dx * (Coord64(y) - loy); }
  Wide num(Coord y) const {
    if (small) return num64(y);
    if (dx == 0) return lox;
    return Wide(Coord64(lox)) * den + Wide(dx) * (Coord64(y) - loy);
  }
  Coord round(Coord y) const { return static_cast<Coord>(round_div(num(y), den)); }
};

int rat_cmp(Wide an, Coord64 ad, Wide bn, Coord64 bd) {
  const Wide lhs = ad == bd ? an : an * bd;
  const Wide rhs = ad == bd ? bn : bn * ad;
  return lhs < rhs ? -1 : (lhs > rhs ? 1 : 0);
}

// Sign of x_a(y) - x_b(y), for y within both segments' ranges.
int cmp_at(const Line& a, const Line& b, Coord y) {
  if (a.small && b.small) {
    const Coord64 an = a.num64(y);
    const Coord64 bn = b.num64(y);
    if (a.den == b.den) return (an > bn) - (an < bn);
    const Wide lhs = Wide(an) * b.den;
    const Wide rhs = Wide(bn) * a.den;
    return (lhs > rhs) - (lhs < rhs);
  }
  return rat_cmp(a.num(y), a.den, b.num(y), b.den);
}

// (x_v(y) - x_u(y)) * den_u * den_v.
Wide gap_num(const Line& u, const Line& v, Coord y) {
  if (u.small && v.small) return Wide(v.num64(y)) * u.den - Wide(u.num64(y)) * v.den;
  return v.num(y) * u.den - u.num(y) * v.den;
}

// Whether the gap from u to v is under one dbu at either end of the band
// [y0, y1]. Two sides whose gap is at least one dbu at both ends round to
// distinct grid x at both ends, so only near sides can coalesce, form a
// sliver or leave a zero-width end that a figure could match twice.
bool near(const Line& u, const Line& v, Coord y0, Coord y1) {
  if (u.dx == 0 && v.dx == 0) return Coord64(v.lox) - u.lox < 1;  // two verticals
  const Wide one = Wide(u.den) * v.den;
  return gap_num(u, v, y0) < one || gap_num(u, v, y1) < one;
}

bool inside_for(BoolOp op, int wa, int wb) {
  const bool a = wa != 0;
  const bool b = wb != 0;
  switch (op) {
    case BoolOp::Or: return a || b;
    case BoolOp::And: return a && b;
    case BoolOp::Sub: return a && !b;
    case BoolOp::Xor: return a != b;
  }
  return false;
}

// Sides stay straight iff slopes match exactly in grid coordinates; a is the
// lower figure, b the band above it, sharing a.y1 == b.y0.
bool collinear_sides(const Trapezoid& a, const Trapezoid& b) {
  const Coord64 ha = Coord64(a.y1) - a.y0;
  const Coord64 hb = Coord64(b.y1) - b.y0;
  const bool left = Wide(Coord64(a.xl1) - a.xl0) * hb == Wide(Coord64(b.xl1) - b.xl0) * ha;
  const bool right = Wide(Coord64(a.xr1) - a.xr0) * hb == Wide(Coord64(b.xr1) - b.xr0) * ha;
  return left && right;
}

constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();
constexpr std::uint32_t kNoSeg = std::numeric_limits<std::uint32_t>::max();

// The open-trapezoid sweep (see boolean.h). Events are the distinct segment
// endpoint ys; event e opens band e = [ys[e], ys[e + 1]].
//
// The active segments are kept in the band's strict (x@y0, x@y1, seg) order.
// A band's inside intervals, coalesced as the band-by-band sweep coalesced
// them, are clusters: a doubly linked list in x order, each holding the
// growing figure the vertical merge of those bands would hold, and the
// prefix winding of every entry is stored. An event removes the segments
// that end, inserts the ones that start and marks the clusters they fall in
// dirty; clusters also come due from a schedule. Each run of dirty clusters
// is re-walked from the end of the cluster left of it: windings, inside
// intervals and coalescing are recomputed until the winding meets the stored
// one at the next clean cluster and no near gap joins a neighbour, and the
// run's old figures are matched to the new intervals exactly as the vertical
// merge matched them (in opening order, first fitting interval wins).
//
// A cluster is quiet when its next band is certain to extend its figure
// unchanged: one inside interval, not near its neighbours or itself, and a
// figure whose sides are that interval's segments (or vertical, for a figure
// grown by collinearity). A quiet cluster is only revisited at the first
// band where one of its three gaps turns near; every other cluster is
// re-evaluated at the next event.
//
// Residual crossings (pieces that still cross after the grid snap) are the
// only inversions of the order. When two entries become adjacent their
// crossing, if any, marks its band: that band and the event after it (where
// the pair swaps) re-evaluate everything, with an insertion repair of the
// whole order, as the band-by-band sweep did in every band.
class OpenSweep {
 public:
  OpenSweep(std::vector<Line> lines, std::vector<Coord> ys, std::vector<std::uint32_t> ends,
            BoolOp op)
      : lines_(std::move(lines)), ys_(std::move(ys)), op_(op), full_(ys_.size(), 0),
        cross_(ys_.size(), 0), ends_(std::move(ends)), wa_(lines_.size(), 0),
        wb_(lines_.size(), 0),
        owner_(lines_.size(), -1), due_head_(ys_.size(), -1) {}

  // Sweeps every band. Hands each non-empty band to @p band when set,
  // appends the vertically merged figures to @p merged when set, and counts
  // bands and intervals into @p stats.
  void run(const std::function<void(Band&)>* band, std::vector<Trapezoid>* merged,
           BooleanStats& stats) {
    merged_ = merged;
    const std::size_t nbands = ys_.size() - 1;
    for (std::size_t e = 0; e < nbands; ++e) {
      event(e);
      if (live_ == 0) continue;
      ++stats.bands;
      stats.intervals += live_;
      if (band) {
        Band b{ys_[e], ys_[e + 1], {}};
        b.intervals.reserve(live_);
        for (std::int32_t c = head_; c >= 0; c = cl_[c].next) b.intervals.push_back(interval(c, e));
        (*band)(b);
      }
    }
    if (merged_) {
      closed_.clear();
      for (std::int32_t c = head_; c >= 0; c = cl_[c].next)
        if (cl_[c].open) closed_.push_back({cl_[c].seq, figure_at(c, nbands)});
      flush_closed();
    }
  }

 private:
  struct Cluster {
    std::uint32_t lseg = 0, rseg = 0;  // first interval's left side, last interval's right side
    BandInterval iv;                   // the interval at event `evaluated`
    Trapezoid t;                       // growing figure; its top is stale while quiet
    std::int32_t gl = -1, gr = -1;     // the figure's side segments, -1 after collinear growth
    std::uint64_t seq = 0;             // opening order
    std::int32_t prev = -1, next = -1;
    std::uint32_t version = 0;
    std::size_t evaluated = 0;
    std::size_t from = 0, at = kNever;  // while dirty: see mark()
    bool open = false, quiet = false, dirty = false, alive = false;
  };
  // An inside interval of a re-walked run, raw (one per winding entry and
  // exit) or coalesced.
  struct Span {
    BandInterval iv;
    std::uint32_t lseg, rseg;
    std::size_t lpos, rpos;  // positions of the sides
    int raws = 1;
    bool sliver_after = false;
    // Set once the run is matched.
    bool open = false, quiet = false, gap_near = false;
    Trapezoid t;
    std::int32_t gl = -1, gr = -1, id = -1;
    std::uint64_t seq = 0;
    std::size_t gap_due = kNever;  // of the gap on its left, once its left neighbour is quiet
  };
  // A cluster due for re-evaluation at an event, in that event's list.
  struct Due {
    std::int32_t id;
    std::uint32_t version;
    std::int32_t next;
  };
  struct Closed {
    std::uint64_t seq;
    Trapezoid t;
  };

  bool before(std::uint32_t a, std::uint32_t b, Coord y0, Coord y1) const {
    const Line& la = lines_[a];
    const Line& lb = lines_[b];
    if (la.dx == 0 && lb.dx == 0) return la.lox != lb.lox ? la.lox < lb.lox : a < b;
    if (const int c = cmp_at(la, lb, y0); c != 0) return c < 0;
    if (const int c = cmp_at(la, lb, y1); c != 0) return c < 0;
    return a < b;  // coincident segments: deterministic tie-break
  }

  // The position right after active segment @p s in band e. @p hint, when
  // set, is a position after s: a few steps back from it usually find s.
  std::size_t start_after(std::uint32_t s, std::size_t hint, std::size_t e) const {
    if (hint != kNever) {
      const std::size_t stop = std::min(hint, order_.size());
      for (std::size_t q = stop; q > 0 && stop - q < 16; --q)
        if (order_[q - 1] == s) return q;
    }
    return pos_of(s, e) + 1;
  }

  // Position of active segment @p s in the order of band e.
  std::size_t pos_of(std::uint32_t s, std::size_t e) const {
    const Coord y0 = ys_[e], y1 = ys_[e + 1];
    const auto it = std::lower_bound(order_.begin(), order_.end(), s, [&](std::uint32_t a,
                                                                          std::uint32_t b) {
      return before(a, b, y0, y1);
    });
    ensures(it != order_.end() && *it == s, "sweep: active segment not in order");
    return static_cast<std::size_t>(it - order_.begin());
  }

  bool is_near(std::uint32_t u, std::uint32_t v, std::size_t e) const {
    return near(lines_[u], lines_[v], ys_[e], ys_[e + 1]);
  }

  // The first band after e in which the gap from u to v (not near in band e)
  // is near, or kNever when either segment ends first.
  std::size_t near_start(std::uint32_t u, std::uint32_t v, std::size_t e) const {
    const Line& lu = lines_[u];
    const Line& lv = lines_[v];
    const Wide slope = Wide(lv.dx) * lu.den - Wide(lu.dx) * lv.den;
    if (slope >= 0) return kNever;
    const Coord y0 = ys_[e];
    const Coord64 life = Coord64(std::min(lu.hiy, lv.hiy)) - y0;
    // The gap falls under one dbu past y0 + (gap(y0) - 1) / -slope.
    const Wide over = gap_num(lu, lv, y0) - Wide(lu.den) * lv.den;
    if (over >= -slope * life) return kNever;
    constexpr Wide kFast = Wide(1) << 62;
    const Coord64 steps = over < kFast && -slope < kFast
                              ? static_cast<Coord64>(over) / static_cast<Coord64>(-slope)
                              : static_cast<Coord64>(over / -slope);
    const std::size_t band = event_at(e + 1, Coord64(y0) + steps + 1) - 1;
    return Coord64(ys_[band]) < Coord64(y0) + life ? band : kNever;
  }

  // The first event at or after @p from whose y is at least @p y (ys_.size()
  // when none is), by a galloping search: dues are mostly a few events away.
  std::size_t event_at(std::size_t from, Coord64 y) const {
    std::size_t lo = from, step = 1;
    while (lo < ys_.size() && ys_[lo] < y) {
      const std::size_t hi = std::min(ys_.size(), lo + step);
      if (hi == ys_.size() || ys_[hi - 1] >= y) {
        return static_cast<std::size_t>(
            std::lower_bound(ys_.begin() + static_cast<std::ptrdiff_t>(lo),
                             ys_.begin() + static_cast<std::ptrdiff_t>(hi), y) -
            ys_.begin());
      }
      lo = hi;
      step *= 2;
    }
    return lo;
  }

  void schedule(std::size_t event, std::int32_t id) {
    std::int32_t node;
    if (due_free_ >= 0) {
      node = due_free_;
      due_free_ = due_pool_[node].next;
    } else {
      node = static_cast<std::int32_t>(due_pool_.size());
      due_pool_.emplace_back();
    }
    due_pool_[node] = Due{id, cl_[id].version, due_head_[event]};
    due_head_[event] = node;
  }

  // Marks where adjacent entries a < b of band e cross, if they do before
  // either ends: a crossing inside band k re-evaluates events k and k + 1,
  // a crossing at ys[k] event k.
  void note_crossing(std::uint32_t a, std::uint32_t b, std::size_t e) {
    const Line& la = lines_[a];
    const Line& lb = lines_[b];
    const Wide slope = Wide(lb.dx) * la.den - Wide(la.dx) * lb.den;
    if (slope >= 0) return;
    if (gap_num(la, lb, std::min(la.hiy, lb.hiy)) >= 0) return;
    const Coord y0 = ys_[e];
    const Wide gap0 = gap_num(la, lb, y0);
    ensures(gap0 > 0, "sweep: adjacent entries out of order");
    const Coord64 floor_y = Coord64(y0) + static_cast<Coord64>(gap0 / -slope);
    const auto k = static_cast<std::size_t>(
        std::upper_bound(ys_.begin(), ys_.end(), floor_y) - ys_.begin()) - 1;
    if (gap0 % -slope == 0 && Coord64(ys_[k]) == floor_y) {
      full_[k] = 1;
    } else {
      cross_[k] = 1;
      full_[k + 1] = 1;
    }
  }

  // Marks cluster @p id dirty (-1: the first cluster). @p from > 0 says the
  // changes in it all lie at or after that position, inside its one
  // interval; 0 says it must be walked whole. @p at is the position of the
  // change, when one caused the mark.
  void mark(std::int32_t id, std::size_t from = 0, std::size_t at = kNever) {
    if (id < 0) {
      id = head_;
      from = 0;
    }
    if (id < 0) {
      dirty_all_ = true;
      return;
    }
    Cluster& c = cl_[id];
    if (c.dirty) {
      c.from = c.from == 0 || from == 0 ? 0 : std::min(c.from, from);
      c.at = std::min(c.at, at);
      return;
    }
    c.dirty = true;
    c.from = from;
    c.at = at;
    dirty_.push_back(id);
  }

  std::int32_t alloc() {
    std::int32_t id;
    if (reuse_ >= 0) {
      id = reuse_;
      reuse_ = -1;
    } else if (!free_.empty()) {
      id = free_.back();
      free_.pop_back();
    } else {
      id = static_cast<std::int32_t>(cl_.size());
      cl_.emplace_back();
    }
    Cluster& c = cl_[id];
    const std::uint32_t version = c.version + 1;
    c = Cluster{};
    c.version = version;
    c.alive = true;
    return id;
  }

  void release(std::int32_t id) {
    cl_[id].alive = false;
    free_.push_back(id);
  }

  // Growing figure of cluster c with its top at event j.
  Trapezoid figure_at(std::int32_t c, std::size_t j) const {
    const Cluster& k = cl_[c];
    if (!k.quiet) return k.t;
    return Trapezoid{k.t.y0, ys_[j], k.t.xl0, k.t.xr0, lines_[k.lseg].round(ys_[j]),
                     lines_[k.rseg].round(ys_[j])};
  }

  BandInterval interval(std::int32_t c, std::size_t e) const {
    const Cluster& k = cl_[c];
    if (k.evaluated == e) return k.iv;
    const Line& l = lines_[k.lseg];
    const Line& r = lines_[k.rseg];
    return BandInterval{l.round(ys_[e]), r.round(ys_[e]), l.round(ys_[e + 1]),
                        r.round(ys_[e + 1]), static_cast<std::int32_t>(k.lseg),
                        static_cast<std::int32_t>(k.rseg)};
  }

  void flush_closed() {
    std::sort(closed_.begin(), closed_.end(),
              [](const Closed& a, const Closed& b) { return a.seq < b.seq; });
    for (const Closed& c : closed_) merged_->push_back(c.t);
  }

  void event(std::size_t e);
  void settle_touches();
  void reevaluate(std::int32_t left, std::int32_t right, std::size_t e, std::size_t from,
                  std::size_t hint);

  const std::vector<Line> lines_;
  const std::vector<Coord> ys_;
  const BoolOp op_;
  std::vector<char> full_, cross_;
  const std::vector<std::uint32_t> ends_;  // per event: the segments ending at its y
  std::vector<std::uint32_t> order_;
  std::vector<Coord> order_hiy_;  // top y of each entry of order_
  std::vector<std::int32_t> wa_, wb_;  // prefix winding after each entry
  // Per entry: 2 * id of the cluster whose sides enclose it, 2 * id + 1 of
  // the nearest cluster left of it, or -1 when there is none.
  std::vector<std::int32_t> owner_;
  std::vector<Cluster> cl_;
  std::vector<std::int32_t> free_;
  std::int32_t head_ = -1;
  std::int32_t reuse_ = -1;  // the cluster whose id the next alloc() keeps
  std::size_t live_ = 0;
  std::uint32_t next_seg_ = 0;
  std::uint64_t next_seq_ = 0;
  bool dirty_all_ = false, dirty_all_next_ = false;
  std::vector<std::int32_t> due_head_;  // per event: its first Due in due_pool_
  std::vector<Due> due_pool_;
  std::int32_t due_free_ = -1;
  std::vector<Trapezoid>* merged_ = nullptr;
  // Per-event scratch.
  struct Touch {
    std::size_t pos;    // final position of the entry a change lies before
    std::int32_t seg;   // the removed segment, or -1 for an inserted entry at pos
  };
  std::vector<std::uint32_t> removed_;
  std::vector<std::size_t> gaps_, ins_;
  std::vector<Touch> touches_;
  std::vector<std::pair<std::int32_t, std::size_t>> marks_;  // (cluster, change position)
  std::vector<std::uint32_t> fresh_;
  std::vector<std::int32_t> dirty_, olds_, growing_;
  std::vector<Span> spans_, kept_;
  std::vector<Closed> closed_;
};

[[gnu::noinline, gnu::aligned(64)]] void OpenSweep::event(std::size_t e) {
  const Coord y0 = ys_[e];
  const Coord y1 = ys_[e + 1];
  bool full = full_[e] != 0;

  // Remove the segments that end at y0: one pass over their top ys.
  removed_.clear();
  gaps_.clear();
  if (ends_[e] > 0) {
    // Each ending entry is found by its top y; the runs between them move
    // down, and the search stops once every ending segment is out.
    const std::size_t n = order_.size();
    std::size_t kept = 0, from = 0;
    while (removed_.size() < ends_[e]) {
      const std::size_t at = static_cast<std::size_t>(
          std::find(order_hiy_.begin() + static_cast<std::ptrdiff_t>(from), order_hiy_.end(), y0) -
          order_hiy_.begin());
      ensures(at < n, "sweep: ending segment not in order");
      std::copy(order_.begin() + static_cast<std::ptrdiff_t>(from),
                order_.begin() + static_cast<std::ptrdiff_t>(at),
                order_.begin() + static_cast<std::ptrdiff_t>(kept));
      std::copy(order_hiy_.begin() + static_cast<std::ptrdiff_t>(from),
                order_hiy_.begin() + static_cast<std::ptrdiff_t>(at),
                order_hiy_.begin() + static_cast<std::ptrdiff_t>(kept));
      kept += at - from;
      removed_.push_back(order_[at]);
      gaps_.push_back(kept);
      from = at + 1;
    }
    std::copy(order_.begin() + static_cast<std::ptrdiff_t>(from), order_.end(),
              order_.begin() + static_cast<std::ptrdiff_t>(kept));
    std::copy(order_hiy_.begin() + static_cast<std::ptrdiff_t>(from), order_hiy_.end(),
              order_hiy_.begin() + static_cast<std::ptrdiff_t>(kept));
    kept += n - from;
    order_.resize(kept);
    order_hiy_.resize(kept);
    // Entries a removal made adjacent can meet the new band inverted.
    for (const std::size_t g : gaps_)
      if (g > 0 && g < kept && !before(order_[g - 1], order_[g], y0, y1)) full = true;
  }
  if (full) {
    // Residual crossings: repair the whole order by insertion. A strict
    // total order has one sorted permutation.
    for (std::size_t i = 1; i < order_.size(); ++i) {
      if (!before(order_[i], order_[i - 1], y0, y1)) continue;
      const std::uint32_t s = order_[i];
      std::size_t j = i;
      do {
        order_[j] = order_[j - 1];
        --j;
      } while (j > 0 && before(s, order_[j - 1], y0, y1));
      order_[j] = s;
    }
    for (std::size_t i = 0; i < order_.size(); ++i) order_hiy_[i] = lines_[order_[i]].hiy;
  }

  // Insert the segments that start at y0, each by binary search.
  fresh_.clear();
  for (; next_seg_ < lines_.size() && lines_[next_seg_].loy <= y0; ++next_seg_)
    fresh_.push_back(next_seg_);
  ins_.clear();
  if (!fresh_.empty()) {
    const auto by_band = [&](std::uint32_t a, std::uint32_t b) { return before(a, b, y0, y1); };
    std::sort(fresh_.begin(), fresh_.end(), by_band);
    auto from = order_.begin();
    for (const std::uint32_t s : fresh_) {
      from = std::lower_bound(from, order_.end(), s, by_band);
      ins_.push_back(static_cast<std::size_t>(from - order_.begin()));
    }
    std::size_t end = order_.size();
    order_.resize(end + fresh_.size());
    order_hiy_.resize(end + fresh_.size());
    for (std::size_t i = fresh_.size(); i-- > 0;) {
      const auto at = static_cast<std::ptrdiff_t>(ins_[i]);
      const auto to = static_cast<std::ptrdiff_t>(end + i + 1);
      std::copy_backward(order_.begin() + at, order_.begin() + static_cast<std::ptrdiff_t>(end),
                         order_.begin() + to);
      std::copy_backward(order_hiy_.begin() + at,
                         order_hiy_.begin() + static_cast<std::ptrdiff_t>(end),
                         order_hiy_.begin() + to);
      order_[ins_[i] + i] = fresh_[i];
      order_hiy_[ins_[i] + i] = lines_[fresh_[i]].hiy;
      end = ins_[i];
    }
  }

  // Crossings of the entries that became adjacent.
  const std::size_t n = order_.size();
  if (full) {
    for (std::size_t p = 1; p < n; ++p) note_crossing(order_[p - 1], order_[p], e);
  } else {
    for (std::size_t i = 0; i < ins_.size(); ++i) {
      const std::size_t p = ins_[i] + i;
      if (p > 0) note_crossing(order_[p - 1], order_[p], e);
      if (p + 1 < n) note_crossing(order_[p], order_[p + 1], e);
    }
    for (const std::size_t g : gaps_) {
      const std::size_t p =
          g + static_cast<std::size_t>(std::upper_bound(ins_.begin(), ins_.end(), g) - ins_.begin());
      if (p > 0 && p < n) note_crossing(order_[p - 1], order_[p], e);
    }
  }
  const bool whole = full || cross_[e] || dirty_all_;
  if (!whole) {
    touches_.clear();
    for (std::size_t k = 0; k < gaps_.size(); ++k) {
      const std::size_t g = gaps_[k];
      touches_.push_back({g + static_cast<std::size_t>(
                                  std::upper_bound(ins_.begin(), ins_.end(), g) - ins_.begin()),
                          static_cast<std::int32_t>(removed_[k])});
    }
    for (std::size_t i = 0; i < ins_.size(); ++i) touches_.push_back({ins_[i] + i, -1});
    std::sort(touches_.begin(), touches_.end(),
              [](const Touch& a, const Touch& b) { return a.pos < b.pos; });
    settle_touches();
  }

  for (std::int32_t node = due_head_[e]; node >= 0;) {
    const Due d = due_pool_[node];
    if (cl_[d.id].alive && cl_[d.id].version == d.version) mark(d.id);
    due_pool_[node].next = due_free_;
    due_free_ = node;
    node = d.next;
  }
  closed_.clear();
  if (whole || dirty_all_) {
    for (const std::int32_t id : dirty_) cl_[id].dirty = false;
    reevaluate(-1, -1, e, 0, kNever);
  } else if (!dirty_.empty()) {
    // Runs left to right: a run's winding change can only move right.
    const Coord yp = ys_[e - 1];
    std::sort(dirty_.begin(), dirty_.end(), [&](std::int32_t a, std::int32_t b) {
      return before(cl_[a].lseg, cl_[b].lseg, yp, y0);
    });
    for (const std::int32_t id : dirty_) {
      if (!cl_[id].alive || !cl_[id].dirty) continue;
      std::int32_t right = cl_[id].next;
      while (right >= 0 && cl_[right].dirty) right = cl_[right].next;
      reevaluate(cl_[id].prev, right, e, cl_[id].quiet ? cl_[id].from : 0, cl_[id].at);
    }
  }
  dirty_.clear();
  dirty_all_ = dirty_all_next_;
  dirty_all_next_ = false;
  if (merged_) flush_closed();
}

// Settles the event's removals and insertions. From each change the winding
// is re-walked until it meets the stored one at an unchanged entry. When the
// walk stays inside, before and after the change, and every removed entry
// was inside on both sides, no interval gains or loses a side, so only the
// stored windings change; otherwise the clusters holding the changes are
// marked dirty.
void OpenSweep::settle_touches() {
  const std::size_t n = order_.size();
  std::size_t t = 0;
  while (t < touches_.size()) {
    const std::size_t p = touches_[t].pos;
    int wa = p > 0 ? wa_[order_[p - 1]] : 0;
    int wb = p > 0 ? wb_[order_[p - 1]] : 0;
    const std::int32_t first_owner = p > 0 ? owner_[order_[p - 1]] : -1;
    std::int32_t own = first_owner >> 1;
    bool interior = inside_for(op_, wa, wb);
    marks_.clear();
    std::size_t q = p;
    for (;; ++q) {
      bool inserted = false;
      for (; t < touches_.size() && touches_[t].pos <= q; ++t) {
        const std::int32_t r = touches_[t].seg;
        if (r < 0) {
          inserted = true;
          marks_.push_back({own, q});
          continue;
        }
        marks_.push_back({owner_[r] >> 1, q});
        const Line& l = lines_[r];
        const int ba = wa_[r] - (l.group == 0 ? l.weight : 0);
        const int bb = wb_[r] - (l.group == 0 ? 0 : l.weight);
        if (!inside_for(op_, wa_[r], wb_[r]) || !inside_for(op_, ba, bb)) interior = false;
      }
      if (q >= n) break;
      const std::uint32_t s = order_[q];
      const Line& l = lines_[s];
      if (l.group == 0) wa += l.weight; else wb += l.weight;
      if (!inside_for(op_, wa, wb)) interior = false;
      if (!inserted) {
        // An old entry that was outside on its right was an interval side.
        if (!inside_for(op_, wa_[s], wb_[s])) interior = false;
        own = owner_[s] >> 1;
        if (wa == wa_[s] && wb == wb_[s] && (t == touches_.size() || touches_[t].pos > q)) break;
      }
    }
    if (!interior) {
      // A walk that began inside a cluster's one interval (not inside a
      // sliver in its gap) can re-walk that cluster from p on.
      const std::int32_t trim = first_owner >= 0 && (first_owner & 1) == 0 &&
                                        inside_for(op_, wa_[order_[p - 1]], wb_[order_[p - 1]])
                                    ? first_owner >> 1
                                    : -1;
      for (const auto& [id, at] : marks_) mark(id, id == trim ? p : 0, at);
      continue;
    }
    // Inside one interval throughout: store the new windings.
    wa = wa_[order_[p - 1]];
    wb = wb_[order_[p - 1]];
    for (std::size_t i = p; i < q; ++i) {
      const std::uint32_t s = order_[i];
      const Line& l = lines_[s];
      if (l.group == 0) wa += l.weight; else wb += l.weight;
      wa_[s] = wa;
      wb_[s] = wb;
      owner_[s] = first_owner;
    }
  }
}

// Re-walks the entries strictly between clean clusters @p left and @p right
// (-1: the end of the order) and replaces the clusters between them. With
// @p from > 0 the first of them is a quiet cluster whose one interval holds
// every change at or after position @p from: the walk starts there, inside
// that interval, and the new cluster that keeps its left side keeps its id
// (and so the owners of the entries before @p from).
void OpenSweep::reevaluate(std::int32_t left, std::int32_t right, std::size_t e,
                           std::size_t from, std::size_t hint) {
  const Coord y0 = ys_[e];
  const Coord y1 = ys_[e + 1];
  std::size_t begin = 0, p = 0;
  int wa = 0, wb = 0;
  bool sliver_first = false;
  Span cur{};
  const auto restart = [&] {
    spans_.clear();
    if (from > 0) {
      const std::int32_t first = left < 0 ? head_ : cl_[left].next;
      const std::uint32_t s = cl_[first].lseg;
      const Line& l = lines_[s];
      begin = p = from;
      wa = wa_[order_[from - 1]];
      wb = wb_[order_[from - 1]];
      cur.iv.xl0 = l.round(y0);
      cur.iv.xl1 = l.round(y1);
      cur.iv.left_seg = static_cast<std::int32_t>(s);
      cur.lseg = s;
      cur.lpos = 0;
      reuse_ = first;
      return;
    }
    reuse_ = -1;
    begin = p = left < 0 ? 0 : start_after(cl_[left].rseg, hint, e);
    wa = left < 0 ? 0 : wa_[cl_[left].rseg];
    wb = left < 0 ? 0 : wb_[cl_[left].rseg];
  };
  // Takes in the clean cluster right of the run, and any dirty run after it.
  const auto grow_right = [&] {
    right = cl_[right].next;
    while (right >= 0 && cl_[right].dirty) right = cl_[right].next;
  };
  std::size_t end = 0;
  restart();
  for (;;) {
    // Walk to the clean cluster's left side (or the end of the order).
    const std::uint32_t stop = right < 0 ? kNoSeg : cl_[right].lseg;
    for (; p < order_.size() && order_[p] != stop; ++p) {
      const std::uint32_t s = order_[p];
      const Line& l = lines_[s];
      const bool was_inside = inside_for(op_, wa, wb);
      if (l.group == 0) wa += l.weight; else wb += l.weight;
      wa_[s] = wa;
      wb_[s] = wb;
      const bool now_inside = inside_for(op_, wa, wb);
      if (!was_inside && now_inside) {
        cur.iv.xl0 = l.round(y0);
        cur.iv.xl1 = l.round(y1);
        cur.iv.left_seg = static_cast<std::int32_t>(s);
        cur.lseg = s;
        cur.lpos = p;
      } else if (was_inside && !now_inside) {
        cur.iv.xr0 = l.round(y0);
        cur.iv.xr1 = l.round(y1);
        cur.iv.right_seg = static_cast<std::int32_t>(s);
        cur.rseg = s;
        cur.rpos = p;
        spans_.push_back(cur);
      }
    }
    end = p;
    if (right >= 0) {
      // Converged when the winding meets the stored one at the clean cluster.
      const std::uint32_t s = cl_[right].lseg;
      const Line& l = lines_[s];
      const int before_a = wa_[s] - (l.group == 0 ? l.weight : 0);
      const int before_b = wb_[s] - (l.group == 0 ? 0 : l.weight);
      if (wa != before_a || wb != before_b) {
        grow_right();
        continue;
      }
    } else {
      ensures(wa == 0 && wb == 0, "winding must return to zero at band end");
    }

    // Coalesce intervals that the grid cannot keep apart:
    //  - zero-gap at both ends (they form one figure);
    //  - strict overlap at either end. Strict overlaps arise from residual
    //    sub-band crossings: when an intersection point rounds onto a
    //    segment endpoint's y, the crossing cannot be split on the grid and
    //    the two inside intervals interleave. The union of such intervals is
    //    connected almost everywhere in the band, so merging is the
    //    area-faithful repair (error is a sub-dbu-height sliver).
    // Measure-zero slivers are dropped.
    kept_.clear();
    sliver_first = false;
    for (const Span& sp : spans_) {
      const BandInterval& iv = sp.iv;
      if (iv.xl0 == iv.xr0 && iv.xl1 == iv.xr1) {
        if (kept_.empty()) sliver_first = true; else kept_.back().sliver_after = true;
        continue;
      }
      if (!kept_.empty()) {
        Span& prev = kept_.back();
        const bool touch_both = prev.iv.xr0 >= iv.xl0 && prev.iv.xr1 >= iv.xl1;
        const bool overlap_any = prev.iv.xr0 > iv.xl0 || prev.iv.xr1 > iv.xl1;
        if (touch_both || overlap_any) {
          prev.iv.xr0 = std::max(prev.iv.xr0, iv.xr0);
          prev.iv.xr1 = std::max(prev.iv.xr1, iv.xr1);
          prev.iv.right_seg = -1;  // repaired boundary: no single support segment
          prev.rseg = sp.rseg;
          prev.rpos = sp.rpos;
          ++prev.raws;
          continue;
        }
      }
      kept_.push_back(sp);
    }
    if (from > 0 && (kept_.empty() || kept_.front().lseg != cl_[reuse_].lseg)) {
      // The kept side became part of a sliver: walk the run whole.
      from = 0;
      restart();
      continue;
    }
    // A near gap to a clean neighbour can coalesce across the run's edge.
    if (left >= 0 && (kept_.empty() ? right >= 0 && is_near(cl_[left].rseg, cl_[right].lseg, e)
                                    : is_near(cl_[left].rseg, kept_.front().lseg, e))) {
      if (kept_.empty()) {
        grow_right();
        continue;
      }
      left = cl_[left].prev;
      from = 0;
      restart();
      continue;
    }
    if (right >= 0 && !kept_.empty() && is_near(kept_.back().rseg, cl_[right].lseg, e)) {
      grow_right();
      continue;
    }
    break;
  }

  // Match the run's old figures to the new intervals as the vertical merge
  // of the bands did: in opening order, each extends into the first unused
  // interval that continues it (same side segments, or equal edges and
  // collinear sides, not inverted at the top) or closes.
  olds_.clear();
  for (std::int32_t c = left < 0 ? head_ : cl_[left].next; c != right; c = cl_[c].next)
    olds_.push_back(c);
  const std::size_t nkept = kept_.size();
  growing_.clear();
  for (const std::int32_t c : olds_)
    if (cl_[c].open) growing_.push_back(c);
  std::sort(growing_.begin(), growing_.end(),
            [&](std::int32_t a, std::int32_t b) { return cl_[a].seq < cl_[b].seq; });
  for (const std::int32_t c : growing_) {
    const Trapezoid g = figure_at(c, e);
    const Cluster& k = cl_[c];
    const auto run = std::lower_bound(kept_.begin(), kept_.end(), g.xl1,
                                      [](const Span& sp, Coord x) { return sp.iv.xl0 < x; });
    bool extended = false;
    for (auto it = run; it != kept_.end() && it->iv.xl0 == g.xl1; ++it) {
      Span& sp = *it;
      if (sp.open) continue;
      const BandInterval& iv = sp.iv;
      const bool same_segs = k.gl >= 0 && k.gl == iv.left_seg && k.gr >= 0 && k.gr == iv.right_seg;
      if (iv.xr0 != g.xr1) continue;
      if (!same_segs && !collinear_sides(g, Trapezoid{y0, y1, iv.xl0, iv.xr0, iv.xl1, iv.xr1}))
        continue;
      // A residual crossing can leave iv inverted at the top (xl1 > xr1).
      // Such an interval is no figure; g stops below it.
      if (iv.xl1 > iv.xr1) continue;
      sp.open = true;
      sp.t = Trapezoid{g.y0, y1, g.xl0, g.xr0, iv.xl1, iv.xr1};
      sp.gl = same_segs ? k.gl : -1;
      sp.gr = same_segs ? k.gr : -1;
      sp.seq = k.seq;
      extended = true;
      break;
    }
    if (!extended && merged_) closed_.push_back({k.seq, g});
  }
  // The rest open in x order.
  for (Span& sp : kept_) {
    if (sp.open) continue;
    sp.t = Trapezoid{y0, y1, sp.iv.xl0, sp.iv.xr0, sp.iv.xl1, sp.iv.xr1};
    if (!sp.t.valid()) continue;
    sp.open = true;
    sp.gl = sp.iv.left_seg;
    sp.gr = sp.iv.right_seg;
    sp.seq = next_seq_++;
  }

  // Replace the run's clusters.
  for (const std::int32_t c : olds_)
    if (c != reuse_) release(c);
  live_ += nkept - olds_.size();
  std::int32_t prev = left;
  for (Span& sp : kept_) {
    sp.id = alloc();
    Cluster& c = cl_[sp.id];
    c.lseg = sp.lseg;
    c.rseg = sp.rseg;
    c.iv = sp.iv;
    c.evaluated = e;
    c.open = sp.open;
    c.t = sp.t;
    c.gl = sp.gl;
    c.gr = sp.gr;
    c.seq = sp.seq;
    c.prev = prev;
    if (prev >= 0) cl_[prev].next = sp.id; else head_ = sp.id;
    prev = sp.id;
  }
  if (prev >= 0) cl_[prev].next = right; else head_ = right;
  if (right >= 0) cl_[right].prev = prev;

  // Owners of the walked entries.
  {
    const Span* in = nullptr;
    std::size_t i = 0;
    for (std::size_t q = begin; q < end; ++q) {
      while (i < nkept && kept_[i].lpos <= q) in = &kept_[i++];
      owner_[order_[q]] = in ? 2 * in->id + (q > in->rpos) : left < 0 ? -1 : 2 * left + 1;
    }
  }

  // Quiet clusters wait for their first near gap; the others, and the
  // neighbours of a sliver, are due at the next event. Gap i lies left of
  // kept_[i]; the outer gaps are not near, or the run would have grown.
  for (std::size_t i = 0; i < nkept; ++i) {
    Span& sp = kept_[i];
    const Line& ll = lines_[sp.lseg];
    const Line& lr = lines_[sp.rseg];
    const bool sides = (sp.gl == static_cast<std::int32_t>(sp.lseg) &&
                        sp.gr == static_cast<std::int32_t>(sp.rseg)) ||
                       (ll.dx == 0 && lr.dx == 0 && sp.t.xl0 == sp.t.xl1 && sp.t.xr0 == sp.t.xr1);
    sp.quiet = !cross_[e] && sp.open && sp.raws == 1 && sides && !sp.sliver_after &&
               !(i == 0 && sliver_first) && !is_near(sp.lseg, sp.rseg, e);
    sp.gap_near = i > 0 && is_near(kept_[i - 1].rseg, sp.lseg, e);
  }
  for (std::size_t i = 0; i < nkept; ++i) {
    Span& sp = kept_[i];
    Cluster& c = cl_[sp.id];
    c.quiet = sp.quiet && !sp.gap_near && !(i + 1 < nkept && kept_[i + 1].gap_near);
    std::size_t due = e + 1;
    if (c.quiet) {
      due = near_start(c.lseg, c.rseg, e);
      const bool has_l = i > 0 || left >= 0;
      const bool has_r = i + 1 < nkept || right >= 0;
      if (has_l)
        due = std::min(due, i > 0 ? kept_[i].gap_due : near_start(cl_[left].rseg, c.lseg, e));
      if (has_r) {
        const std::size_t gap_due = i + 1 < nkept ? near_start(c.rseg, kept_[i + 1].lseg, e)
                                                  : near_start(c.rseg, cl_[right].lseg, e);
        if (i + 1 < nkept) kept_[i + 1].gap_due = gap_due;
        due = std::min(due, gap_due);
      }
    }
    if (due != kNever) schedule(due, sp.id);
  }
  if (nkept == 0) {
    if (sliver_first) {
      const std::int32_t anchor = left >= 0 ? left : right;
      if (anchor >= 0) schedule(e + 1, anchor);
      else dirty_all_next_ = true;
    } else if (left >= 0 && right >= 0) {
      const std::size_t due = near_start(cl_[left].rseg, cl_[right].lseg, e);
      if (due != kNever) schedule(due, left);
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

// Sorts @p segs by (lo.y, lo.x). The sort runs on indices over packed keys:
// std::sort's moves depend only on its comparisons, so the permutation is
// the one a sort of the segments themselves gives, with 4-byte moves.
void BooleanEngine::sort_by_lo(std::vector<Seg>& segs) {
  const auto key = [](Point p) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.y) ^ 0x80000000u) << 32) |
           (static_cast<std::uint32_t>(p.x) ^ 0x80000000u);
  };
  std::vector<std::uint64_t> keys(segs.size());
  std::vector<std::uint32_t> order(segs.size());
  for (std::size_t i = 0; i < segs.size(); ++i) {
    keys[i] = key(segs[i].lo);
    order[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) { return keys[a] < keys[b]; });
  std::vector<Seg> sorted;
  sorted.reserve(segs.size());
  for (const std::uint32_t i : order) sorted.push_back(segs[i]);
  segs = std::move(sorted);
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
  // After round 0, only pairs with a piece that has an off-line endpoint are
  // tested. intersection_point is exact at lattice points, so a piece whose
  // endpoints lie on the line of the segment it was cut from is part of
  // that segment, and two such pieces meet only where their segments met
  // in the round before, at cut points both already hold.
  std::vector<char> tested;

  constexpr int kMaxRounds = 32;
  for (int round = 0; round < kMaxRounds; ++round) {
    stats.split_rounds = static_cast<std::size_t>(round);
    sort_by_lo(segs);
    if (round > 0) {
      tested.assign(segs.size(), 0);
      bool any = false;
      for (std::size_t i = 0; i < segs.size(); ++i) {
        tested[i] = segs[i].off_line;
        any = any || segs[i].off_line;
      }
      if (!any) {
        stats.split_edges = segs.size();
        return segs;
      }
    }

    std::vector<Box> boxes;
    boxes.reserve(segs.size());
    for (const Seg& s : segs) boxes.push_back(Box{s.lo, s.hi});
    // i < j in the (lo.y, lo.x) order: intersection_point rounds relative to
    // its first edge, so the argument order is part of the cut set.
    const auto part_cuts = for_each_touching_pair<Cut>(
        boxes, tested, parts, threads, [&](std::size_t i, std::size_t j, std::vector<Cut>& cuts) {
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
        next.push_back({s.lo, s.hi, s.weight, s.group, false});
        continue;
      }
      const auto cs = cut_points.begin() + first[i];
      auto ce = cut_points.begin() + first[i + 1];
      std::sort(cs, ce, [](Point a, Point b) { return a.y != b.y ? a.y < b.y : a.x < b.x; });
      ce = std::unique(cs, ce);
      const Coord64 dx = Coord64(s.hi.x) - s.lo.x;
      const Coord64 dy = Coord64(s.hi.y) - s.lo.y;
      Point prev = s.lo;
      bool prev_off = false;
      for (auto c = cs; c != ce; ++c) {
        const bool off = Wide(dx) * (Coord64(c->y) - s.lo.y) != Wide(dy) * (Coord64(c->x) - s.lo.x);
        if (c->y > prev.y) next.push_back({prev, *c, s.weight, s.group, prev_off || off});
        if (c->y >= prev.y) {  // horizontal residue is dropped
          prev = *c;
          prev_off = off;
        }
      }
      if (s.hi.y > prev.y) next.push_back({prev, s.hi, s.weight, s.group, prev_off});
    }
    segs = std::move(next);
  }
  throw DataError("BooleanEngine: edge splitting did not reach a fixpoint");
}

void BooleanEngine::sweep(BoolOp op, int threads, std::size_t parts,
                          const std::function<void(Band&)>* band,
                          std::vector<Trapezoid>* merged) const {
  threads = resolve_threads(threads);
  BooleanStats stats;
  std::vector<Line> lines;
  std::vector<Coord> ys;
  std::vector<std::uint32_t> ends;
  {
    std::vector<Seg> segs = split_segments(threads, parts, stats);
    stats_ = stats;
    if (segs.empty()) return;

    // Segments sorted by lo.y for activation in order; a segment's id in
    // the sweep is its place in that order. The event ys (every segment
    // endpoint) merge their lo.ys, now in order, with their hi.ys sorted on
    // the side; the two sorts run side by side.
    std::vector<Coord> his(segs.size());
    for (std::size_t i = 0; i < segs.size(); ++i) his[i] = segs[i].hi.y;
    // The segments' order is sorted as indices: std::sort's moves depend
    // only on its comparisons, so this is the permutation a sort of the
    // segments themselves gives, and it moves 4 bytes per element, not 20.
    std::vector<Coord> los(segs.size());
    for (std::size_t i = 0; i < segs.size(); ++i) los[i] = segs[i].lo.y;
    std::vector<std::uint32_t> order(segs.size());
    for (std::size_t i = 0; i < segs.size(); ++i) order[i] = static_cast<std::uint32_t>(i);
    parallel_for(2, [&](std::size_t begin, std::size_t end) {
      for (std::size_t task = begin; task < end; ++task) {
        if (task == 0) {
          std::sort(order.begin(), order.end(),
                    [&](std::uint32_t a, std::uint32_t b) { return los[a] < los[b]; });
        } else {
          std::sort(his.begin(), his.end());
        }
      }
    }, threads);
    ys.reserve(segs.size() * 2);
    for (std::size_t i = 0, j = 0; i < segs.size() || j < his.size();) {
      const bool lo = j == his.size() || (i < segs.size() && los[order[i]] <= his[j]);
      const Coord y = lo ? los[order[i++]] : his[j++];
      if (ys.empty() || ys.back() != y) {
        ys.push_back(y);
        ends.push_back(0);
      }
      if (!lo) ++ends.back();
    }
    lines.reserve(segs.size());
    constexpr Coord64 kSmall = Coord64{1} << 30;
    for (const std::uint32_t i : order) {
      const Seg& s = segs[i];
      const Coord64 dx = Coord64(s.hi.x) - s.lo.x;
      const Coord64 dy = Coord64(s.hi.y) - s.lo.y;
      const bool small = std::abs(Coord64(s.lo.x)) < kSmall && std::abs(dx) < kSmall && dy < kSmall;
      lines.push_back(Line{dx, s.lo.x, s.lo.y, s.hi.y,
                           dx == 0 ? 1u : static_cast<std::uint32_t>(dy), s.weight, s.group,
                           small});
    }
  }
  OpenSweep(std::move(lines), std::move(ys), std::move(ends), op).run(band, merged, stats);
  stats_ = stats;
}

std::vector<Band> BooleanEngine::sweep_bands(BoolOp op, int threads, std::size_t parts) const {
  std::vector<Band> result;
  const std::function<void(Band&)> take = [&](Band& b) { result.push_back(std::move(b)); };
  sweep(op, threads, parts, &take, nullptr);
  return result;
}

std::vector<Trapezoid> BooleanEngine::sweep_trapezoids(BoolOp op, bool merge_vertical,
                                                       int threads, std::size_t parts) const {
  std::vector<Trapezoid> traps;
  if (merge_vertical) {
    sweep(op, threads, parts, nullptr, &traps);
  } else {
    const std::function<void(Band&)> take = [&](Band& b) { append_band_trapezoids(b, traps); };
    sweep(op, threads, parts, &take, nullptr);
  }
  return traps;
}

std::vector<Band> BooleanEngine::bands(BoolOp op, int threads) const {
  return sweep_bands(op, threads, 0);
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

std::vector<Trapezoid> BooleanEngine::trapezoids(BoolOp op, bool merge_vertical,
                                                 int threads) const {
  return sweep_trapezoids(op, merge_vertical, threads, 0);
}

std::vector<Polygon> BooleanEngine::polygons(BoolOp op, int threads) const {
  return stitch_bands(bands(op, threads));
}

}  // namespace ebl
