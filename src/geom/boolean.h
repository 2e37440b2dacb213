// Scanline boolean engine on integer polygons.
//
// The engine implements AND / OR / XOR / ANDNOT between two groups of
// polygons using a band-decomposition scanline:
//
//   1. Polygon edges are collected as weighted segments (weight encodes the
//      original direction so winding numbers are exact; horizontal edges only
//      contribute scanline events).
//   2. Segments are split at all mutual crossings and T-junctions with exact
//      integer predicates; intersection points are rounded to the database
//      grid and splitting is iterated to a fixpoint (grid snapping).
//      Candidate pairs come from a uniform grid over the segment bboxes
//      (cells a power of two about one mean segment wide, coarsened until
//      the cover list is O(segments)); each touching pair is tested once, in
//      the cell holding the min corner of the bboxes' intersection, as
//      (i, j) with i < j in (lo.y, lo.x) order, because the rounded cut
//      point depends on the argument order. Round 0 tests every pair, its
//      grid rows in parallel parts of about equal pair work. A later round
//      tests only pairs with a piece that has an endpoint rounded off the
//      line of the segment it was cut from (intersection_point is exact at
//      lattice points, so two other pieces meet only where their segments
//      already met), and ends at once when there is none; each piece looks
//      up those pieces on their own grid, in parallel parts. Each part
//      collects (segment, point) cuts, which are gathered per segment by
//      count -> scan -> fill and sorted and deduplicated there, so the cut
//      set does not depend on the part count.
//   3. One sweep over the y events (every segment endpoint) orders the (now
//      crossing-free) segments exactly by rational x and accumulates
//      per-group winding numbers. The active segments stay in the strict
//      (x@y0, x@y1, segment id) order of the band above the event; maximal
//      inside intervals, coalesced where the grid cannot keep them apart,
//      are the band's intervals, and each holds one open trapezoid: the
//      figure a vertical merge of the bands would grow there. An event
//      removes the segments that end, inserts the ones that start by binary
//      search, and re-walks the winding only from each change until it
//      meets the stored winding again; a change inside an interval that
//      moves no side costs that walk alone. Only the intervals a change
//      touched, widened to neighbours within one dbu (which rounding can
//      coalesce), are rebuilt: their figures extend, close or open exactly
//      as the merge would decide, and figures closed at one event come out
//      in the order they opened. An untouched interval is revisited only
//      from the first band where one of its sides comes within one dbu of
//      another (or at every band, while it is coalesced, repaired or next
//      to a sliver). Residual crossings, pieces that still cross after the
//      snap, are found when two entries become adjacent; the bands around
//      one are re-evaluated whole, with an insertion repair of the order.
//      bands(), trapezoids() with and without the merge, polygons() and
//      stats() all read this one sweep.
//
// Step 2 runs on the thread count each query is given (0 = auto, as
// resolve_threads); below a small amount of work it runs as one part on the
// calling thread. Step 3 runs on the calling thread. Every output and
// stats() are the same bits for any thread count.
//
// The native output is a set of trapezoid bands — the primitive e-beam
// machine formats want anyway. Polygon reconstruction (boundary stitching)
// is layered on top in stitch.cpp.
//
// All comparisons in steps 2 and 3 are exact (int128); the only rounding is
// the snap of derived coordinates to the integer grid, which is the standard
// EDA convention ("all geometry is on the database grid", <= 1 dbu error).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "geom/polygon.h"
#include "geom/trapezoid.h"

namespace ebl {

/// Boolean operation between group 0 (A) and group 1 (B).
/// The inside rule per group is nonzero winding.
enum class BoolOp : std::uint8_t {
  Or,      ///< A ∪ B (also used as the single-set merge)
  And,     ///< A ∩ B
  Sub,     ///< A \ B
  Xor,     ///< (A \ B) ∪ (B \ A)
};

/// One maximal inside interval of a band, with integer (grid-snapped)
/// x-coordinates at the band bottom (y0) and top (y1).
struct BandInterval {
  Coord xl0, xr0;  ///< left/right x at band bottom
  Coord xl1, xr1;  ///< left/right x at band top
  /// Supporting (split-)segment ids of the left/right boundary within one
  /// engine run; -1 when unknown. The merged trapezoids use them to reunite
  /// figures that a foreign event y split, which removes the grid rounding
  /// of the intermediate boundary.
  std::int32_t left_seg = -1;
  std::int32_t right_seg = -1;
};

/// One horizontal band of the decomposition.
struct Band {
  Coord y0, y1;
  std::vector<BandInterval> intervals;  ///< sorted left to right, disjoint
};

/// Statistics of one engine run, for the T4 benchmark.
struct BooleanStats {
  std::size_t input_edges = 0;      ///< non-horizontal segments collected
  std::size_t split_edges = 0;      ///< segments after crossing subdivision
  std::size_t split_rounds = 0;     ///< splitting rounds that cut
  std::size_t bands = 0;            ///< bands with an inside interval
  std::size_t intervals = 0;        ///< inside intervals over all bands (= raw trapezoids)
};

class BooleanEngine;

namespace detail {
/// Test entry points of BooleanEngine::bands and ::trapezoids: the same
/// engine with the crossing split's pair-test part count fixed at @p pieces
/// (clamped to the grid rows, or to the pieces in a later round) instead of
/// picked from the thread count and the work. Every choice gives the same
/// bits, and stats() reads as after the public call.
std::vector<Band> boolean_bands_forced(const BooleanEngine& eng, BoolOp op, int threads,
                                       std::size_t pieces);
std::vector<Trapezoid> boolean_trapezoids_forced(const BooleanEngine& eng, BoolOp op,
                                                 bool merge_vertical, int threads,
                                                 std::size_t pieces);
}  // namespace detail

/// Two-group polygon boolean engine. Add geometry, then query one result.
/// Querying does not consume the inputs; several ops may be queried.
class BooleanEngine {
 public:
  /// Adds a simple contour. Orientation is normalized to CCW, so every
  /// SimplePolygon added this way is solid; use add(const Polygon&) for
  /// holes.
  void add(const SimplePolygon& poly, int group = 0);

  /// Adds a polygon with holes (outer CCW, holes CW — normalized by
  /// Polygon itself).
  void add(const Polygon& poly, int group = 0);

  void add(const Box& box, int group = 0);

  void add(const Trapezoid& trap, int group = 0);

  /// Adds a contour preserving its given orientation (CCW adds +1 winding
  /// inside, CW adds -1). Needed by sizing, where offset contours may invert
  /// and the inverted orientation must cancel rather than be re-normalized.
  void add_raw(const SimplePolygon& contour, int group = 0);

  /// Runs the sweep and returns the band decomposition of the result.
  /// @p threads follows resolve_threads (0 = auto); the result and stats()
  /// are the same bits for any thread count.
  std::vector<Band> bands(BoolOp op, int threads = 0) const;

  /// Result as trapezoids. With @p merge_vertical, collinear trapezoids in
  /// adjacent bands are fused (fewer figures — the fracture optimization
  /// measured in bench_fracture): the sweep's open trapezoids, without the
  /// band list.
  std::vector<Trapezoid> trapezoids(BoolOp op, bool merge_vertical = true,
                                    int threads = 0) const;

  /// Result as polygons with holes (boundary stitching over the bands).
  std::vector<Polygon> polygons(BoolOp op, int threads = 0) const;

  /// Stats of the most recent bands()/trapezoids()/polygons() call.
  const BooleanStats& stats() const { return stats_; }

  bool empty() const { return segs_.empty(); }

 private:
  struct Seg {
    Point lo, hi;        // lo.y < hi.y
    std::int8_t weight;  // +1 original edge pointed up, -1 down
    std::int8_t group;   // 0 = A, 1 = B
    // Splitting: an endpoint is a cut rounded off the line of the segment
    // this piece was cut from, so the piece can gain a cut next round.
    bool off_line = false;
  };

  friend std::vector<Band> detail::boolean_bands_forced(const BooleanEngine&, BoolOp, int,
                                                        std::size_t);
  friend std::vector<Trapezoid> detail::boolean_trapezoids_forced(const BooleanEngine&, BoolOp,
                                                                  bool, int, std::size_t);

  void add_contour(const SimplePolygon& poly, int group, bool as_given);

  /// Sorts by (lo.y, lo.x), with the permutation std::sort gives.
  static void sort_by_lo(std::vector<Seg>& segs);

  /// Splits segs_ at their crossings on @p threads (resolved) in @p parts
  /// pair-test parts (0 = picked from the threads and the work).
  std::vector<Seg> split_segments(int threads, std::size_t parts, BooleanStats& stats) const;

  /// Splits the segments on @p threads (0 = auto) in @p parts pair-test
  /// parts (0 = picked from the threads and the work), sweeps them once and
  /// sets stats_. Hands each non-empty band to @p band, bottom to top, and
  /// appends the vertically merged figures to @p merged; either may be null.
  void sweep(BoolOp op, int threads, std::size_t parts, const std::function<void(Band&)>* band,
             std::vector<Trapezoid>* merged) const;
  std::vector<Band> sweep_bands(BoolOp op, int threads, std::size_t parts) const;
  std::vector<Trapezoid> sweep_trapezoids(BoolOp op, bool merge_vertical, int threads,
                                          std::size_t parts) const;

  std::vector<Seg> segs_;
  mutable BooleanStats stats_;
};

/// Flat list of per-band trapezoids without vertical merging.
std::vector<Trapezoid> band_trapezoids(const std::vector<Band>& bands);

/// Reconstructs polygons-with-holes from a band decomposition.
/// Defined in stitch.cpp.
std::vector<Polygon> stitch_bands(const std::vector<Band>& bands);

}  // namespace ebl
