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
//      (cells about one mean segment wide, coarsened until the cover list is
//      O(segments)); each touching pair is tested once, in the cell holding
//      the min corner of the bboxes' intersection, as (i, j) with i < j in
//      (lo.y, lo.x) order, because the rounded cut point depends on the
//      argument order. The grid rows run in parallel parts of about equal
//      pair work; each part collects (segment, point) cuts, which are
//      gathered per segment by count -> scan -> fill and sorted and
//      deduplicated there, so the cut set does not depend on the part count.
//   3. A sweep over the y-event bands orders the (now crossing-free) segments
//      exactly by rational x and accumulates per-group winding numbers.
//      Maximal inside intervals become horizontal trapezoids. The active
//      order is kept from band to band: ended segments retire, each
//      continuing segment's x at the band top becomes its x at the next
//      bottom, an insertion pass repairs the few inversions that residual
//      sub-band crossings leave, and new segments are merged in. The key
//      (x@y0, x@y1, segment id) is a strict total order, so it has exactly
//      one sorted permutation: the kept order is the one a full sort of
//      every band would give. That makes the sweep separable in y: the
//      bands are cut into slabs of about equal active-entry work (count ->
//      exclusive scan over segment starts and ends), each slab seeds its
//      first band with a full sort of the segments crossing its bottom, and
//      the slabs run in parallel, a wave of one slab per thread at a time.
//      Each slab counts its own bands and intervals; the calling thread
//      sums them into stats() and takes the waves' bands in order, moving
//      them into bands() or folding them into trapezoids() as they come, so
//      trapezoids() never holds the whole band list.
//
// Steps 2 and 3 run on the thread count each query is given (0 = auto, as
// resolve_threads); below a small amount of work they run as one part on
// the calling thread. Every output and stats() are the same bits for any
// thread count.
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
  /// engine run; -1 when unknown. Used by the vertical merge to reunite
  /// trapezoids that a foreign event y split, which removes the grid
  /// rounding of the intermediate boundary.
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
  std::size_t split_rounds = 0;     ///< fixpoint iterations needed
  std::size_t bands = 0;            ///< scanline bands produced
  std::size_t intervals = 0;        ///< inside intervals (= raw trapezoids)
};

class BooleanEngine;

namespace detail {
/// Test entry points of BooleanEngine::bands and ::trapezoids: the same
/// engine with the sweep's slab count and the pair tests' part count both
/// fixed at @p pieces (each clamped to [1, bands] or [1, grid rows])
/// instead of picked from the thread count and the work. Every choice gives
/// the same bits, and stats() reads as after the public call.
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
  /// measured in bench_fracture).
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
  };

  friend std::vector<Band> detail::boolean_bands_forced(const BooleanEngine&, BoolOp, int,
                                                        std::size_t);
  friend std::vector<Trapezoid> detail::boolean_trapezoids_forced(const BooleanEngine&, BoolOp,
                                                                  bool, int, std::size_t);

  void add_contour(const SimplePolygon& poly, int group, bool as_given);

  /// Splits segs_ at their crossings on @p threads (resolved) in @p parts
  /// pair-test parts (0 = picked from the threads and the work).
  std::vector<Seg> split_segments(int threads, std::size_t parts, BooleanStats& stats) const;

  /// Splits the segments and sweeps them on @p threads (0 = auto) in
  /// @p slabs y-slabs, with as many pair-test parts (0 picks both from the
  /// threads and the work). Hands the bands to @p take on the calling
  /// thread, bottom to top, a slab's worth per call, and sets stats_.
  void sweep(BoolOp op, int threads, std::size_t slabs,
             const std::function<void(std::vector<Band>&)>& take) const;
  std::vector<Band> sweep_bands(BoolOp op, int threads, std::size_t slabs) const;
  std::vector<Trapezoid> sweep_trapezoids(BoolOp op, bool merge_vertical, int threads,
                                          std::size_t slabs) const;

  std::vector<Seg> segs_;
  mutable BooleanStats stats_;
};

/// Merges vertically adjacent collinear trapezoids in a band list.
/// Exposed for fracture-strategy experiments. Each band's intervals must be
/// in nondecreasing xl0 order, as bands() produces them. A trapezoid does
/// not grow into an interval that is inverted at its top (a residual
/// crossing); that interval is dropped, as band_trapezoids() drops it.
std::vector<Trapezoid> merge_trapezoids_vertically(const std::vector<Band>& bands);

/// Flat list of per-band trapezoids without vertical merging.
std::vector<Trapezoid> band_trapezoids(const std::vector<Band>& bands);

/// Reconstructs polygons-with-holes from a band decomposition.
/// Defined in stitch.cpp.
std::vector<Polygon> stitch_bands(const std::vector<Band>& bands);

}  // namespace ebl
