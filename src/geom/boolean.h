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
//      argument order.
//   3. A sweep over the y-event bands orders the (now crossing-free) segments
//      exactly by rational x and accumulates per-group winding numbers.
//      Maximal inside intervals become horizontal trapezoids. The active
//      order is kept from band to band: ended segments retire, each
//      continuing segment's x at the band top becomes its x at the next
//      bottom, an insertion pass repairs the few inversions that residual
//      sub-band crossings leave, and new segments are merged in. The key
//      (x@y0, x@y1, segment id) is a strict total order, so it has exactly
//      one sorted permutation: the kept order is the one a full sort of
//      every band would give.
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
  std::vector<Band> bands(BoolOp op) const;

  /// Result as trapezoids. With @p merge_vertical, collinear trapezoids in
  /// adjacent bands are fused (fewer figures — the fracture optimization
  /// measured in bench_fracture).
  std::vector<Trapezoid> trapezoids(BoolOp op, bool merge_vertical = true) const;

  /// Result as polygons with holes (boundary stitching over the bands).
  std::vector<Polygon> polygons(BoolOp op) const;

  /// Stats of the most recent bands()/trapezoids()/polygons() call.
  const BooleanStats& stats() const { return stats_; }

  bool empty() const { return segs_.empty(); }

 private:
  struct Seg {
    Point lo, hi;        // lo.y < hi.y
    std::int8_t weight;  // +1 original edge pointed up, -1 down
    std::int8_t group;   // 0 = A, 1 = B
  };

  void add_contour(const SimplePolygon& poly, int group, bool as_given);

  std::vector<Seg> split_segments() const;

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
