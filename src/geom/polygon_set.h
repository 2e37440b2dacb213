// PolygonSet — the workhorse region type of the data-prep flow.
//
// A PolygonSet is a collection of polygons interpreted as a point set (the
// union of its members, by nonzero winding). Boolean operators, sizing and
// fracturing all work on PolygonSets; results are returned as new sets.
#pragma once

#include <initializer_list>
#include <span>
#include <vector>

#include "geom/boolean.h"
#include "geom/polygon.h"
#include "geom/trapezoid.h"

namespace ebl {

class PolygonSet {
 public:
  PolygonSet() = default;
  explicit PolygonSet(std::vector<Polygon> polys) : polys_(std::move(polys)) {}
  PolygonSet(std::initializer_list<Polygon> polys) : polys_(polys) {}

  void insert(Polygon p) { polys_.push_back(std::move(p)); }
  void insert(const SimplePolygon& p) { polys_.emplace_back(p); }
  void insert(const Box& b) { polys_.push_back(Polygon::rect(b)); }
  void insert(const Trapezoid& t) { polys_.emplace_back(t.to_polygon()); }
  void insert(const PolygonSet& other);

  std::span<const Polygon> polygons() const { return polys_; }
  bool empty() const { return polys_.empty(); }
  std::size_t size() const { return polys_.size(); }

  Box bbox() const;

  /// Total vertex count over all members.
  std::size_t vertex_count() const;

  /// Exact area of the merged point set (overlaps counted once).
  double area() const;

  /// Sum of member areas (overlaps counted multiply) — cheap, no merge.
  double raw_area() const;

  /// Point test against the merged region.
  bool contains(Point p) const;

  /// Canonical merged form (union of members, overlaps dissolved).
  PolygonSet merged() const;

  PolygonSet united(const PolygonSet& other) const;
  PolygonSet intersected(const PolygonSet& other) const;
  PolygonSet subtracted(const PolygonSet& other) const;
  PolygonSet xored(const PolygonSet& other) const;

  /// Isotropic sizing by @p delta dbu (positive grows, negative shrinks).
  /// Self-intersections of the offset contours are resolved by a merge.
  PolygonSet sized(Coord delta) const;

  /// Band decomposition of the merged region.
  std::vector<Band> bands() const;

  /// Trapezoid decomposition (the fracture primitive), merged on @p threads
  /// (0 = auto; the same bits for any count).
  std::vector<Trapezoid> trapezoids(bool merge_vertical = true, int threads = 0) const;

  PolygonSet transformed(const Trans& t) const;

 private:
  PolygonSet binary(const PolygonSet& other, BoolOp op) const;

  std::vector<Polygon> polys_;
};

}  // namespace ebl
