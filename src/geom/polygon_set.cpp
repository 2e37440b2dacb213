#include "geom/polygon_set.h"

#include <algorithm>

#include "geom/sizing.h"
#include "util/contracts.h"

namespace ebl {

void PolygonSet::insert(const PolygonSet& other) {
  polys_.insert(polys_.end(), other.polys_.begin(), other.polys_.end());
}

Box PolygonSet::bbox() const {
  Box b;
  for (const auto& p : polys_) b += p.bbox();
  return b;
}

std::size_t PolygonSet::vertex_count() const {
  std::size_t n = 0;
  for (const auto& p : polys_) n += p.vertex_count();
  return n;
}

double PolygonSet::raw_area() const {
  double a = 0.0;
  for (const auto& p : polys_) a += p.area();
  return a;
}

double PolygonSet::area() const {
  if (polys_.empty()) return 0.0;
  BooleanEngine eng;
  for (const auto& p : polys_) eng.add(p, 0);
  double a = 0.0;
  for (const Band& b : eng.bands(BoolOp::Or)) {
    for (const BandInterval& iv : b.intervals) {
      const Trapezoid t{b.y0, b.y1, iv.xl0, iv.xr0, iv.xl1, iv.xr1};
      a += t.area();
    }
  }
  return a;
}

bool PolygonSet::contains(Point p) const {
  return std::any_of(polys_.begin(), polys_.end(),
                     [&](const Polygon& poly) { return poly.contains(p); });
}

PolygonSet PolygonSet::merged() const {
  if (polys_.empty()) return {};
  BooleanEngine eng;
  for (const auto& p : polys_) eng.add(p, 0);
  return PolygonSet{eng.polygons(BoolOp::Or)};
}

PolygonSet PolygonSet::binary(const PolygonSet& other, BoolOp op) const {
  BooleanEngine eng;
  for (const auto& p : polys_) eng.add(p, 0);
  for (const auto& p : other.polys_) eng.add(p, 1);
  return PolygonSet{eng.polygons(op)};
}

PolygonSet PolygonSet::united(const PolygonSet& other) const {
  return binary(other, BoolOp::Or);
}
PolygonSet PolygonSet::intersected(const PolygonSet& other) const {
  return binary(other, BoolOp::And);
}
PolygonSet PolygonSet::subtracted(const PolygonSet& other) const {
  return binary(other, BoolOp::Sub);
}
PolygonSet PolygonSet::xored(const PolygonSet& other) const {
  return binary(other, BoolOp::Xor);
}

PolygonSet PolygonSet::sized(Coord delta) const { return size_polygons(*this, delta); }

std::vector<Band> PolygonSet::bands() const {
  BooleanEngine eng;
  for (const auto& p : polys_) eng.add(p, 0);
  return eng.bands(BoolOp::Or);
}

std::vector<Trapezoid> PolygonSet::trapezoids(bool merge_vertical) const {
  BooleanEngine eng;
  for (const auto& p : polys_) eng.add(p, 0);
  return eng.trapezoids(BoolOp::Or, merge_vertical);
}

PolygonSet PolygonSet::transformed(const Trans& t) const {
  std::vector<Polygon> r;
  r.reserve(polys_.size());
  for (const auto& p : polys_) r.push_back(p.transformed(t));
  return PolygonSet{std::move(r)};
}

}  // namespace ebl
