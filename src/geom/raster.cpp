#include "geom/raster.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>

#include "util/contracts.h"

namespace ebl {
namespace {

struct DPt {
  double x, y;
};

// Sutherland–Hodgman clip of a convex polygon against an axis-aligned
// half-plane. keep(p) must be convex-friendly (half-plane predicate).
template <typename Keep, typename Intersect>
void clip_halfplane(std::vector<DPt>& poly, std::vector<DPt>& scratch, Keep keep,
                    Intersect intersect) {
  scratch.clear();
  const std::size_t n = poly.size();
  for (std::size_t i = 0; i < n; ++i) {
    const DPt a = poly[i];
    const DPt b = poly[(i + 1) % n];
    const bool ka = keep(a);
    const bool kb = keep(b);
    if (ka) scratch.push_back(a);
    if (ka != kb) scratch.push_back(intersect(a, b));
  }
  poly.swap(scratch);
}

double shoelace(const std::vector<DPt>& poly) {
  double s = 0.0;
  const std::size_t n = poly.size();
  for (std::size_t i = 0; i < n; ++i) {
    const DPt a = poly[i];
    const DPt b = poly[(i + 1) % n];
    s += a.x * b.y - b.x * a.y;
  }
  return 0.5 * s;
}

}  // namespace

Raster::Raster(const Box& frame, Coord pixel_size) : pix_(pixel_size) {
  origin_ = frame.lo;
  std::tie(nx_, ny_) = grid_size(frame, pixel_size);
  data_.assign(static_cast<std::size_t>(nx_) * ny_, 0.0);
}

std::pair<int, int> Raster::grid_size(const Box& frame, Coord pixel_size) {
  expects(pixel_size > 0, "Raster: pixel size must be positive");
  expects(!frame.empty(), "Raster: frame must be non-empty");
  const auto pixels = [&](Coord64 extent) {
    const Coord64 n = std::max<Coord64>(1, (extent + pixel_size - 1) / pixel_size);
    if (n > std::numeric_limits<int>::max()) {
      throw DataError("Raster: frame (" + std::to_string(frame.lo.x) + ", " +
                      std::to_string(frame.lo.y) + ")-(" +
                      std::to_string(frame.hi.x) + ", " +
                      std::to_string(frame.hi.y) + ") spans " + std::to_string(n) +
                      " pixels of " + std::to_string(pixel_size) +
                      " dbu on one axis, more than a raster can index");
    }
    return static_cast<int>(n);
  };
  return {pixels(frame.width()), pixels(frame.height())};
}

double& Raster::at(int ix, int iy) {
  expects(ix >= 0 && ix < nx_ && iy >= 0 && iy < ny_, "Raster::at out of range");
  return data_[static_cast<std::size_t>(iy) * nx_ + ix];
}

double Raster::at(int ix, int iy) const {
  expects(ix >= 0 && ix < nx_ && iy >= 0 && iy < ny_, "Raster::at out of range");
  return data_[static_cast<std::size_t>(iy) * nx_ + ix];
}

Point Raster::center(int ix, int iy) const {
  return {static_cast<Coord>(origin_.x + Coord64(ix) * pix_ + pix_ / 2),
          static_cast<Coord>(origin_.y + Coord64(iy) * pix_ + pix_ / 2)};
}

std::pair<int, int> Raster::index_of(Point p) const {
  auto clamp = [](Coord64 v, int hi) {
    return static_cast<int>(std::clamp<Coord64>(v, 0, hi - 1));
  };
  const Coord64 ix = (Coord64(p.x) - origin_.x) / pix_;
  const Coord64 iy = (Coord64(p.y) - origin_.y) / pix_;
  return {clamp(ix, nx_), clamp(iy, ny_)};
}

double Raster::clipped_area(const Trapezoid& t, double px0, double py0, Coord pix) {
  const double px1 = px0 + pix;
  const double py1 = py0 + pix;
  thread_local std::vector<DPt> poly;
  thread_local std::vector<DPt> scratch;
  poly.clear();
  poly.push_back({double(t.xl0), double(t.y0)});
  if (t.xr0 != t.xl0) poly.push_back({double(t.xr0), double(t.y0)});
  poly.push_back({double(t.xr1), double(t.y1)});
  if (t.xl1 != t.xr1) poly.push_back({double(t.xl1), double(t.y1)});

  clip_halfplane(poly, scratch, [&](DPt p) { return p.x >= px0; },
                 [&](DPt a, DPt b) {
                   const double s = (px0 - a.x) / (b.x - a.x);
                   return DPt{px0, a.y + s * (b.y - a.y)};
                 });
  if (poly.empty()) return 0.0;
  clip_halfplane(poly, scratch, [&](DPt p) { return p.x <= px1; },
                 [&](DPt a, DPt b) {
                   const double s = (px1 - a.x) / (b.x - a.x);
                   return DPt{px1, a.y + s * (b.y - a.y)};
                 });
  if (poly.empty()) return 0.0;
  clip_halfplane(poly, scratch, [&](DPt p) { return p.y >= py0; },
                 [&](DPt a, DPt b) {
                   const double s = (py0 - a.y) / (b.y - a.y);
                   return DPt{a.x + s * (b.x - a.x), py0};
                 });
  if (poly.empty()) return 0.0;
  clip_halfplane(poly, scratch, [&](DPt p) { return p.y <= py1; },
                 [&](DPt a, DPt b) {
                   const double s = (py1 - a.y) / (b.y - a.y);
                   return DPt{a.x + s * (b.x - a.x), py1};
                 });
  if (poly.size() < 3) return 0.0;
  return std::abs(shoelace(poly));
}

void Raster::add_coverage(const Trapezoid& t, double weight) {
  visit_coverage(t, 0, ny_, [&](int ix, int iy, double frac) {
    data_[static_cast<std::size_t>(iy) * nx_ + static_cast<std::size_t>(ix)] +=
        weight * frac;
  });
}

bool Raster::stencil(double x, double y, int& ix, int& iy, double& tx, double& ty) const {
  const double fx = (x - origin_.x) / pix_ - 0.5;
  const double fy = (y - origin_.y) / pix_ - 0.5;
  // No pixel among the four neighbours: every corner reads 0. Checking in
  // double first keeps the int casts below defined however far (x, y) lies.
  if (!(fx >= -1.0 && fx < nx_ && fy >= -1.0 && fy < ny_)) return false;
  ix = static_cast<int>(std::floor(fx));
  iy = static_cast<int>(std::floor(fy));
  tx = fx - ix;
  ty = fy - iy;
  return true;
}

double Raster::sample(double x, double y) const {
  int ix, iy;
  double tx, ty;
  if (!stencil(x, y, ix, iy, tx, ty)) return 0.0;
  auto value = [&](int px, int py) -> double {
    if (px < 0 || py < 0 || px >= nx_ || py >= ny_) return 0.0;
    return data_[static_cast<std::size_t>(py) * nx_ + px];
  };
  return blend(tx, ty, value(ix, iy), value(ix + 1, iy), value(ix, iy + 1),
               value(ix + 1, iy + 1));
}

void Raster::add_coverage(const std::vector<Trapezoid>& traps, double weight) {
  for (const auto& t : traps) add_coverage(t, weight);
}

double Raster::sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Raster::max_value() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, v);
  return m;
}

}  // namespace ebl
