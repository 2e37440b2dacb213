#include "geom/raster.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

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
  expects(pixel_size > 0, "Raster: pixel size must be positive");
  expects(!frame.empty(), "Raster: frame must be non-empty");
  origin_ = frame.lo;
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
  nx_ = pixels(frame.width());
  ny_ = pixels(frame.height());
  data_.assign(static_cast<std::size_t>(nx_) * ny_, 0.0);
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

namespace {

// Shared clip core of add_coverage/visit_coverage: emit(ix, iy, fraction) for
// every overlapped pixel. Templated on the sink so the hot accumulation path
// keeps a direct call.
template <typename Emit>
void visit_coverage_impl(const Trapezoid& t, Point origin, Coord pix, int nx, int ny,
                         Emit&& emit) {
  if (!t.valid()) return;
  const Box bb = t.bbox();
  const double inv_area = 1.0 / (static_cast<double>(pix) * pix);

  const Coord64 gx0 = std::max<Coord64>((Coord64(bb.lo.x) - origin.x) / pix, 0);
  const Coord64 gy0 = std::max<Coord64>((Coord64(bb.lo.y) - origin.y) / pix, 0);
  const Coord64 gx1 = std::min<Coord64>((Coord64(bb.hi.x) - origin.x) / pix, nx - 1);
  const Coord64 gy1 = std::min<Coord64>((Coord64(bb.hi.y) - origin.y) / pix, ny - 1);
  if (gx0 > gx1 || gy0 > gy1) return;

  if (t.is_rect()) {
    // Axis-aligned fast path: coverage separates into a column overlap times
    // a row overlap, so each pixel costs two subtractions and a multiply
    // instead of a four-halfplane clip plus shoelace. The overlap widths are
    // differences of exactly-representable coordinates clamped to one pixel,
    // so the fraction is the exact covered area. This is the hot path of the
    // PEC splat-cache build (shots are overwhelmingly rectangles).
    static thread_local std::vector<double> colw_storage;
    std::vector<double>& colw = colw_storage;
    colw.resize(static_cast<std::size_t>(gx1 - gx0 + 1));
    for (Coord64 ix = gx0; ix <= gx1; ++ix) {
      const double px0 = static_cast<double>(origin.x) + static_cast<double>(ix) * pix;
      colw[static_cast<std::size_t>(ix - gx0)] =
          std::min(px0 + pix, double(t.xr0)) - std::max(px0, double(t.xl0));
    }
    for (Coord64 iy = gy0; iy <= gy1; ++iy) {
      const double py0 = static_cast<double>(origin.y) + static_cast<double>(iy) * pix;
      const double wy = std::min(py0 + pix, double(t.y1)) - std::max(py0, double(t.y0));
      if (wy <= 0.0) continue;
      for (Coord64 ix = gx0; ix <= gx1; ++ix) {
        const double wx = colw[static_cast<std::size_t>(ix - gx0)];
        if (wx <= 0.0) continue;
        emit(static_cast<int>(ix), static_cast<int>(iy), wx * wy * inv_area);
      }
    }
    return;
  }

  std::vector<DPt> poly;
  std::vector<DPt> scratch;
  for (Coord64 iy = gy0; iy <= gy1; ++iy) {
    const double py0 = static_cast<double>(origin.y) + static_cast<double>(iy) * pix;
    const double py1 = py0 + pix;
    for (Coord64 ix = gx0; ix <= gx1; ++ix) {
      const double px0 = static_cast<double>(origin.x) + static_cast<double>(ix) * pix;
      const double px1 = px0 + pix;

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
      if (poly.empty()) continue;
      clip_halfplane(poly, scratch, [&](DPt p) { return p.x <= px1; },
                     [&](DPt a, DPt b) {
                       const double s = (px1 - a.x) / (b.x - a.x);
                       return DPt{px1, a.y + s * (b.y - a.y)};
                     });
      if (poly.empty()) continue;
      clip_halfplane(poly, scratch, [&](DPt p) { return p.y >= py0; },
                     [&](DPt a, DPt b) {
                       const double s = (py0 - a.y) / (b.y - a.y);
                       return DPt{a.x + s * (b.x - a.x), py0};
                     });
      if (poly.empty()) continue;
      clip_halfplane(poly, scratch, [&](DPt p) { return p.y <= py1; },
                     [&](DPt a, DPt b) {
                       const double s = (py1 - a.y) / (b.y - a.y);
                       return DPt{a.x + s * (b.x - a.x), py1};
                     });
      if (poly.size() < 3) continue;

      const double covered = std::abs(shoelace(poly));
      if (covered <= 0.0) continue;
      emit(static_cast<int>(ix), static_cast<int>(iy), covered * inv_area);
    }
  }
}

}  // namespace

void Raster::add_coverage(const Trapezoid& t, double weight) {
  visit_coverage_impl(t, origin_, pix_, nx_, ny_, [&](int ix, int iy, double frac) {
    data_[static_cast<std::size_t>(iy) * nx_ + static_cast<std::size_t>(ix)] +=
        weight * frac;
  });
}

void Raster::visit_coverage(const Trapezoid& t,
                            const std::function<void(int, int, double)>& emit) const {
  visit_coverage_impl(t, origin_, pix_, nx_, ny_, emit);
}

double Raster::sample(double x, double y) const {
  const double fx = (x - origin_.x) / pix_ - 0.5;
  const double fy = (y - origin_.y) / pix_ - 0.5;
  // No pixel among the four neighbours: every corner reads 0. Checking in
  // double first keeps the int casts below defined however far (x, y) lies.
  if (!(fx >= -1.0 && fx < nx_ && fy >= -1.0 && fy < ny_)) return 0.0;
  const int ix = static_cast<int>(std::floor(fx));
  const int iy = static_cast<int>(std::floor(fy));
  const double tx = fx - ix;
  const double ty = fy - iy;
  auto value = [&](int px, int py) -> double {
    if (px < 0 || py < 0 || px >= nx_ || py >= ny_) return 0.0;
    return data_[static_cast<std::size_t>(py) * nx_ + px];
  };
  return (1 - tx) * (1 - ty) * value(ix, iy) + tx * (1 - ty) * value(ix + 1, iy) +
         (1 - tx) * ty * value(ix, iy + 1) + tx * ty * value(ix + 1, iy + 1);
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
