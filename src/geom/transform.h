// Layout transforms.
//
// Trans is the exact, closed-under-composition group used for cell
// references: translation + one of 8 orthogonal orientations (4 rotations ×
// optional mirror), as in GDSII/OASIS databases. CTrans adds arbitrary
// magnification/rotation in double precision for GDSII SREF records that use
// MAG/ANGLE; applying it rounds back to the database grid.
#pragma once

#include <array>
#include <cmath>
#include <limits>
#include <ostream>
#include <tuple>
#include <utility>

#include "geom/box.h"
#include "geom/point.h"
#include "util/contracts.h"

namespace ebl {

/// The 8 orthogonal orientations: rN = rotate N degrees CCW;
/// mN = mirror about the x axis, then rotate N degrees CCW.
enum class Orient : std::uint8_t { r0, r90, r180, r270, m0, m90, m180, m270 };

/// Exact orthogonal transform: p -> rotate/mirror(p) + disp.
class Trans {
 public:
  constexpr Trans() = default;
  constexpr explicit Trans(Point displacement, Orient o = Orient::r0)
      : disp_(displacement), orient_(o) {}

  constexpr Point disp() const { return disp_; }
  constexpr Orient orient() const { return orient_; }
  constexpr bool mirrored() const { return static_cast<int>(orient_) >= 4; }
  /// CCW rotation in units of 90 degrees (0..3), applied after mirroring.
  constexpr int rot90() const { return static_cast<int>(orient_) % 4; }

  constexpr Point operator()(Point p) const {
    Coord64 x = p.x;
    Coord64 y = p.y;
    if (mirrored()) y = -y;
    switch (rot90()) {
      case 0: break;
      case 1: { const Coord64 t = x; x = -y; y = t; break; }
      case 2: x = -x; y = -y; break;
      case 3: { const Coord64 t = x; x = y; y = -t; break; }
    }
    return {static_cast<Coord>(x + disp_.x), static_cast<Coord>(y + disp_.y)};
  }

  Box operator()(const Box& b) const {
    if (b.empty()) return b;
    Box r;
    r += (*this)(b.lo);
    r += (*this)(b.hi);
    r += (*this)(Point{b.lo.x, b.hi.y});
    r += (*this)(Point{b.hi.x, b.lo.y});
    return r;
  }

  /// Composition: (a * b)(p) == a(b(p)).
  friend constexpr Trans operator*(const Trans& a, const Trans& b) {
    // Orientation composition table is derived from the group structure:
    // both factors act as (mirror?, rot); mirror conjugates rotations.
    const int am = a.mirrored() ? 1 : 0;
    const int bm = b.mirrored() ? 1 : 0;
    const int ar = a.rot90();
    const int br = b.rot90();
    const int rm = am ^ bm;
    // a(b(p)) = Ra Ma Rb Mb p ; Ma Rb = R(-b) Ma  =>  rot = ar + (am ? -br : br)
    const int rr = ((ar + (am ? (4 - br) : br)) % 4 + 4) % 4;
    const auto orient = static_cast<Orient>(rm * 4 + rr);
    Trans r;
    r.orient_ = orient;
    r.disp_ = a(b.disp_);
    return r;
  }

  /// Inverse transform: inverted()(operator()(p)) == p.
  constexpr Trans inverted() const {
    // Inverse orientation: for pure rotation rN -> r(4-N); mirrored
    // orientations are involutions composed with rotation: (M R)^-1 = R^-1 M
    // = M R (since M R M = R^-1)... compute via search for exactness.
    for (int o = 0; o < 8; ++o) {
      const Trans cand{Point{0, 0}, static_cast<Orient>(o)};
      const Trans self{Point{0, 0}, orient_};
      const Trans prod = cand * self;
      if (prod.orient_ == Orient::r0) {
        Trans r;
        r.orient_ = static_cast<Orient>(o);
        const Point d = r(disp_);
        r.disp_ = {static_cast<Coord>(-d.x), static_cast<Coord>(-d.y)};
        return r;
      }
    }
    return Trans{};  // unreachable
  }

  friend constexpr bool operator==(const Trans&, const Trans&) = default;

  friend std::ostream& operator<<(std::ostream& os, const Trans& t) {
    static constexpr std::array<const char*, 8> names = {
        "r0", "r90", "r180", "r270", "m0", "m90", "m180", "m270"};
    return os << names[static_cast<int>(t.orient_)] << ' ' << t.disp_;
  }

 private:
  Point disp_{0, 0};
  Orient orient_ = Orient::r0;
};

/// General transform with magnification and arbitrary angle (degrees CCW),
/// mirror about x applied first. Needed for full GDSII SREF semantics.
/// Application rounds to the database grid.
///
/// The displacement is held in 64 bits: composing placements that are each
/// on the grid can leave it (a cell placed at 2e9 inside a cell placed at
/// 2e9), and keeps_on_grid() tells a caller whether geometry still lands on
/// the 32-bit grid before operator() narrows to it.
class CTrans {
 public:
  CTrans() = default;
  CTrans(Point displacement, double angle_degrees, double magnification, bool mirror)
      : dx_(displacement.x), dy_(displacement.y), angle_(angle_degrees),
        mag_(magnification), mirror_(mirror) {
    expects(magnification > 0, "CTrans magnification must be positive");
  }
  /// Promotes an exact orthogonal transform.
  explicit CTrans(const Trans& t)
      : dx_(t.disp().x), dy_(t.disp().y), angle_(90.0 * t.rot90()), mag_(1.0),
        mirror_(t.mirrored()) {}

  /// The displacement narrowed to the grid (exact for any transform read
  /// from a file record).
  Point disp() const { return {static_cast<Coord>(dx_), static_cast<Coord>(dy_)}; }
  double angle() const { return angle_; }
  double mag() const { return mag_; }
  bool mirror() const { return mirror_; }

  /// True when the transform is exactly representable as a Trans.
  bool is_orthogonal() const {
    if (mag_ != 1.0) return false;
    const double a = std::fmod(std::fmod(angle_, 360.0) + 360.0, 360.0);
    return a == 0.0 || a == 90.0 || a == 180.0 || a == 270.0;
  }

  /// Exact counterpart; precondition: is_orthogonal().
  Trans to_trans() const {
    expects(is_orthogonal(), "CTrans::to_trans on non-orthogonal transform");
    const double a = std::fmod(std::fmod(angle_, 360.0) + 360.0, 360.0);
    const int rot = static_cast<int>(a / 90.0 + 0.5) % 4;
    return Trans{disp(), static_cast<Orient>((mirror_ ? 4 : 0) + rot)};
  }

  /// This transform followed by a shift of (@p dx, @p dy) in the target frame.
  CTrans translated(Coord64 dx, Coord64 dy) const {
    CTrans r = *this;
    r.dx_ += dx;
    r.dy_ += dy;
    return r;
  }

  /// Image of @p p, narrowed to the grid (see keeps_on_grid).
  Point operator()(Point p) const {
    const auto [x, y] = map64(p.x, p.y);
    return {static_cast<Coord>(x), static_cast<Coord>(y)};
  }

  /// True when every corner of @p b maps inside the 32-bit grid. The map is
  /// affine, so then every point of @p b does.
  bool keeps_on_grid(const Box& b) const {
    if (b.empty()) return true;
    constexpr Coord64 lo = std::numeric_limits<Coord>::min();
    constexpr Coord64 hi = std::numeric_limits<Coord>::max();
    for (const Point p : {b.lo, b.hi, Point{b.lo.x, b.hi.y}, Point{b.hi.x, b.lo.y}}) {
      const auto [x, y] = map64(p.x, p.y);
      if (x < lo || x > hi || y < lo || y > hi) return false;
    }
    return true;
  }

  /// Composition: (a * b)(p) == a(b(p)) up to grid rounding.
  friend CTrans operator*(const CTrans& a, const CTrans& b) {
    CTrans r;
    r.mirror_ = a.mirror_ != b.mirror_;
    r.angle_ = a.mirror_ ? a.angle_ - b.angle_ : a.angle_ + b.angle_;
    r.mag_ = a.mag_ * b.mag_;
    std::tie(r.dx_, r.dy_) = a.map64(b.dx_, b.dy_);
    return r;
  }

 private:
  std::pair<Coord64, Coord64> map64(Coord64 px, Coord64 py) const {
    const double x = static_cast<double>(px);
    const double y = mirror_ ? -static_cast<double>(py) : static_cast<double>(py);
    const double rad = angle_ * 0.017453292519943295;
    const double c = std::cos(rad);
    const double s = std::sin(rad);
    const double rx = mag_ * (x * c - y * s);
    const double ry = mag_ * (x * s + y * c);
    return {std::llround(rx) + dx_, std::llround(ry) + dy_};
  }

  Coord64 dx_ = 0;
  Coord64 dy_ = 0;
  double angle_ = 0.0;
  double mag_ = 1.0;
  bool mirror_ = false;
};

}  // namespace ebl
