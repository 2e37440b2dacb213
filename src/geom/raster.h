// Area-coverage rasterization of trapezoids onto a pixel grid.
//
// Used by the PEC long-range gather and the exposure simulator: each pixel
// accumulates the exact covered-area fraction of the geometry (anti-aliased
// coverage, not point sampling), so downstream dose integrals conserve area.
#pragma once

#include <algorithm>
#include <vector>

#include "geom/box.h"
#include "geom/trapezoid.h"

namespace ebl {

/// Dense raster of doubles over a pixel grid aligned to the database grid.
class Raster {
 public:
  /// Grid covering @p frame with square pixels of @p pixel_size dbu.
  /// The frame is expanded to a whole number of pixels. Throws DataError
  /// when it spans more than INT_MAX pixels on either axis.
  Raster(const Box& frame, Coord pixel_size);

  /// The pixel counts (width, height) the constructor lays over @p frame,
  /// without allocating the grid. Throws the constructor's DataError.
  static std::pair<int, int> grid_size(const Box& frame, Coord pixel_size);

  /// The grid of Raster(frame, pixel_size) without its pixels: the geometry
  /// queries (index_of, center, stencil) and visit_coverage work, data() is
  /// empty, and no pixel may be read or written. For a caller that keeps
  /// the pixels elsewhere, such as the PEC evaluator, which holds a band of
  /// rows at a time.
  static Raster grid(const Box& frame, Coord pixel_size);

  int width() const { return nx_; }
  int height() const { return ny_; }
  Coord pixel_size() const { return pix_; }
  Point origin() const { return origin_; }

  double& at(int ix, int iy);
  double at(int ix, int iy) const;

  /// Pixel center in dbu.
  Point center(int ix, int iy) const;

  /// Pixel index containing the dbu point (clamped to the grid).
  std::pair<int, int> index_of(Point p) const;

  /// Bilinear interpolation of the pixel grid at a dbu point (pixel values
  /// are taken at pixel centers); pixels outside the grid contribute 0, so
  /// sampling anywhere is safe.
  double sample(double x, double y) const;

  /// sample's stencil at a dbu point: the pixel (ix, iy) at the low corner of
  /// the four it blends, and their weights tx, ty. False when none of the
  /// four lies on the grid, where sample reads 0.
  bool stencil(double x, double y, int& ix, int& iy, double& tx, double& ty) const;

  /// sample's blend of its stencil's pixel values: v00 at (ix, iy), v10 at
  /// (ix + 1, iy), v01 at (ix, iy + 1), v11 at (ix + 1, iy + 1).
  static double blend(double tx, double ty, double v00, double v10, double v01,
                      double v11) {
    return (1 - tx) * (1 - ty) * v00 + tx * (1 - ty) * v10 + (1 - tx) * ty * v01 +
           tx * ty * v11;
  }

  /// Accumulates weight * (covered area fraction) of the trapezoid into every
  /// pixel it overlaps. Coverage is exact (convex clip + shoelace).
  void add_coverage(const Trapezoid& t, double weight = 1.0);

  /// Adds coverage for a whole list.
  void add_coverage(const std::vector<Trapezoid>& traps, double weight = 1.0);

  /// Invokes emit(ix, iy, covered_area_fraction) for every pixel of rows
  /// [row0, row1) the trapezoid overlaps, row by row and left to right,
  /// without mutating the raster — the primitive behind add_coverage. A
  /// pixel's fraction does not depend on the rows asked for, so visiting a
  /// shape band by band emits exactly the values of one whole visit (the PEC
  /// long-range gather writes row bands in parallel this way).
  template <typename Emit>
  void visit_coverage(const Trapezoid& t, int row0, int row1, Emit&& emit) const;

  /// Sum of all pixel values.
  double sum() const;

  /// Maximum pixel value.
  double max_value() const;

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

 private:
  // Area (dbu^2) of the pixel [px0, px0 + pix) x [py0, py0 + pix) that a
  // trapezoid covers: convex clip + shoelace, the general visit path.
  static double clipped_area(const Trapezoid& t, double px0, double py0, Coord pix);

  struct NoPixels {};
  Raster(const Box& frame, Coord pixel_size, NoPixels);

  Point origin_;  // dbu coordinate of the lower-left corner of pixel (0,0)
  Coord pix_;
  int nx_, ny_;
  std::vector<double> data_;
};

template <typename Emit>
void Raster::visit_coverage(const Trapezoid& t, int row0, int row1, Emit&& emit) const {
  if (!t.valid()) return;
  const Box bb = t.bbox();
  const double inv_area = 1.0 / (static_cast<double>(pix_) * pix_);

  const Coord64 gx0 = std::max<Coord64>((Coord64(bb.lo.x) - origin_.x) / pix_, 0);
  const Coord64 gy0 =
      std::max<Coord64>((Coord64(bb.lo.y) - origin_.y) / pix_, std::max(row0, 0));
  const Coord64 gx1 = std::min<Coord64>((Coord64(bb.hi.x) - origin_.x) / pix_, nx_ - 1);
  const Coord64 gy1 =
      std::min<Coord64>((Coord64(bb.hi.y) - origin_.y) / pix_, std::min(row1, ny_) - 1);
  if (gx0 > gx1 || gy0 > gy1) return;

  if (t.is_rect()) {
    // Axis-aligned fast path: coverage separates into a column overlap times
    // a row overlap, so each pixel costs two subtractions and a multiply
    // instead of a four-halfplane clip plus shoelace. The overlap widths are
    // differences of exactly-representable coordinates clamped to one pixel,
    // so the fraction is the exact covered area. The PEC long-range gather
    // re-clips rectangles through this path on every refresh.
    static thread_local std::vector<double> colw_storage;
    std::vector<double>& colw = colw_storage;
    colw.resize(static_cast<std::size_t>(gx1 - gx0 + 1));
    for (Coord64 ix = gx0; ix <= gx1; ++ix) {
      const double px0 = static_cast<double>(origin_.x) + static_cast<double>(ix) * pix_;
      colw[static_cast<std::size_t>(ix - gx0)] =
          std::min(px0 + pix_, double(t.xr0)) - std::max(px0, double(t.xl0));
    }
    for (Coord64 iy = gy0; iy <= gy1; ++iy) {
      const double py0 = static_cast<double>(origin_.y) + static_cast<double>(iy) * pix_;
      const double wy = std::min(py0 + pix_, double(t.y1)) - std::max(py0, double(t.y0));
      if (wy <= 0.0) continue;
      for (Coord64 ix = gx0; ix <= gx1; ++ix) {
        const double wx = colw[static_cast<std::size_t>(ix - gx0)];
        if (wx <= 0.0) continue;
        emit(static_cast<int>(ix), static_cast<int>(iy), wx * wy * inv_area);
      }
    }
    return;
  }

  for (Coord64 iy = gy0; iy <= gy1; ++iy) {
    const double py0 = static_cast<double>(origin_.y) + static_cast<double>(iy) * pix_;
    for (Coord64 ix = gx0; ix <= gx1; ++ix) {
      const double px0 = static_cast<double>(origin_.x) + static_cast<double>(ix) * pix_;
      const double covered = clipped_area(t, px0, py0, pix_);
      if (covered <= 0.0) continue;
      emit(static_cast<int>(ix), static_cast<int>(iy), covered * inv_area);
    }
  }
}

}  // namespace ebl
