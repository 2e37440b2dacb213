// Area-coverage rasterization of trapezoids onto a pixel grid.
//
// Used by the grid-based PEC style and the exposure simulator: each pixel
// accumulates the exact covered-area fraction of the geometry (anti-aliased
// coverage, not point sampling), so downstream dose integrals conserve area.
#pragma once

#include <functional>
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

  /// Accumulates weight * (covered area fraction) of the trapezoid into every
  /// pixel it overlaps. Coverage is exact (convex clip + shoelace).
  void add_coverage(const Trapezoid& t, double weight = 1.0);

  /// Adds coverage for a whole list.
  void add_coverage(const std::vector<Trapezoid>& traps, double weight = 1.0);

  /// Invokes emit(ix, iy, covered_area_fraction) for every pixel the
  /// trapezoid overlaps, without mutating the raster — the primitive behind
  /// add_coverage, exposed so callers can cache a shape's sparse footprint
  /// (e.g. the PEC splat cache) instead of re-clipping every accumulation.
  void visit_coverage(const Trapezoid& t,
                      const std::function<void(int, int, double)>& emit) const;

  /// Sum of all pixel values.
  double sum() const;

  /// Maximum pixel value.
  double max_value() const;

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

 private:
  Point origin_;  // dbu coordinate of the lower-left corner of pixel (0,0)
  Coord pix_;
  int nx_, ny_;
  std::vector<double> data_;
};

}  // namespace ebl
