#include "sim/exposure_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "pec/exposure.h"  // blur primitives
#include "util/contracts.h"
#include "util/parallel.h"

namespace ebl {

ExposureField::ExposureField(const ShotList& shots, const Psf& psf,
                             const SimOptions& options)
    : threads_(options.threads) {
  expects(!shots.empty(), "simulate_exposure: empty shot list");
  Box frame;
  for (const Shot& s : shots) frame += s.shape.bbox();

  // The automatic margin and pixel scale with the PSF's sigmas, which may be
  // any finite value; each must fit a Coord before it is cast to one.
  const auto to_coord = [](double v, const char* what) {
    if (!(v < static_cast<double>(std::numeric_limits<Coord>::max()) + 1.0)) {
      throw DataError(std::string("simulate_exposure: the automatic ") + what + " (" +
                      std::to_string(v) + " dbu) does not fit a coordinate");
    }
    return static_cast<Coord>(v);
  };
  const Coord margin = options.margin > 0
                           ? options.margin
                           : to_coord(std::ceil(4.0 * psf.max_sigma()), "margin");
  pix_ = options.pixel > 0 ? options.pixel
                           : std::max<Coord>(1, to_coord(psf.min_sigma() / 2.0, "pixel"));
  extent_ = frame.bloated(margin);
  std::tie(nx_, ny_) = Raster::grid_size(extent_, pix_);

  // Each term's map factor. The dose window reaches the widest narrow
  // kernel's radius past the shots' pixels [x0, x1] x [y0, y1], and its low
  // corner sits on a multiple of every wide term's k (once that multiple
  // passes the frame, 0 is the only one left).
  const auto& terms = psf.terms();
  std::vector<int> ks(terms.size());
  std::vector<std::vector<double>> taps(terms.size());
  Coord64 align = 1;
  Coord64 reach = 0;
  std::size_t last_narrow = terms.size();
  for (std::size_t t = 0; t < terms.size(); ++t) {
    if (!(terms[t].sigma / kPixelsPerSigma / static_cast<double>(pix_) <
          std::numeric_limits<int>::max())) {
      throw DataError("simulate_exposure: a PSF term of sigma " +
                      std::to_string(terms[t].sigma) + " dbu is too wide for pixel " +
                      std::to_string(pix_));
    }
    const int k = ks[t] = term_k(terms[t].sigma, pix_);
    taps[t] = gaussian_kernel_taps(terms[t].sigma / (static_cast<double>(k) * pix_));
    if (k > 1) {
      if (align < std::max(nx_, ny_)) align = std::lcm(align, Coord64{k});
    } else {
      reach = std::max<Coord64>(reach, static_cast<Coord64>(taps[t].size()) - 1);
      last_narrow = t;
    }
  }
  const auto index = [&](Coord v, Coord origin, int n) {
    return static_cast<int>(std::clamp<Coord64>((Coord64{v} - origin) / pix_, 0, n - 1));
  };
  const int x0 = index(frame.lo.x, extent_.lo.x, nx_);
  const int y0 = index(frame.lo.y, extent_.lo.y, ny_);
  const int x1 = index(frame.hi.x, extent_.lo.x, nx_);
  const int y1 = index(frame.hi.y, extent_.lo.y, ny_);
  const auto low = [&](int i) {
    const Coord64 v = std::max<Coord64>(0, i - reach);
    return static_cast<int>(v - v % align);
  };
  const auto high = [](int i, Coord64 rad, int n) {
    return static_cast<int>(std::min<Coord64>(n - 1, i + rad));
  };
  wx0_ = low(x0);
  wy0_ = low(y0);
  const int wx1 = high(x1, reach, nx_);
  const int wy1 = high(y1, reach, ny_);
  // Pixel i's low edge in dbu; the window's far edge stops at the frame's,
  // which the last pixel may overhang.
  const auto edge = [&](Coord origin, int i) {
    return Coord64{origin} + Coord64{i} * pix_;
  };
  const auto window_box = Box{
      static_cast<Coord>(edge(extent_.lo.x, wx0_)),
      static_cast<Coord>(edge(extent_.lo.y, wy0_)),
      static_cast<Coord>(std::min<Coord64>(edge(extent_.lo.x, wx1 + 1), extent_.hi.x)),
      static_cast<Coord>(std::min<Coord64>(edge(extent_.lo.y, wy1 + 1), extent_.hi.y))};
  Raster dose(window_box, pix_);
  ww_ = dose.width();
  wh_ = dose.height();
  ensures(ww_ == wx1 - wx0_ + 1 && wh_ == wy1 - wy0_ + 1,
          "simulate_exposure: dose window off the frame's grid");
  for (const Shot& s : shots) dose.add_coverage(s.shape, s.dose);

  // Wide terms box-average the dose before any narrow term blurs it. A
  // coarse map pixel c covers the frame's fine pixels [(c - 1) k, c k), so
  // the window, which starts on a block boundary, fills map columns and rows
  // from 1 + wx0_ / k and 1 + wy0_ / k; past the window the dose is 0.0, and
  // a block's sum skips nothing but zeros. The map's pad keeps every corner
  // the read-back takes on the map: the indices rise along each table, so
  // its ends bound them all.
  std::vector<std::optional<Raster>> maps(terms.size());
  const auto readback_axis = [](int n, int k) {
    // Fine pixel j's centre sits at (j + 0.5) / k coarse pixels from the
    // frame origin, one more from the map's. The map has origin 0 and pixel
    // 1, so these are the operations Raster::sample performs on that
    // coordinate.
    std::vector<Lerp> axis(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      const double f = ((j + 0.5) / k + 1.0) - 0.5;
      const int i = static_cast<int>(std::floor(f));
      const double t = f - i;
      axis[static_cast<std::size_t>(j)] = {i, 1 - t, t};
    }
    return axis;
  };
  for (std::size_t t = 0; t < terms.size(); ++t) {
    const int k = ks[t];
    if (k == 1) continue;
    Raster& map = maps[t].emplace(Box{0, 0, (nx_ - 1) / k + 3, (ny_ - 1) / k + 3}, 1);
    const std::size_t row0 = 1 + static_cast<std::size_t>(wy0_ / k);
    box_average(dose.data().data(), ww_, wh_, k, -1 - wx0_ / k, 0, map.width(),
                (wh_ + k - 1) / k, map.data().data() + row0 * map.width(), threads_);
    separable_blur(map, taps[t], threads_);
  }

  // The last narrow term blurs the dose window in place; any other (all come
  // before it) blurs a copy. Each blurs only where it can be non-zero, the
  // shots' pixels widened by its own radius, so every pixel is the
  // whole-frame blur's bit for bit (the taps it skips would add zeros).
  terms_.reserve(terms.size());
  for (std::size_t t = 0; t < terms.size(); ++t) {
    const int k = ks[t];
    if (k > 1) {
      Term term{terms[t].weight, true, std::move(*maps[t]), readback_axis(nx_, k),
                readback_axis(ny_, k)};
      const Raster& map = term.values;
      expects(term.cols.front().i >= 0 && term.cols.back().i + 1 < map.width() &&
                  term.rows.front().i >= 0 && term.rows.back().i + 1 < map.height(),
              "simulate_exposure: read-back leaves the coarse map");
      terms_.push_back(std::move(term));
      continue;
    }
    Raster values = t == last_narrow ? std::move(dose) : Raster(dose);
    const Coord64 rad = static_cast<Coord64>(taps[t].size()) - 1;
    const int bx0 = static_cast<int>(std::max<Coord64>(0, x0 - rad)) - wx0_;
    const int by0 = static_cast<int>(std::max<Coord64>(0, y0 - rad)) - wy0_;
    const int bx1 = high(x1, rad, nx_) - wx0_;
    const int by1 = high(y1, rad, ny_) - wy0_;
    double* window = values.data().data() + static_cast<std::size_t>(by0) * ww_ + bx0;
    separable_blur(window, window, bx1 - bx0 + 1, by1 - by0 + 1,
                   static_cast<std::size_t>(ww_), taps[t], threads_);
    terms_.push_back({terms[t].weight, false, std::move(values), {}, {}});
  }
}

void ExposureField::row(int y, int x0, int x1, double* out) const {
  std::fill(out, out + (x1 - x0), 0.0);
  const bool in_window = y >= wy0_ && y < wy0_ + wh_;
  const int lo = std::max(x0, wx0_);
  const int hi = std::min(x1, wx0_ + ww_);
  for (const Term& term : terms_) {
    const double w = term.weight;
    if (term.wide) {
      // weight * map.sample(...) at the pixel centre: sample's four products
      // in sample's order.
      const Lerp& ry = term.rows[static_cast<std::size_t>(y)];
      const std::size_t mw = static_cast<std::size_t>(term.values.width());
      const double* m0 = term.values.data().data() + static_cast<std::size_t>(ry.i) * mw;
      const double* m1 = m0 + mw;
      for (int x = x0; x < x1; ++x) {
        const Lerp& cx = term.cols[static_cast<std::size_t>(x)];
        out[x - x0] += w * (cx.lo * ry.lo * m0[cx.i] + cx.hi * ry.lo * m0[cx.i + 1] +
                            cx.lo * ry.hi * m1[cx.i] + cx.hi * ry.hi * m1[cx.i + 1]);
      }
    } else if (in_window) {
      // Past the window a narrow term's blur is 0.0, and adding w * 0.0
      // changes no bit of the sum.
      const double* in =
          term.values.data().data() + static_cast<std::size_t>(y - wy0_) * ww_;
      for (int x = lo; x < hi; ++x) out[x - x0] += w * in[x - wx0_];
    }
  }
}

double ExposureField::sample(double x, double y) const {
  // Raster::sample's arithmetic, with the four pixels formed on demand.
  const double fx = (x - extent_.lo.x) / pix_ - 0.5;
  const double fy = (y - extent_.lo.y) / pix_ - 0.5;
  if (!(fx >= -1.0 && fx < nx_ && fy >= -1.0 && fy < ny_)) return 0.0;
  const int ix = static_cast<int>(std::floor(fx));
  const int iy = static_cast<int>(std::floor(fy));
  const double tx = fx - ix;
  const double ty = fy - iy;
  // v[r][c] is pixel (ix + c, iy + r); pixels off the frame read 0.
  double v[2][2] = {};
  const int c0 = std::max(ix, 0);
  const int c1 = std::min(ix + 2, nx_);
  for (int r = 0; r < 2; ++r) {
    if (iy + r >= 0 && iy + r < ny_) row(iy + r, c0, c1, &v[r][c0 - ix]);
  }
  return (1 - tx) * (1 - ty) * v[0][0] + tx * (1 - ty) * v[0][1] +
         (1 - tx) * ty * v[1][0] + tx * ty * v[1][1];
}

Raster ExposureField::render() const {
  Raster out(extent_, pix_);
  const std::size_t nx = static_cast<std::size_t>(nx_);
  parallel_for(
      static_cast<std::size_t>(ny_),
      [&](std::size_t r0, std::size_t r1) {
        for (std::size_t y = r0; y < r1; ++y)
          row(static_cast<int>(y), 0, nx_, out.data().data() + y * nx);
      },
      threads_);
  return out;
}

Raster simulate_exposure(const ShotList& shots, const Psf& psf,
                         const SimOptions& options) {
  return ExposureField(shots, psf, options).render();
}

Raster develop(const Raster& exposure, const ResistModel& resist) {
  Raster thickness = exposure;
  for (double& v : thickness.data()) v = resist.thickness(v);
  return thickness;
}

namespace {

double bilinear(const Raster& r, double px, double py) {
  // Every corner past the grid clamps to its edge pixel. Clamping the
  // coordinate to [INT_MIN, INT_MAX - 1] first keeps the casts below (and
  // ix + 1) defined however far the point lies; inside that range nothing
  // changes.
  constexpr double kLo = std::numeric_limits<int>::min();
  constexpr double kHi = std::numeric_limits<int>::max() - 1;
  const double fx = std::clamp((px - r.origin().x) / r.pixel_size() - 0.5, kLo, kHi);
  const double fy = std::clamp((py - r.origin().y) / r.pixel_size() - 0.5, kLo, kHi);
  const int ix = static_cast<int>(std::floor(fx));
  const int iy = static_cast<int>(std::floor(fy));
  const double tx = fx - ix;
  const double ty = fy - iy;
  auto sample = [&](int x, int y) -> double {
    x = std::clamp(x, 0, r.width() - 1);
    y = std::clamp(y, 0, r.height() - 1);
    return r.at(x, y);
  };
  return (1 - tx) * (1 - ty) * sample(ix, iy) + tx * (1 - ty) * sample(ix + 1, iy) +
         (1 - tx) * ty * sample(ix, iy + 1) + tx * ty * sample(ix + 1, iy + 1);
}

}  // namespace

std::vector<double> profile_along(const Raster& raster, Point a, Point b, int n) {
  expects(n >= 2, "profile_along: need >= 2 samples");
  std::vector<double> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / (n - 1);
    const double px = a.x + (static_cast<double>(b.x) - a.x) * t;
    const double py = a.y + (static_cast<double>(b.y) - a.y) * t;
    out[static_cast<std::size_t>(i)] = bilinear(raster, px, py);
  }
  return out;
}

std::vector<double> crossings_along(const Raster& raster, double level, Point a,
                                    Point b, int samples) {
  const std::vector<double> prof = profile_along(raster, a, b, samples);
  const double len = std::sqrt(static_cast<double>(distance2(a, b)));
  std::vector<double> xs;
  for (std::size_t i = 0; i < prof.size(); ++i) {
    const double v0 = prof[i] - level;
    if (v0 == 0.0) xs.push_back(len * static_cast<double>(i) / (samples - 1));
    if (i + 1 == prof.size()) break;  // the last sample has no interval
    const double v1 = prof[i + 1] - level;
    if ((v0 < 0 && v1 > 0) || (v0 > 0 && v1 < 0)) {
      const double f = v0 / (v0 - v1);
      xs.push_back(len * (static_cast<double>(i) + f) / (samples - 1));
    }
  }
  return xs;
}

std::optional<double> measure_cd(const Raster& exposure, double level, Point a,
                                 Point b, int samples) {
  const auto xs = crossings_along(exposure, level, a, b, samples);
  if (xs.size() < 2) return std::nullopt;
  return xs.back() - xs.front();
}

std::vector<ContourLine> extract_contours(const Raster& raster, double level) {
  // Marching squares on cell corners = pixel centers. Each cell contributes
  // 0..2 segments with endpoints interpolated on cell edges; segments are
  // stitched into polylines by matching quantized endpoints.
  const int nx = raster.width();
  const int ny = raster.height();
  if (nx < 2 || ny < 2) return {};

  using Key = std::pair<long long, long long>;
  const auto key_of = [](double x, double y) -> Key {
    return {static_cast<long long>(std::llround(x * 16.0)),
            static_cast<long long>(std::llround(y * 16.0))};
  };

  struct Seg {
    double x0, y0, x1, y1;
    bool used = false;
  };
  std::vector<Seg> segs;
  std::multimap<Key, std::size_t> by_start;

  const double pix = raster.pixel_size();
  const double ox = raster.origin().x + 0.5 * pix;
  const double oy = raster.origin().y + 0.5 * pix;

  const auto interp = [&](double va, double vb) {
    // Position of the crossing between two corner values, in [0,1].
    const double d = vb - va;
    if (d == 0.0) return 0.5;
    return std::clamp((level - va) / d, 0.0, 1.0);
  };

  for (int cy = 0; cy + 1 < ny; ++cy) {
    for (int cx = 0; cx + 1 < nx; ++cx) {
      const double v00 = raster.at(cx, cy);
      const double v10 = raster.at(cx + 1, cy);
      const double v01 = raster.at(cx, cy + 1);
      const double v11 = raster.at(cx + 1, cy + 1);
      int code = 0;
      if (v00 >= level) code |= 1;
      if (v10 >= level) code |= 2;
      if (v11 >= level) code |= 4;
      if (v01 >= level) code |= 8;
      if (code == 0 || code == 15) continue;

      // Edge midpoints with interpolation: bottom, right, top, left.
      const double bx = ox + (cx + interp(v00, v10)) * pix;
      const double by = oy + cy * pix;
      const double rx = ox + (cx + 1) * pix;
      const double ry = oy + (cy + interp(v10, v11)) * pix;
      const double tx = ox + (cx + interp(v01, v11)) * pix;
      const double ty = oy + (cy + 1) * pix;
      const double lx = ox + cx * pix;
      const double ly = oy + (cy + interp(v00, v01)) * pix;

      const auto add = [&](double x0, double y0, double x1, double y1) {
        segs.push_back({x0, y0, x1, y1, false});
      };
      switch (code) {
        case 1: add(lx, ly, bx, by); break;
        case 2: add(bx, by, rx, ry); break;
        case 3: add(lx, ly, rx, ry); break;
        case 4: add(rx, ry, tx, ty); break;
        case 5:  // saddle: resolve by center average
          if (0.25 * (v00 + v10 + v01 + v11) >= level) {
            add(lx, ly, tx, ty);
            add(rx, ry, bx, by);
          } else {
            add(lx, ly, bx, by);
            add(rx, ry, tx, ty);
          }
          break;
        case 6: add(bx, by, tx, ty); break;
        case 7: add(lx, ly, tx, ty); break;
        case 8: add(tx, ty, lx, ly); break;
        case 9: add(tx, ty, bx, by); break;
        case 10:
          if (0.25 * (v00 + v10 + v01 + v11) >= level) {
            add(bx, by, lx, ly);
            add(tx, ty, rx, ry);
          } else {
            add(bx, by, rx, ry);
            add(tx, ty, lx, ly);
          }
          break;
        case 11: add(tx, ty, rx, ry); break;
        case 12: add(rx, ry, lx, ly); break;
        case 13: add(rx, ry, bx, by); break;
        case 14: add(bx, by, lx, ly); break;
        default: break;
      }
    }
  }

  for (std::size_t i = 0; i < segs.size(); ++i) {
    by_start.emplace(key_of(segs[i].x0, segs[i].y0), i);
  }

  std::vector<ContourLine> lines;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    if (segs[i].used) continue;
    ContourLine line;
    segs[i].used = true;
    line.push_back({segs[i].x0, segs[i].y0});
    line.push_back({segs[i].x1, segs[i].y1});
    // Extend forward.
    bool extended = true;
    while (extended) {
      extended = false;
      const Key k = key_of(line.back().first, line.back().second);
      auto [lo, hi] = by_start.equal_range(k);
      for (auto it = lo; it != hi; ++it) {
        Seg& s = segs[it->second];
        if (s.used) continue;
        s.used = true;
        line.push_back({s.x1, s.y1});
        extended = true;
        break;
      }
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

}  // namespace ebl
