#include "sim/exposure_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "pec/exposure.h"  // blur primitives
#include "util/contracts.h"
#include "util/parallel.h"

namespace ebl {

namespace {

// Bilinear read-back weights of one fine pixel centre on a coarse map: the
// lower map index and the weights 1 - t and t of it and of the next one.
struct Lerp {
  int i;
  double lo, hi;
};

// Fine pixel j's centre sits at (j + 0.5) / k coarse pixels from the frame
// origin, one more from the map's. The map has origin 0 and pixel 1, so
// these are the operations Raster::sample performs on that coordinate.
std::vector<Lerp> readback_axis(int n, int k) {
  std::vector<Lerp> axis(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const double f = ((j + 0.5) / k + 1.0) - 0.5;
    const int i = static_cast<int>(std::floor(f));
    const double t = f - i;
    axis[static_cast<std::size_t>(j)] = {i, 1 - t, t};
  }
  return axis;
}

// A wide term's dose map, box-averaged k times coarser and blurred there.
// The map reaches one coarse pixel past the frame on every side: the blur is
// exact anywhere on the map, so the read-back at the frame's outer pixel
// centres interpolates between blurred values instead of toward an off-map
// zero. It is laid out in coarse-pixel units (pixel 1, coarse pixel -1 of
// the fine frame at index 0), so it never leaves the coordinate range,
// wherever the frame lies.
struct CoarseTerm {
  Raster map;
  std::vector<Lerp> cols, rows;

  CoarseTerm(const Raster& base, const PsfTerm& term, int k, int threads)
      : map(Box{0, 0, (base.width() - 1) / k + 3, (base.height() - 1) / k + 3}, 1),
        cols(readback_axis(base.width(), k)),
        rows(readback_axis(base.height(), k)) {
    // The indices rise along each table, so its ends bound them all: the pad
    // keeps every corner sample would read on the map, and none reads the
    // off-map zero.
    expects(cols.front().i >= 0 && cols.back().i + 1 < map.width() &&
                rows.front().i >= 0 && rows.back().i + 1 < map.height(),
            "simulate_exposure: read-back leaves the coarse map");
    box_average(base.data().data(), base.width(), base.height(), k, -1, -1,
                map.width(), map.height(), map.data().data(), threads);
    const double coarse_pixel = static_cast<double>(k) * base.pixel_size();
    separable_blur(map, gaussian_kernel_taps(term.sigma / coarse_pixel), threads);
  }

  // out[x] += weight * map.sample(...) at fine row y's pixel centres: sample's
  // four products in sample's order.
  void add_row(int y, double weight, double* out) const {
    const Lerp& ry = rows[static_cast<std::size_t>(y)];
    const std::size_t w = static_cast<std::size_t>(map.width());
    const double* m0 = map.data().data() + static_cast<std::size_t>(ry.i) * w;
    const double* m1 = m0 + w;
    for (std::size_t x = 0; x < cols.size(); ++x) {
      const Lerp& cx = cols[x];
      out[x] += weight * (cx.lo * ry.lo * m0[cx.i] + cx.hi * ry.lo * m0[cx.i + 1] +
                          cx.lo * ry.hi * m1[cx.i] + cx.hi * ry.hi * m1[cx.i + 1]);
    }
  }
};

// Blurs r in place on the window where the blur can be non-zero: the pixels
// [x0, x1] x [y0, y1] that hold dose, widened by the kernel radius. Outside
// it the whole-raster blur would leave 0.0, and inside it the taps the
// window skips would only add zeros, so the result is that blur bit for bit.
void blur_dose_window(Raster& r, const std::vector<double>& taps, int x0, int y0,
                      int x1, int y1, int threads) {
  const Coord64 rad = static_cast<Coord64>(taps.size()) - 1;
  const int wx0 = static_cast<int>(std::max<Coord64>(0, x0 - rad));
  const int wy0 = static_cast<int>(std::max<Coord64>(0, y0 - rad));
  const int wx1 = static_cast<int>(std::min<Coord64>(r.width() - 1, x1 + rad));
  const int wy1 = static_cast<int>(std::min<Coord64>(r.height() - 1, y1 + rad));
  const std::size_t stride = static_cast<std::size_t>(r.width());
  double* window = r.data().data() + static_cast<std::size_t>(wy0) * stride + wx0;
  separable_blur(window, window, wx1 - wx0 + 1, wy1 - wy0 + 1, stride, taps, threads);
}

}  // namespace

Raster simulate_exposure(const ShotList& shots, const Psf& psf,
                         const SimOptions& options) {
  expects(!shots.empty(), "simulate_exposure: empty shot list");
  Box frame;
  for (const Shot& s : shots) frame += s.shape.bbox();

  const Coord margin = options.margin > 0
                           ? options.margin
                           : static_cast<Coord>(std::ceil(4.0 * psf.max_sigma()));
  const Coord pixel =
      options.pixel > 0
          ? options.pixel
          : std::max<Coord>(1, static_cast<Coord>(psf.min_sigma() / 2.0));

  Raster base(frame.bloated(margin), pixel);
  for (const Shot& s : shots) base.add_coverage(s.shape, s.dose);
  const auto [x0, y0] = base.index_of(frame.lo);
  const auto [x1, y1] = base.index_of(frame.hi);

  // Every term convolves the same dose map, each at the evaluator's per-term
  // map resolution (see the header comment). The wide terms read base before
  // anything blurs it; the last narrow term then blurs base itself, and any
  // other narrow term (all come before it) blurs a copy.
  const auto& terms = psf.terms();
  std::vector<std::optional<CoarseTerm>> coarse(terms.size());
  std::size_t in_place = terms.size();
  for (std::size_t t = 0; t < terms.size(); ++t) {
    const int k = term_k(terms[t].sigma, pixel);
    if (k > 1) {
      coarse[t].emplace(base, terms[t], k, options.threads);
    } else {
      in_place = t;
    }
  }
  std::vector<Raster> copies;
  copies.reserve(terms.size());  // fine[] points into them
  std::vector<const double*> fine(terms.size(), nullptr);
  for (std::size_t t = 0; t < terms.size(); ++t) {
    if (coarse[t]) continue;
    Raster& target = t == in_place ? base : copies.emplace_back(base);
    blur_dose_window(target,
                     gaussian_kernel_taps(terms[t].sigma / static_cast<double>(pixel)),
                     x0, y0, x1, y1, options.threads);
    fine[t] = target.data().data();
  }

  // One pass sums the terms into base: each pixel is 0.0 + w_t * v_t over
  // the terms in PSF order, the order a zeroed accumulator would see them.
  const std::size_t nx = static_cast<std::size_t>(base.width());
  parallel_for(
      static_cast<std::size_t>(base.height()),
      [&](std::size_t r0, std::size_t r1) {
        std::vector<double> acc(nx);
        for (std::size_t y = r0; y < r1; ++y) {
          std::fill(acc.begin(), acc.end(), 0.0);
          for (std::size_t t = 0; t < terms.size(); ++t) {
            const double w = terms[t].weight;
            if (coarse[t]) {
              coarse[t]->add_row(static_cast<int>(y), w, acc.data());
              continue;
            }
            const double* in = fine[t] + y * nx;
            for (std::size_t x = 0; x < nx; ++x) acc[x] += w * in[x];
          }
          std::copy(acc.begin(), acc.end(), base.data().data() + y * nx);
        }
      },
      options.threads);
  return base;
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
