#include "sim/exposure_sim.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "pec/exposure.h"  // blur primitives
#include "util/contracts.h"
#include "util/parallel.h"

namespace ebl {

namespace {

// Adds weight * (term blurred on a k-times-coarser map) to out at every fine
// pixel centre of base. The map reaches one coarse pixel past base on every
// side: the blur is exact anywhere on the map, so the read-back at the
// frame's outer pixel centres interpolates between blurred values instead
// of toward an off-map zero. The map is laid out in coarse-pixel units
// (pixel 1, coarse pixel -1 of the fine frame at index 0), so it never
// leaves the coordinate range, wherever the frame lies.
void add_coarse_term(const Raster& base, const PsfTerm& term, int k, int threads,
                     Raster& out) {
  const int nx = base.width();
  const int ny = base.height();
  Raster map(Box{0, 0, (nx - 1) / k + 3, (ny - 1) / k + 3}, 1);
  box_average(base.data().data(), nx, ny, k, -1, -1, map.width(), map.height(),
              map.data().data(), threads);
  const double coarse_pixel = static_cast<double>(k) * base.pixel_size();
  separable_blur(map, gaussian_kernel_taps(term.sigma / coarse_pixel), threads);

  // Fine pixel x's centre sits at (x + 0.5) / k coarse pixels from the frame
  // origin, one more from the map's.
  const double w = term.weight;
  parallel_for(
      static_cast<std::size_t>(ny),
      [&](std::size_t r0, std::size_t r1) {
        for (std::size_t y = r0; y < r1; ++y) {
          const double v = (static_cast<double>(y) + 0.5) / k + 1.0;
          double* row = out.data().data() + y * static_cast<std::size_t>(nx);
          for (int x = 0; x < nx; ++x) {
            row[x] += w * map.sample((x + 0.5) / k + 1.0, v);
          }
        }
      },
      threads);
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

  // Every term convolves the same dose map, each at the evaluator's per-term
  // map resolution (see the header comment).
  Raster result(frame.bloated(margin), pixel);
  for (const PsfTerm& term : psf.terms()) {
    const int k = term_k(term.sigma, pixel);
    if (k > 1) {
      add_coarse_term(base, term, k, options.threads, result);
      continue;
    }
    Raster blurred = base;
    separable_blur(blurred,
                   gaussian_kernel_taps(term.sigma / static_cast<double>(pixel)),
                   options.threads);
    auto& out = result.data();
    const auto& in = blurred.data();
    const double w = term.weight;
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += w * in[i];
  }
  return result;
}

Raster develop(const Raster& exposure, const ResistModel& resist) {
  Raster thickness = exposure;
  for (double& v : thickness.data()) v = resist.thickness(v);
  return thickness;
}

namespace {

double bilinear(const Raster& r, double px, double py) {
  const double fx = (px - r.origin().x) / r.pixel_size() - 0.5;
  const double fy = (py - r.origin().y) / r.pixel_size() - 0.5;
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
