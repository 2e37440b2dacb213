// Frozen copy of the original (seed) PEC exposure engine, kept verbatim as
// the benchmark baseline so BENCH_pec.json can report the speedup of the
// current engine against the algorithm the repository started from:
//   - spatial hash as vector-of-vectors bins sized to the analytic cutoff,
//   - per-query neighbor gathering with a heap-allocated candidate list,
//     sort, and unique,
//   - full geometry re-rasterization of every shot on every dose update,
//   - bounds-checked single-threaded separable blur,
//   - a second evaluator rebuilt from scratch for the final error pass.
// Do not "fix" or optimize this file; it is a measurement fixture, not
// production code. The production engine lives in src/pec/.
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "fracture/shot.h"
#include "geom/raster.h"
#include "pec/correction.h"
#include "pec/exposure.h"
#include "pec/psf.h"

namespace ebl::seedref {

inline void seed_gaussian_blur(Raster& raster, double sigma_dbu) {
  const double sigma_px = sigma_dbu / raster.pixel_size();
  const int radius = std::max(1, static_cast<int>(std::ceil(4.0 * sigma_px)));
  std::vector<double> kernel(static_cast<std::size_t>(radius) + 1);
  double norm = 0.0;
  for (int i = 0; i <= radius; ++i) {
    kernel[static_cast<std::size_t>(i)] = std::exp(-(double(i) * i) / (sigma_px * sigma_px));
    norm += (i == 0 ? 1.0 : 2.0) * kernel[static_cast<std::size_t>(i)];
  }
  for (double& k : kernel) k /= norm;

  const int nx = raster.width();
  const int ny = raster.height();
  std::vector<double> tmp(static_cast<std::size_t>(nx) * ny, 0.0);

  for (int y = 0; y < ny; ++y) {
    for (int x = 0; x < nx; ++x) {
      double acc = raster.at(x, y) * kernel[0];
      for (int k = 1; k <= radius; ++k) {
        if (x - k >= 0) acc += raster.at(x - k, y) * kernel[static_cast<std::size_t>(k)];
        if (x + k < nx) acc += raster.at(x + k, y) * kernel[static_cast<std::size_t>(k)];
      }
      tmp[static_cast<std::size_t>(y) * nx + x] = acc;
    }
  }
  for (int y = 0; y < ny; ++y) {
    for (int x = 0; x < nx; ++x) {
      double acc = tmp[static_cast<std::size_t>(y) * nx + x] * kernel[0];
      for (int k = 1; k <= radius; ++k) {
        if (y - k >= 0) acc += tmp[static_cast<std::size_t>(y - k) * nx + x] *
                               kernel[static_cast<std::size_t>(k)];
        if (y + k < ny) acc += tmp[static_cast<std::size_t>(y + k) * nx + x] *
                               kernel[static_cast<std::size_t>(k)];
      }
      raster.at(x, y) = acc;
    }
  }
}

class SeedExposureEvaluator {
 public:
  SeedExposureEvaluator(ShotList shots, const Psf& psf, ExposureOptions options = {})
      : shots_(std::move(shots)), opt_(options) {
    for (const PsfTerm& t : psf.terms()) {
      (t.sigma >= kLongRangeThreshold ? long_terms_ : short_terms_).push_back(t);
    }
    double max_short = 0.0;
    for (const PsfTerm& t : short_terms_) max_short = std::max(max_short, t.sigma);
    cutoff_ = opt_.cutoff_sigmas * max_short;

    Box frame;
    for (const Shot& s : shots_) frame += s.shape.bbox();
    grid_origin_ = frame.lo;
    cell_ = std::max<Coord>(1, static_cast<Coord>(std::max(cutoff_, 64.0)));
    gx_ = static_cast<int>(frame.width() / cell_) + 1;
    gy_ = static_cast<int>(frame.height() / cell_) + 1;
    bins_.assign(static_cast<std::size_t>(gx_) * gy_, {});
    for (std::uint32_t i = 0; i < shots_.size(); ++i) {
      const Box bb = shots_[i].shape.bbox();
      const int x0 = static_cast<int>((Coord64(bb.lo.x) - grid_origin_.x) / cell_);
      const int x1 = static_cast<int>((Coord64(bb.hi.x) - grid_origin_.x) / cell_);
      const int y0 = static_cast<int>((Coord64(bb.lo.y) - grid_origin_.y) / cell_);
      const int y1 = static_cast<int>((Coord64(bb.hi.y) - grid_origin_.y) / cell_);
      for (int y = y0; y <= y1; ++y) {
        for (int x = x0; x <= x1; ++x) {
          bins_[static_cast<std::size_t>(y) * gx_ + x].push_back(i);
        }
      }
    }
    rebuild_long_range();
  }

  const ShotList& shots() const { return shots_; }

  void set_doses(const std::vector<double>& doses) {
    for (std::size_t i = 0; i < doses.size(); ++i) shots_[i].dose = doses[i];
    rebuild_long_range();
  }

  double exposure_at(double px, double py) const {
    double e = 0.0;
    if (!short_terms_.empty()) {
      const int cx = static_cast<int>((px - grid_origin_.x) / cell_);
      const int cy = static_cast<int>((py - grid_origin_.y) / cell_);
      const int reach = static_cast<int>(std::ceil(cutoff_ / cell_)) + 1;
      std::vector<std::uint32_t> near;
      for (int y = std::max(0, cy - reach); y <= std::min(gy_ - 1, cy + reach); ++y) {
        for (int x = std::max(0, cx - reach); x <= std::min(gx_ - 1, cx + reach); ++x) {
          const auto& bin = bins_[static_cast<std::size_t>(y) * gx_ + x];
          near.insert(near.end(), bin.begin(), bin.end());
        }
      }
      std::sort(near.begin(), near.end());
      near.erase(std::unique(near.begin(), near.end()), near.end());
      for (const std::uint32_t idx : near) {
        const Shot& s = shots_[idx];
        const Box bb = s.shape.bbox();
        const double dx = std::max({double(bb.lo.x) - px, px - double(bb.hi.x), 0.0});
        const double dy = std::max({double(bb.lo.y) - py, py - double(bb.hi.y), 0.0});
        if (dx * dx + dy * dy > cutoff_ * cutoff_) continue;
        for (const PsfTerm& term : short_terms_) {
          e += s.dose * term_exposure_trapezoid(term, s.shape, px, py);
        }
      }
    }
    for (const LongMap& lm : long_maps_) {
      const Raster& r = *lm.map;
      const double fx = (px - r.origin().x) / r.pixel_size() - 0.5;
      const double fy = (py - r.origin().y) / r.pixel_size() - 0.5;
      const int ix = static_cast<int>(std::floor(fx));
      const int iy = static_cast<int>(std::floor(fy));
      const double tx = fx - ix;
      const double ty = fy - iy;
      auto sample = [&](int x, int y) -> double {
        if (x < 0 || y < 0 || x >= r.width() || y >= r.height()) return 0.0;
        return r.at(x, y);
      };
      const double v = (1 - tx) * (1 - ty) * sample(ix, iy) +
                       tx * (1 - ty) * sample(ix + 1, iy) +
                       (1 - tx) * ty * sample(ix, iy + 1) +
                       tx * ty * sample(ix + 1, iy + 1);
      e += lm.term.weight * v;
    }
    return e;
  }

  std::pair<double, double> centroid(std::size_t i) const {
    const Trapezoid& t = shots_[i].shape;
    const double w0 = static_cast<double>(t.xr0) - t.xl0;
    const double w1 = static_cast<double>(t.xr1) - t.xl1;
    const double m0 = 0.5 * (static_cast<double>(t.xr0) + t.xl0);
    const double m1 = 0.5 * (static_cast<double>(t.xr1) + t.xl1);
    const double denom = w0 + w1;
    if (denom <= 0) return {m0, 0.5 * (double(t.y0) + t.y1)};
    const double cx = (m0 * (2 * w0 + w1) + m1 * (w0 + 2 * w1)) / (3.0 * denom);
    const double cy =
        t.y0 + (static_cast<double>(t.y1) - t.y0) * (w0 + 2 * w1) / (3.0 * denom);
    return {cx, cy};
  }

  std::vector<double> exposures_at_centroids() const {
    std::vector<double> out(shots_.size());
    for (std::size_t i = 0; i < shots_.size(); ++i) {
      const auto [cx, cy] = centroid(i);
      out[i] = exposure_at(cx, cy);
    }
    return out;
  }

 private:
  void rebuild_long_range() {
    long_maps_.clear();
    if (long_terms_.empty()) return;
    Box frame;
    for (const Shot& s : shots_) frame += s.shape.bbox();
    for (const PsfTerm& term : long_terms_) {
      const Coord margin = static_cast<Coord>(std::ceil(4.0 * term.sigma));
      const Box padded = frame.bloated(margin);
      const Coord pixel =
          std::max<Coord>(1, static_cast<Coord>(term.sigma / kPixelsPerSigma));
      auto raster = std::make_unique<Raster>(padded, pixel);
      for (const Shot& s : shots_) raster->add_coverage(s.shape, s.dose);
      seed_gaussian_blur(*raster, term.sigma);
      long_maps_.push_back(LongMap{term, std::move(raster)});
    }
  }

  ShotList shots_;
  std::vector<PsfTerm> short_terms_;
  std::vector<PsfTerm> long_terms_;
  ExposureOptions opt_;
  Coord cell_ = 1;
  Point grid_origin_{0, 0};
  int gx_ = 0, gy_ = 0;
  std::vector<std::vector<std::uint32_t>> bins_;
  double cutoff_ = 0.0;
  struct LongMap {
    PsfTerm term;
    std::unique_ptr<Raster> map;
  };
  std::vector<LongMap> long_maps_;
};

/// The seed correct_proximity loop verbatim (including the from-scratch
/// final-error evaluator).
inline PecResult seed_correct_proximity(const ShotList& shots, const Psf& psf,
                                        const PecOptions& options) {
  SeedExposureEvaluator eval(shots, psf, options.exposure);
  std::vector<double> doses(shots.size());
  for (std::size_t i = 0; i < shots.size(); ++i) doses[i] = shots[i].dose;

  PecResult result;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    const std::vector<double> e = eval.exposures_at_centroids();
    double max_err = 0.0;
    for (double ei : e) max_err = std::max(max_err, std::abs(ei / options.target - 1.0));
    result.max_error_history.push_back(max_err);
    result.iterations = iter;
    if (max_err < options.tolerance) break;

    for (std::size_t i = 0; i < doses.size(); ++i) {
      const double ratio = options.target / std::max(e[i], 1e-9);
      // The seed's Jacobi step at its default damping of 1.
      doses[i] = std::clamp(doses[i] * std::pow(ratio, 1.0),
                            options.min_dose, options.max_dose);
    }
    eval.set_doses(doses);
  }

  result.shots = eval.shots();
  if (options.dose_classes > 0) quantize_doses(result.shots, options.dose_classes);

  SeedExposureEvaluator final_eval(result.shots, psf, options.exposure);
  double max_err = 0.0;
  for (double ei : final_eval.exposures_at_centroids())
    max_err = std::max(max_err, std::abs(ei / options.target - 1.0));
  result.final_max_error = max_err;
  return result;
}

}  // namespace ebl::seedref
