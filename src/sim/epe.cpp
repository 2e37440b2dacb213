#include "sim/epe.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "util/contracts.h"
#include "util/parallel.h"

namespace ebl {
namespace {

/// Nearest-rank percentile of a sorted vector (q in (0, 1]).
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = sorted.size();
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return sorted[std::min(n - 1, rank == 0 ? 0 : rank - 1)];
}

/// Signed distance from the probe point to the nearest print_level crossing
/// of the exposure along the outward normal, or nullopt when no crossing
/// lies inside [-window, +window]. The bilinear raster is sampled on the
/// grid s_i = -window + ds * i, i = 0..steps, at ~pixel/2 spacing, and a
/// crossing is located in each sign-changing interval by linear
/// interpolation.
///
/// The answer is the first crossing in ascending s with |at| <= ds, else the
/// smallest |at|, the lower s on a tie: what a scan up from -window that
/// stops within ds of 0 returns. The search finds it center-out instead: an
/// interval's end points bound its crossing's |at| from below, so the
/// intervals are visited in order of that bound, from the probe point
/// outward, until it passes the best crossing found. Each sample is taken
/// at most once.
///
/// Exposure is anything with Raster's pixel_size() and sample(x, y): a
/// rendered raster or an ExposureField, which answer with the same bits.
template <typename Exposure>
std::optional<double> probe_crossing(const Exposure& exposure, double level,
                                     double px, double py, double nx, double ny,
                                     double window) {
  const double pix = static_cast<double>(exposure.pixel_size());
  // Clamped in double: 4 * window / pix can pass INT_MAX.
  constexpr int kMaxSteps = 512;
  const int steps = static_cast<int>(
      std::clamp(std::ceil(4.0 * window / pix), 16.0, double(kMaxSteps)));
  const double ds = 2.0 * window / steps;

  const auto s_at = [&](int i) { return -window + ds * i; };
  std::array<double, kMaxSteps + 1> f;
  std::array<bool, kMaxSteps + 1> have{};
  const auto sample = [&](int i) {
    if (!have[static_cast<std::size_t>(i)]) {
      const double s = s_at(i);
      f[static_cast<std::size_t>(i)] = exposure.sample(px + nx * s, py + ny * s) - level;
      have[static_cast<std::size_t>(i)] = true;
    }
    return f[static_cast<std::size_t>(i)];
  };
  // Interval i spans samples i - 1 and i; its crossing, if any, is
  // lo(i) + frac * ds with frac in [0, 1], so it lies in [lo(i), hi(i)].
  const auto lo = [&](int i) { return s_at(i) - ds; };
  const auto hi = [&](int i) { return lo(i) + ds; };
  const auto crossing = [&](int i) -> std::optional<double> {
    const double prev = sample(i - 1);
    const double cur = sample(i);
    if ((prev <= 0.0 && cur > 0.0) || (prev > 0.0 && cur <= 0.0)) {
      const double frac = prev / (prev - cur);
      return lo(i) + frac * ds;
    }
    return std::nullopt;
  };
  // lo and hi rise with i. The first interval reaching up to -ds and the
  // last reaching down to ds bound the only ones whose crossing can lie
  // within ds of 0.
  const auto first = [&](int a, int b, auto&& pred) {  // first i in [a, b) with pred
    while (a < b) {
      const int m = a + (b - a) / 2;
      if (pred(m)) b = m; else a = m + 1;
    }
    return a;
  };
  const int near_lo = first(1, steps + 1, [&](int i) { return hi(i) >= -ds; });
  const int near_hi = first(1, steps + 1, [&](int i) { return lo(i) > ds; }) - 1;

  std::optional<double> best;
  int best_i = 0;
  const auto consider = [&](int i) {
    const auto at = crossing(i);
    if (at && (!best || std::abs(*at) < std::abs(*best) ||
               (std::abs(*at) == std::abs(*best) && i < best_i))) {
      best = at;
      best_i = i;
    }
  };
  for (int i = near_lo; i <= near_hi; ++i) {
    consider(i);
    if (best && std::abs(*best) <= ds) return best;  // cannot get closer to 0
  }
  // Outside [near_lo, near_hi] every crossing is farther than ds from 0:
  // walk both ways, nearer bound first, until the bound passes the best.
  int left = near_lo - 1;
  int right = near_hi + 1;
  while (left >= 1 || right <= steps) {
    const double bound_left = left >= 1 ? -hi(left) : HUGE_VAL;
    const double bound_right = right <= steps ? lo(right) : HUGE_VAL;
    const bool go_left = bound_left <= bound_right;
    if (best && (go_left ? bound_left : bound_right) > std::abs(*best)) break;
    consider(go_left ? left-- : right++);
  }
  return best;
}

/// Scores edges [begin, end) into acc, probe by probe in edge order.
template <typename Exposure>
void score_edges(const Exposure& exposure, double print_level,
                 const std::vector<EpeEdge>& edges, std::size_t begin, std::size_t end,
                 const EpeOptions& options, EpeAccumulator& acc) {
  expects(print_level > 0, "score_epe: print_level must be positive");
  expects(options.search_window > 0, "score_epe: search_window must be positive");
  const double pix = static_cast<double>(exposure.pixel_size());
  const double step = options.sample_step > 0
                          ? static_cast<double>(options.sample_step)
                          : 2.0 * pix;
  const double excl = options.corner_exclusion > 0
                          ? static_cast<double>(options.corner_exclusion)
                          : std::max(4.0 * pix, 100.0);
  const double window = static_cast<double>(options.search_window);

  std::vector<double> offsets;
  for (std::size_t i = begin; i < end; ++i) {
    const EpeEdge& e = edges[i];
    const double ex = static_cast<double>(e.b.x) - e.a.x;
    const double ey = static_cast<double>(e.b.y) - e.a.y;
    const double len = std::hypot(ex, ey);
    if (len <= 0.0) continue;
    const double dx = ex / len, dy = ey / len;
    // Outward normal: right of the travel direction (material is left).
    const double nx = dy, ny = -dx;

    offsets.clear();
    if (len <= 2.0 * excl + step) {
      offsets.push_back(0.5 * len);  // too short: single midpoint probe
    } else {
      for (double t = excl; t <= len - excl; t += step) offsets.push_back(t);
    }
    for (double t : offsets) {
      const double px = e.a.x + dx * t;
      const double py = e.a.y + dy * t;
      const auto crossing =
          probe_crossing(exposure, print_level, px, py, nx, ny, window);
      if (crossing) {
        acc.add(*crossing, false);
      } else {
        // No printed edge in the window: worst-case penalty with the sign of
        // the failure (all-above = oversize, all-below = undersize).
        const double at_edge = exposure.sample(px, py);
        acc.add(at_edge >= print_level ? window : -window, true);
      }
    }
  }
}

}  // namespace

void EpeAccumulator::add(double signed_epe, bool missing) {
  values_.push_back(signed_epe);
  if (missing) ++missing_;
}

void EpeAccumulator::append(const EpeAccumulator& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  missing_ += other.missing_;
}

EpeStats EpeAccumulator::finalize() const {
  EpeStats stats;
  stats.samples = values_.size();
  stats.missing = missing_;
  if (values_.empty()) return stats;
  std::vector<double> abs_vals(values_.size());
  double sum_abs = 0.0, sum_signed = 0.0;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    abs_vals[i] = std::abs(values_[i]);
    sum_abs += abs_vals[i];
    sum_signed += values_[i];
  }
  std::sort(abs_vals.begin(), abs_vals.end());
  stats.p50 = percentile(abs_vals, 0.50);
  stats.p99 = percentile(abs_vals, 0.99);
  stats.max = abs_vals.back();
  stats.mean_abs = sum_abs / static_cast<double>(values_.size());
  stats.mean_signed = sum_signed / static_cast<double>(values_.size());
  return stats;
}

std::vector<EpeEdge> epe_edges(const PolygonSet& target) {
  std::vector<EpeEdge> edges;
  const PolygonSet merged = target.merged();
  auto add_contour = [&edges](const SimplePolygon& contour) {
    const auto pts = contour.points();
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const Point a = pts[i];
      const Point b = pts[(i + 1) % pts.size()];
      if (a.x != b.x || a.y != b.y) edges.push_back({a, b});
    }
  };
  for (const Polygon& poly : merged.polygons()) {
    add_contour(poly.outer());  // CCW: material left
    for (const SimplePolygon& hole : poly.holes()) add_contour(hole);  // CW
  }
  return edges;
}

void score_epe(const Raster& exposure, double print_level,
               const std::vector<EpeEdge>& edges, const EpeOptions& options,
               EpeAccumulator& acc) {
  score_edges(exposure, print_level, edges, 0, edges.size(), options, acc);
}

EpeStats score_epe(const Raster& exposure, double print_level,
                   const std::vector<EpeEdge>& edges,
                   const EpeOptions& options) {
  EpeAccumulator acc;
  score_epe(exposure, print_level, edges, options, acc);
  return acc.finalize();
}

void score_epe(const ExposureField& exposure, double print_level,
               const std::vector<EpeEdge>& edges, const EpeOptions& options,
               EpeAccumulator& acc) {
  // Contiguous edge ranges of about equal length, a few per thread, each
  // scored into its own accumulator and appended in edge order: acc sees
  // the probes in the order one serial pass would add them.
  const std::size_t parts = std::clamp<std::size_t>(
      edges.size(), 1, 4 * static_cast<std::size_t>(resolve_threads(exposure.threads())));
  std::vector<double> reach(edges.size() + 1, 0.0);  // cumulative edge length
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const EpeEdge& e = edges[i];
    reach[i + 1] = reach[i] + std::hypot(static_cast<double>(e.b.x) - e.a.x,
                                         static_cast<double>(e.b.y) - e.a.y);
  }
  std::vector<std::size_t> cuts(parts + 1, edges.size());
  cuts[0] = 0;
  for (std::size_t p = 1; p < parts; ++p) {
    const double at = reach.back() * static_cast<double>(p) / static_cast<double>(parts);
    cuts[p] = static_cast<std::size_t>(
        std::lower_bound(reach.begin(), reach.end(), at) - reach.begin());
    cuts[p] = std::clamp(cuts[p], cuts[p - 1], edges.size());
  }
  std::vector<EpeAccumulator> part_acc(parts);
  parallel_for(
      parts,
      [&](std::size_t p0, std::size_t p1) {
        for (std::size_t p = p0; p < p1; ++p)
          score_edges(exposure, print_level, edges, cuts[p], cuts[p + 1], options,
                      part_acc[p]);
      },
      exposure.threads());
  for (const EpeAccumulator& part : part_acc) acc.append(part);
}

EpeStats score_epe(const ExposureField& exposure, double print_level,
                   const std::vector<EpeEdge>& edges, const EpeOptions& options) {
  EpeAccumulator acc;
  score_epe(exposure, print_level, edges, options, acc);
  return acc.finalize();
}

EpeStats measure_epe(const ShotList& shots, const Psf& psf,
                     const PolygonSet& target, double print_level,
                     const EpeOptions& options) {
  const ExposureField exposure(shots, psf, options.sim);
  return score_epe(exposure, print_level, epe_edges(target), options);
}

EpeStats measure_epe(const ShotList& shots, const Psf& psf,
                     const PolygonSet& target, const ResistModel& resist,
                     const EpeOptions& options) {
  return measure_epe(shots, psf, target, resist.print_threshold(), options);
}

}  // namespace ebl
