// Host-speed probe for the timed loops.
//
// The benchmark runs on shared machines whose speed drifts by tens of
// percent over minutes, for every process at once. A fixed mix of work that
// does not use the library (a sort, a floating-point loop and a streaming
// pass over 48 MB) is timed next to every job; dividing the job's wall time
// by the probe's and multiplying by the probe's time on the reference host
// gives the job's time in reference-host seconds. The drift cancels in the
// ratio, while a change to the library moves the job and not the probe.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace e2e {

/// Median of HostProbe::run() on the reference host: a 4-core Xeon VM
/// (Intel Xeon Processor, 105 MB L3), GCC 12 -O3, when the benchmark was
/// defined.
inline constexpr double kReferenceProbeSeconds = 0.0097;

class HostProbe {
 public:
  HostProbe() : keys_(1 << 18), sorted_(1 << 18), a_(1 << 21, 1.0), b_(1 << 21, 2.0),
                c_(1 << 21, 0.5) {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;  // fixed xorshift stream
    for (std::uint32_t& k : keys_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = static_cast<std::uint32_t>(x);
    }
  }

  /// Runs the three kernels once; returns the geometric mean of their wall
  /// times in seconds.
  double run() {
    using Clock = std::chrono::steady_clock;
    auto secs = [](Clock::time_point t0) {
      return std::chrono::duration<double>(Clock::now() - t0).count();
    };

    std::copy(keys_.begin(), keys_.end(), sorted_.begin());
    auto t0 = Clock::now();
    std::sort(sorted_.begin(), sorted_.end());
    const double sort_s = secs(t0);
    sink_ = sorted_[sorted_.size() / 2];

    std::vector<double>& v = fp_;
    v.assign(1 << 14, 1.0001);
    t0 = Clock::now();
    double acc = 0.0;
    for (int r = 0; r < 40; ++r) {
      for (double& e : v) {
        e = std::exp(-0.5 * e) + std::sqrt(e + r);
        acc += e;
      }
    }
    const double fp_s = secs(t0);
    sink_ = acc;

    t0 = Clock::now();
    for (int r = 0; r < 3; ++r) {
      for (std::size_t i = 0; i < a_.size(); ++i) a_[i] = b_[i] + 0.5 * c_[i] + 1e-9 * a_[i];
    }
    const double stream_s = secs(t0);
    sink_ = a_[a_.size() / 3];

    return std::cbrt(sort_s * fp_s * stream_s);
  }

 private:
  std::vector<std::uint32_t> keys_, sorted_;
  std::vector<double> a_, b_, c_, fp_;
  // Stores of each kernel's result, so the compiler keeps the work.
  static inline volatile double sink_ = 0.0;
};

}  // namespace e2e
