#include "pec/exposure.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>

#include "util/contracts.h"
#include "util/parallel.h"
#include "util/vecmath.h"

namespace ebl {

namespace {

// Least rows of the fine base per gather band: the unit of the streamed
// refresh and of the shot binning that feeds it. The band height is the
// least multiple of every coarse term's k at or above this.
constexpr int kMinBandRows = 16;

// detail::force_refresh_strips' count; 0 = two strips per thread.
std::atomic<int> g_refresh_strips{0};

// detail::force_term_split's choice.
std::atomic<detail::TermSplit> g_term_split{detail::TermSplit::cost};

// Epoch-stamped visited marks for duplicate rejection in neighbor queries
// (a shot's bbox spans several grid cells, so it appears in several bins).
// Thread-local so concurrent queries share nothing; bumping the epoch
// invalidates all marks in O(1), so steady-state queries never allocate.
struct VisitScratch {
  std::vector<std::uint32_t> stamp;
  std::uint32_t epoch = 0;
};
thread_local VisitScratch t_visit;

// Prepares the thread-local visit marks for a fresh query over @p n shots
// and returns the epoch to stamp with — the one duplicate-rejection
// preamble every grid walk shares.
std::uint32_t begin_visit_epoch(std::size_t n) {
  VisitScratch& vs = t_visit;
  if (vs.stamp.size() < n) {
    vs.stamp.assign(n, 0);
    vs.epoch = 0;
  }
  if (++vs.epoch == 0) {  // epoch wrapped: all marks are stale anyway
    std::fill(vs.stamp.begin(), vs.stamp.end(), 0);
    vs.epoch = 1;
  }
  return vs.epoch;
}

// Scratch for building the short-range operator: erf arguments for one
// query are packed contiguously (4 per rectangle integral), evaluated in
// one erf_batch call, then differenced in emission order. Thread-local so
// the parallel build shares nothing; batch composition depends only on the
// query, so the operator is bit-identical for any thread count.
struct ShortScratch {
  std::vector<double> args;
  std::vector<double> erfs;
  std::vector<std::uint32_t> src;
};
thread_local ShortScratch t_short;

// Strips a slanted shape is sliced into for term: none taller than sigma/2.
int term_slices(const PsfTerm& term, const Trapezoid& t) {
  const double height = static_cast<double>(t.y1) - t.y0;
  const double max_slice = std::max(term.sigma * 0.5, 1.0);
  return std::max(1, static_cast<int>(std::ceil(height / max_slice)));
}

// Emits the rectangle integrals of one (term, shape) pair as packed erf
// arguments and returns how many. Mirrors term_exposure_trapezoid exactly:
// rectangles are exact, slanted sides are sliced into term_slices strips
// with the same strip arithmetic, so the batched sum equals the scalar path
// up to the erf implementation and summation grouping.
std::size_t emit_term_rects(const PsfTerm& term, const Trapezoid& t, double px,
                            double py, std::vector<double>& args) {
  const double inv_s = 1.0 / term.sigma;
  if (t.is_rect()) {
    args.push_back((t.xl0 - px) * inv_s);
    args.push_back((t.xr0 - px) * inv_s);
    args.push_back((t.y0 - py) * inv_s);
    args.push_back((t.y1 - py) * inv_s);
    return 1;
  }
  const double height = static_cast<double>(t.y1) - t.y0;
  const int slices = term_slices(term, t);
  const double inv_h = 1.0 / height;
  std::size_t n = 0;
  for (int i = 0; i < slices; ++i) {
    const double ya = t.y0 + height * i / slices;
    const double yb = t.y0 + height * (i + 1) / slices;
    const double ym = 0.5 * (ya + yb);
    const double fl = (ym - t.y0) * inv_h;
    const double xl = t.xl0 + (t.xl1 - t.xl0) * fl;
    const double xr = t.xr0 + (t.xr1 - t.xr0) * fl;
    if (xr <= xl) continue;
    args.push_back((xl - px) * inv_s);
    args.push_back((xr - px) * inv_s);
    args.push_back((ya - py) * inv_s);
    args.push_back((yb - py) * inv_s);
    ++n;
  }
  return n;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   t0)
      .count();
}

// The long-range blur is one fused sweep. The raster is cut into bands of
// whole rows, one parallel_for index each. A band row-blurs the rows it
// needs into a ring of 2r + 1 rows and writes each of its output rows once,
// from the ring, by the column kernel. The rows within r of a band boundary
// are needed by the bands on both sides, so one pass row-blurs them into a
// halo buffer before any band runs: no row is blurred twice, and no band
// reads a raw row another band may already have overwritten, so the sweep
// can run in place.
//
// The kernels hold the hottest loops of every PEC solve. Each output is
// accumulated in registers, kBlock vectors at a time, across all of its
// taps in one fixed order: k0 * c, then w_k * left and w_k * right for
// k = 1..r, skipping taps that fall off the raster (no edge
// renormalization). Every pixel is stored once. Each kernel is built twice
// from one body: with target("avx2") on 4-wide vectors, and for the x86-64
// baseline on the 2-wide vectors SSE2 holds natively (GCC splits wider
// ones through the stack). has_avx2_fma (util/vecmath.h) picks one at run
// time. Neither build may contract to FMA, so both give the same bits. The
// kernels are separate functions pinned to 64-byte boundaries, so code
// added or removed elsewhere in the library cannot shift their loops across
// instruction-fetch boundaries: a 16-byte shift of the code before such
// loops, inlined, once moved pec_distributed's job time by 17%.

typedef double v2d __attribute__((vector_size(16)));
typedef double v4d __attribute__((vector_size(32)));

// Accumulators per register block: eight of the sixteen vector registers
// either build has, leaving room for a tap weight and the loads.
constexpr int kBlock = 8;

// Band-parallel sweeps run kBandsPerThread bands per thread, so a thread
// that falls behind does not hold up the others for a whole share.
constexpr int kBandsPerThread = 2;

// acc = w * p[0..L), acc += w * p[0..L) and p[0..L) = acc for a lane group
// V of L doubles: v4d, v2d or double (the loads and stores are unaligned).
// Vectors pass by reference only: by value they would take a different ABI
// in the baseline build than in the AVX2 one.
template <typename V>
[[gnu::always_inline]] inline void mul(V& acc, double w, const double* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  acc = w * v;
}

template <typename V>
[[gnu::always_inline]] inline void mul_add(V& acc, double w, const double* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  acc += w * v;
}

template <typename V>
[[gnu::always_inline]] inline void store(double* p, const V& acc) {
  const V v = acc;
  std::memcpy(p, &v, sizeof v);
}

template <typename V>
constexpr int kLanes = static_cast<int>(sizeof(V) / sizeof(double));

// Row kernel, B vectors of V at in/out, every tap on the row.
template <typename V, int B>
[[gnu::always_inline]] inline void row_block(const double* in, double* out,
                                             const double* taps, int radius) {
  constexpr int L = kLanes<V>;
  V acc[B];
  for (int b = 0; b < B; ++b) mul(acc[b], taps[0], in + b * L);
  for (int k = 1; k <= radius; ++k) {
    const double w = taps[k];
    for (int b = 0; b < B; ++b) {
      mul_add(acc[b], w, in + b * L - k);
      mul_add(acc[b], w, in + b * L + k);
    }
  }
  for (int b = 0; b < B; ++b) store(out + b * L, acc[b]);
}

// out[0 .. x1 - x0) <- kernel * in at pixels [x0, x1) of a row of nx.
template <typename V>
[[gnu::always_inline]] inline void row_span(const double* in, double* out, int nx,
                                            int x0, int x1, const double* taps,
                                            int radius) {
  constexpr int L = kLanes<V>;
  // Pixel x of an edge misses the taps past the row's ends.
  const auto edge = [&](int x) {
    double acc = taps[0] * in[x];
    for (int k = 1; k <= radius; ++k) {
      if (x - k >= 0) acc += taps[k] * in[x - k];
      if (x + k < nx) acc += taps[k] * in[x + k];
    }
    out[x - x0] = acc;
  };
  const int lo = std::min(std::max(x0, radius), x1);       // [x0, lo): left edge
  const int hi = std::max(lo, std::min(x1, nx - radius));  // [lo, hi): every tap in range
  for (int x = x0; x < lo; ++x) edge(x);
  int x = lo;
  for (; x + L * kBlock <= hi; x += L * kBlock)
    row_block<V, kBlock>(in + x, out + (x - x0), taps, radius);
  for (; x + L <= hi; x += L) row_block<V, 1>(in + x, out + (x - x0), taps, radius);
  for (; x < hi; ++x) row_block<double, 1>(in + x, out + (x - x0), taps, radius);
  for (x = hi; x < x1; ++x) edge(x);
}

// out <- kernel * in, along one row of nx pixels.
template <typename V>
[[gnu::always_inline]] inline void row_body(const double* in, double* out, int nx,
                                            const double* taps, int radius) {
  row_span<V>(in, out, nx, 0, nx, taps, radius);
}

// out <- kernel * in at each run of a row of nx, the runs' outputs packed
// one after another.
template <typename V>
[[gnu::always_inline]] inline void row_runs_body(const double* in, double* out, int nx,
                                                 const detail::ColumnRun* runs,
                                                 std::size_t nruns, const double* taps,
                                                 int radius) {
  for (std::size_t i = 0; i < nruns; ++i) {
    const int x0 = static_cast<int>(runs[i].x);
    const int n = static_cast<int>(runs[i].n);
    row_span<V>(in, out, nx, x0, x0 + n, taps, radius);
    out += n;
  }
}

// Column kernel, B vectors of V at column x: win[0] is the row-blurred row
// of the output, win[-k] and win[k] the rows k above and below it, of which
// the first ku and kd lie on the raster.
template <typename V, int B>
[[gnu::always_inline]] inline void column_block(const double* const* win, std::size_t x,
                                                double* out, const double* taps,
                                                int ku, int kd) {
  constexpr int L = kLanes<V>;
  V acc[B];
  for (int b = 0; b < B; ++b) mul(acc[b], taps[0], win[0] + x + b * L);
  const int both = std::min(ku, kd);
  int k = 1;
  for (; k <= both; ++k) {
    const double w = taps[k];
    const double* a = win[-k] + x;
    const double* c = win[k] + x;
    for (int b = 0; b < B; ++b) {
      mul_add(acc[b], w, a + b * L);
      mul_add(acc[b], w, c + b * L);
    }
  }
  // Past the nearer edge only one side has taps left.
  for (int j = k; j <= ku; ++j)
    for (int b = 0; b < B; ++b) mul_add(acc[b], taps[j], win[-j] + x + b * L);
  for (int j = k; j <= kd; ++j)
    for (int b = 0; b < B; ++b) mul_add(acc[b], taps[j], win[j] + x + b * L);
  for (int b = 0; b < B; ++b) store(out + x + b * L, acc[b]);
}

// out <- kernel * the column neighbourhood in win, across nx pixels.
template <typename V>
[[gnu::always_inline]] inline void column_body(const double* const* win, double* out,
                                               int nx, const double* taps, int ku,
                                               int kd) {
  constexpr std::size_t L = kLanes<V>;
  const std::size_t n = static_cast<std::size_t>(nx);
  std::size_t x = 0;
  for (; x + L * kBlock <= n; x += L * kBlock)
    column_block<V, kBlock>(win, x, out, taps, ku, kd);
  for (; x + L <= n; x += L) column_block<V, 1>(win, x, out, taps, ku, kd);
  for (; x < n; ++x) column_block<double, 1>(win, x, out, taps, ku, kd);
}

// column_block for B vectors of V at columns xs[0 .. B), which need not be
// adjacent, stored one after another from out on.
template <typename V, int B>
[[gnu::always_inline]] inline void column_gather(const double* const* win,
                                                 const std::size_t* xs, double* out,
                                                 const double* taps, int ku, int kd) {
  constexpr int L = kLanes<V>;
  V acc[B];
  for (int b = 0; b < B; ++b) mul(acc[b], taps[0], win[0] + xs[b]);
  const int both = std::min(ku, kd);
  int k = 1;
  for (; k <= both; ++k) {
    const double w = taps[k];
    const double* a = win[-k];
    const double* c = win[k];
    for (int b = 0; b < B; ++b) {
      mul_add(acc[b], w, a + xs[b]);
      mul_add(acc[b], w, c + xs[b]);
    }
  }
  for (int j = k; j <= ku; ++j)
    for (int b = 0; b < B; ++b) mul_add(acc[b], taps[j], win[-j] + xs[b]);
  for (int j = k; j <= kd; ++j)
    for (int b = 0; b < B; ++b) mul_add(acc[b], taps[j], win[j] + xs[b]);
  for (int b = 0; b < B; ++b) store(out + b * L, acc[b]);
}

// The last n of the vectors at xs, in blocks of B, then of B / 2, ... 1.
template <typename V, int B>
[[gnu::always_inline]] inline void column_gather_rest(const double* const* win,
                                                      const std::size_t* xs, int n,
                                                      double* out, const double* taps,
                                                      int ku, int kd) {
  for (; n >= B; n -= B, xs += B, out += B * kLanes<V>)
    column_gather<V, B>(win, xs, out, taps, ku, kd);
  if constexpr (B > 1) column_gather_rest<V, B / 2>(win, xs, n, out, taps, ku, kd);
}

// out <- kernel * the column neighbourhood in win at each run, the runs'
// outputs packed one after another. Runs are short, so a register block
// takes its vectors from as many runs as it needs. Only a run that ends at
// the raster's right edge, and so is the last, may end in a partial vector.
template <typename V>
[[gnu::always_inline]] inline void column_runs_body(const double* const* win,
                                                    const detail::ColumnRun* runs,
                                                    std::size_t nruns, double* out,
                                                    const double* taps, int ku, int kd) {
  constexpr std::size_t L = kLanes<V>;
  std::size_t xs[kBlock];
  int pending = 0;
  for (std::size_t i = 0; i < nruns; ++i) {
    std::size_t x = runs[i].x;
    const std::size_t end = x + runs[i].n;
    for (; x + L <= end; x += L) {
      xs[pending++] = x;
      if (pending == kBlock) {
        column_gather<V, kBlock>(win, xs, out, taps, ku, kd);
        out += kBlock * L;
        pending = 0;
      }
    }
    if (x == end) continue;
    column_gather_rest<V, kBlock / 2>(win, xs, pending, out, taps, ku, kd);
    out += pending * L;
    pending = 0;
    for (; x < end; ++x) column_gather<double, 1>(win, &x, out++, taps, ku, kd);
  }
  column_gather_rest<V, kBlock / 2>(win, xs, pending, out, taps, ku, kd);
}

[[gnu::noinline, gnu::aligned(64)]] void blur_row_baseline(const double* in, double* out,
                                                           int nx, const double* taps,
                                                           int radius) {
  row_body<v2d>(in, out, nx, taps, radius);
}

[[gnu::noinline, gnu::aligned(64)]] void blur_column_baseline(const double* const* win,
                                                              double* out, int nx,
                                                              const double* taps, int ku,
                                                              int kd) {
  column_body<v2d>(win, out, nx, taps, ku, kd);
}

[[gnu::noinline, gnu::aligned(64)]] void blur_row_runs_baseline(
    const double* in, double* out, int nx, const detail::ColumnRun* runs,
    std::size_t nruns, const double* taps, int radius) {
  row_runs_body<v2d>(in, out, nx, runs, nruns, taps, radius);
}

[[gnu::noinline, gnu::aligned(64)]] void blur_column_runs_baseline(
    const double* const* win, const detail::ColumnRun* runs, std::size_t nruns,
    double* out, const double* taps, int ku, int kd) {
  column_runs_body<v2d>(win, runs, nruns, out, taps, ku, kd);
}

struct BlurKernels {
  void (*row)(const double*, double*, int, const double*, int);
  void (*column)(const double* const*, double*, int, const double*, int, int);
  void (*row_runs)(const double*, double*, int, const detail::ColumnRun*, std::size_t,
                   const double*, int);
  void (*column_runs)(const double* const*, const detail::ColumnRun*, std::size_t,
                      double*, const double*, int, int);
};
constexpr BlurKernels kBaselineKernels{blur_row_baseline, blur_column_baseline,
                                       blur_row_runs_baseline, blur_column_runs_baseline};

#if defined(__x86_64__) && defined(__GNUC__)
#define EBL_BLUR_AVX2 1

[[gnu::noinline, gnu::aligned(64), gnu::target("avx2")]] void blur_row_avx2(
    const double* in, double* out, int nx, const double* taps, int radius) {
  row_body<v4d>(in, out, nx, taps, radius);
}

[[gnu::noinline, gnu::aligned(64), gnu::target("avx2")]] void blur_column_avx2(
    const double* const* win, double* out, int nx, const double* taps, int ku, int kd) {
  column_body<v4d>(win, out, nx, taps, ku, kd);
}

[[gnu::noinline, gnu::aligned(64), gnu::target("avx2")]] void blur_row_runs_avx2(
    const double* in, double* out, int nx, const detail::ColumnRun* runs,
    std::size_t nruns, const double* taps, int radius) {
  row_runs_body<v4d>(in, out, nx, runs, nruns, taps, radius);
}

[[gnu::noinline, gnu::aligned(64), gnu::target("avx2")]] void blur_column_runs_avx2(
    const double* const* win, const detail::ColumnRun* runs, std::size_t nruns,
    double* out, const double* taps, int ku, int kd) {
  column_runs_body<v4d>(win, runs, nruns, out, taps, ku, kd);
}

constexpr BlurKernels kAvx2Kernels{blur_row_avx2, blur_column_avx2, blur_row_runs_avx2,
                                   blur_column_runs_avx2};
#endif

const BlurKernels& cpu_kernels() {
#ifdef EBL_BLUR_AVX2
  if (has_avx2_fma()) return kAvx2Kernels;
#endif
  return kBaselineKernels;
}

// Per-thread state of the sweep, reused across calls so steady-state blurs
// never allocate. The halo belongs to the calling thread: the rows within
// r of a band boundary, row-blurred (slot[y] is row y's index in it, or
// -1). The ring belongs to whichever thread runs a band.
struct BlurHalo {
  std::vector<int> slot;
  std::vector<int> rows;
  std::vector<double> data;
};
thread_local BlurHalo t_halo;
struct BlurRing {
  std::vector<double> rows;
  std::vector<const double*> win;
};
thread_local BlurRing t_ring;

// The band sweep of both blurs over an ny-row raster in nb bands.
// row_blur(y, out) row-blurs raster row y into a scratch row of width
// doubles; column(win, y, ku, kd) writes output row y from win (win[0] is
// row y's row-blur, see column_block). Only rows y with writes(y) are
// written, and only rows with need[y] set (every row when need is null)
// are row-blurred: each row within r of a written row must have it.
template <typename RowBlur, typename Writes, typename Column>
void band_sweep(int ny, int nb, int radius, std::size_t width, const std::uint8_t* need,
                int threads, const RowBlur& row_blur, const Writes& writes,
                const Column& column) {
  nb = std::clamp(nb, 1, ny);
  const auto band_start = [&](int b) {
    return static_cast<int>(static_cast<std::int64_t>(ny) * b / nb);
  };
  const auto needed = [&](int y) { return !need || need[y]; };

  // Bound through a local reference: the band lambda runs on pool threads,
  // where the name t_halo would resolve to their own instances.
  BlurHalo& halo = t_halo;
  halo.slot.assign(static_cast<std::size_t>(ny), -1);
  halo.rows.clear();
  for (int b = 1; b < nb; ++b) {
    const int edge = band_start(b);
    for (int y = std::max(0, edge - radius); y < std::min(ny, edge + radius); ++y) {
      int& s = halo.slot[static_cast<std::size_t>(y)];
      if (s >= 0 || !needed(y)) continue;
      s = static_cast<int>(halo.rows.size());
      halo.rows.push_back(y);
    }
  }
  halo.data.resize(halo.rows.size() * width);
  parallel_for(
      halo.rows.size(),
      [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          row_blur(halo.rows[i], halo.data.data() + i * width);
      },
      threads);

  parallel_for(
      static_cast<std::size_t>(nb),
      [&](std::size_t b0, std::size_t b1) {
        BlurRing& ring = t_ring;
        const int span = 2 * radius + 1;
        ring.rows.resize(static_cast<std::size_t>(span) * width);
        for (std::size_t b = b0; b < b1; ++b) {
          const int y0 = band_start(static_cast<int>(b));
          const int y1 = band_start(static_cast<int>(b) + 1);
          // win[y - first] points at row y's row-blur for y in
          // [y0 - r, y1 + r); rows off the raster are never read.
          const int first = y0 - radius;
          ring.win.assign(static_cast<std::size_t>(y1 - y0 + 2 * radius), nullptr);
          int next = std::max(0, first);  // next row to row-blur or fetch
          for (int y = y0; y < y1; ++y) {
            if (!writes(y)) continue;
            for (const int last = std::min(ny, y + radius + 1); next < last; ++next) {
              if (!needed(next)) continue;
              const int s = halo.slot[static_cast<std::size_t>(next)];
              const double* p;
              if (s >= 0) {
                p = halo.data.data() + static_cast<std::size_t>(s) * width;
              } else {
                // Unstaged rows lie inside this band, and the band writes
                // row y only after reading every row up to y + r.
                double* r = ring.rows.data() + static_cast<std::size_t>(next % span) * width;
                row_blur(next, r);
                p = r;
              }
              ring.win[static_cast<std::size_t>(next - first)] = p;
            }
            column(ring.win.data() + (y - first), y, std::min(radius, y),
                   std::min(radius, ny - 1 - y));
          }
        }
      },
      threads);
}

void fused_blur(const double* src, double* dst, int nx, int ny, std::size_t stride,
                const std::vector<double>& taps, int threads, int bands,
                const BlurKernels& kern) {
  expects(!taps.empty(), "separable_blur: empty kernel");
  if (nx <= 0 || ny <= 0) return;
  const int radius = static_cast<int>(taps.size()) - 1;
  const double* w = taps.data();
  band_sweep(
      ny, bands, radius, static_cast<std::size_t>(nx), nullptr, threads,
      [&](int y, double* out) {
        kern.row(src + static_cast<std::size_t>(y) * stride, out, nx, w, radius);
      },
      [](int) { return true; },
      [&](const double* const* win, int y, int ku, int kd) {
        kern.column(win, dst + static_cast<std::size_t>(y) * stride, nx, w, ku, kd);
      });
}

// The fused sweep over a read set (see detail::ReadSet), from an nx x ny
// raster src into values: it row-blurs only the needed rows, at the column
// runs, into compact rows, and column-combines only the read pixels. The
// rows, bands, halo and tap order are the fused sweep's, so every value
// equals that pixel of separable_blur's output bit for bit.
void read_set_blur(const double* src, int nx, int ny, const detail::ReadSet& rs,
                   const std::vector<double>& taps, int threads, const BlurKernels& kern,
                   double* values) {
  if (rs.width == 0) return;
  const int radius = static_cast<int>(taps.size()) - 1;
  const double* w = taps.data();
  const auto run = [&](int y) { return rs.run_start[static_cast<std::size_t>(y)]; };
  band_sweep(
      ny, resolve_threads(threads) * kBandsPerThread, radius, rs.width,
      rs.need_row.data(), threads,
      [&](int y, double* out) {
        kern.row_runs(src + static_cast<std::size_t>(y) * static_cast<std::size_t>(nx), out,
                      nx, rs.cols.data(), rs.cols.size(), w, radius);
      },
      [&](int y) { return run(y) != run(y + 1); },
      [&](const double* const* win, int y, int ku, int kd) {
        kern.column_runs(win, rs.runs.data() + run(y), run(y + 1) - run(y),
                         values + rs.value_start[static_cast<std::size_t>(y)], w, ku, kd);
      });
}

// The column half of read_set_blur over row blurs staged ahead: row y's,
// at the read set's columns, is rows + row_slot[y] * rs.width for every
// row with need_row set. The taps and their order are read_set_blur's, so
// every value is too, bit for bit.
void staged_column_blur(const double* rows, const std::uint32_t* row_slot, int ny,
                        const detail::ReadSet& rs, const std::vector<double>& taps,
                        int threads, const BlurKernels& kern, double* values) {
  if (rs.width == 0) return;
  const int radius = static_cast<int>(taps.size()) - 1;
  const auto run = [&](int y) { return rs.run_start[static_cast<std::size_t>(y)]; };
  parallel_for(
      static_cast<std::size_t>(ny),
      [&](std::size_t y0, std::size_t y1) {
        std::vector<const double*>& win = t_ring.win;
        win.assign(static_cast<std::size_t>(2 * radius + 1), nullptr);
        for (int y = static_cast<int>(y0); y < static_cast<int>(y1); ++y) {
          if (run(y) == run(y + 1)) continue;
          const int ku = std::min(radius, y);
          const int kd = std::min(radius, ny - 1 - y);
          for (int j = -ku; j <= kd; ++j)
            win[static_cast<std::size_t>(radius + j)] =
                rows + row_slot[static_cast<std::size_t>(y + j)] * rs.width;
          kern.column_runs(win.data() + radius, rs.runs.data() + run(y),
                           run(y + 1) - run(y),
                           values + rs.value_start[static_cast<std::size_t>(y)],
                           taps.data(), ku, kd);
        }
      },
      threads);
}

// Pixel (x, y) of separable_blur over an nx x ny raster, formed alone with
// the sweep's tap order: each row's taps, then the column's. rows holds the
// raster from row row0 on, which must cover rows y - r to y + r on it.
double blurred_pixel(const double* rows, int row0, int nx, int ny,
                     const std::vector<double>& taps, int x, int y) {
  const int radius = static_cast<int>(taps.size()) - 1;
  const auto row = [&](int yy) {
    const double* in = rows + static_cast<std::size_t>(yy - row0) * nx;
    double acc = taps[0] * in[x];
    for (int k = 1; k <= radius; ++k) {
      if (x - k >= 0) acc += taps[k] * in[x - k];
      if (x + k < nx) acc += taps[k] * in[x + k];
    }
    return acc;
  };
  double acc = taps[0] * row(y);
  for (int k = 1; k <= radius; ++k) {
    if (y - k >= 0) acc += taps[k] * row(y - k);
    if (y + k < ny) acc += taps[k] * row(y + k);
  }
  return acc;
}

}  // namespace

namespace detail {

void force_term_split(TermSplit split) { g_term_split.store(split); }

void force_refresh_strips(int strips) { g_refresh_strips.store(strips); }

void separable_blur_forced(const double* src, double* dst, int nx, int ny,
                           std::size_t stride, const std::vector<double>& taps,
                           int threads, int bands, bool avx2) {
#ifdef EBL_BLUR_AVX2
  if (avx2) {
    expects(has_avx2_fma(), "separable_blur_forced: the CPU lacks AVX2");
    fused_blur(src, dst, nx, ny, stride, taps, threads, bands, kAvx2Kernels);
    return;
  }
#else
  expects(!avx2, "separable_blur_forced: built without the AVX2 kernels");
#endif
  fused_blur(src, dst, nx, ny, stride, taps, threads, bands, kBaselineKernels);
}

}  // namespace detail

void separable_blur(const double* src, double* dst, int nx, int ny, std::size_t stride,
                    const std::vector<double>& taps, int threads) {
  detail::separable_blur_forced(src, dst, nx, ny, stride, taps, threads,
                                resolve_threads(threads) * kBandsPerThread,
                                has_avx2_fma());
}

std::vector<double> gaussian_kernel_taps(double sigma_px) {
  expects(sigma_px > 0, "gaussian_kernel_taps: sigma must be positive");
  const int radius = std::max(1, static_cast<int>(std::ceil(4.0 * sigma_px)));
  std::vector<double> taps(static_cast<std::size_t>(radius) + 1);
  double norm = 0.0;
  for (int i = 0; i <= radius; ++i) {
    // Gaussian with variance sigma^2/2 per axis: exp(-x^2/sigma^2) matches
    // the PSF convention exp(-r^2/sigma^2).
    taps[static_cast<std::size_t>(i)] = std::exp(-(double(i) * i) / (sigma_px * sigma_px));
    norm += (i == 0 ? 1.0 : 2.0) * taps[static_cast<std::size_t>(i)];
  }
  for (double& t : taps) t /= norm;
  return taps;
}

void separable_blur(Raster& raster, const std::vector<double>& taps, int threads) {
  double* data = raster.data().data();
  separable_blur(data, data, raster.width(), raster.height(),
                 static_cast<std::size_t>(raster.width()), taps, threads);
}

void gaussian_blur(Raster& raster, double sigma_dbu, int threads) {
  expects(sigma_dbu > 0, "gaussian_blur: sigma must be positive");
  separable_blur(raster, gaussian_kernel_taps(sigma_dbu / raster.pixel_size()),
                 threads);
}

namespace {

// Coarse rows [y0, y1) of box_average. Pinned to a 64-byte boundary like the
// blur kernels, so unrelated code size changes do not move its loop.
[[gnu::noinline, gnu::aligned(64)]] void box_average_rows(const double* fine, int nx,
                                                          int ny, int k, int cx0,
                                                          int cy0, int cw,
                                                          std::size_t y0,
                                                          std::size_t y1,
                                                          double* dst) {
  const double inv = 1.0 / (static_cast<double>(k) * k);
  // Coarse pixels left of the fine raster have no fine pixels; starting the
  // column loop past them keeps a clamp out of its inner loop.
  const int x_first = std::max(0, -cx0);
  for (std::size_t y = y0; y < y1; ++y) {
    double* out = dst + y * static_cast<std::size_t>(cw);
    std::fill_n(out, cw, 0.0);
    const int fy0 = (cy0 + static_cast<int>(y)) * k;
    const int fy1 = std::min(ny, fy0 + k);
    for (int fy = std::max(0, fy0); fy < fy1; ++fy) {
      const double* row = fine + static_cast<std::size_t>(fy) * nx;
      for (int x = x_first; x < cw; ++x) {
        const int fx0 = (cx0 + x) * k;
        const int fx1 = std::min(nx, fx0 + k);
        double acc = out[x];
        for (int fx = fx0; fx < fx1; ++fx) acc += row[fx];
        out[x] = acc;
      }
    }
    for (int x = 0; x < cw; ++x) out[x] *= inv;
  }
}

}  // namespace

[[gnu::aligned(64)]] void box_average(const double* fine, int nx, int ny, int k,
                                      int cx0, int cy0, int cw, int ch, double* dst,
                                      int threads) {
  expects(k >= 1, "box_average: factor must be positive");
  parallel_for(
      static_cast<std::size_t>(ch),
      [&](std::size_t y0, std::size_t y1) {
        box_average_rows(fine, nx, ny, k, cx0, cy0, cw, y0, y1, dst);
      },
      threads);
}

int term_k(double sigma, Coord pixel) {
  return std::max(1, static_cast<int>(sigma / kPixelsPerSigma /
                                      static_cast<double>(pixel)));
}

namespace {

// The term split's cost model (see choose_term_split): a construction plus
// two full refreshes on two threads, fitted by least squares over 29
// layouts (pec_global's and epe_verify's, a zone plate, squares at
// 600-3000 dbu pitch and 25-90% fill, slanted triangle arrays) with the
// triple Gaussian's gamma forced to each side (docs/architecture.md). The
// operator costs about this many ns per rectangle it emits (the erf batch,
// then a multiply-add per kept entry and refresh)...
constexpr double kOperatorRectNs = 25.0;
// ...and the raster this many per pixel of its base grid (allocation, box
// averages and blurs), per pixel a rectangle covers (re-clipped at every
// gather) and per pixel a slanted shape covers (clipped once, pixel by
// pixel, at construction).
constexpr double kRasterPixelNs = 2.9;
constexpr double kRectCoverNs = 8.3;
constexpr double kSlantCoverNs = 97.0;

// The fine base grid of a set of long-range terms: pixel p resolves the
// finest (sigma_min / kPixelsPerSigma), and term t's map takes pixel k_t * p,
// the largest multiple of p within its own sigma_t / kPixelsPerSigma. The
// margin is map_margin_sigmas widest sigmas, but never below 2 pixels of
// the coarsest map: edge centroids need one in-grid bilinear neighbor
// there, and the blur needs no margin at all (zero padding is exact when
// every source lies on the map). All three are left in double: a term may
// be too wide for them to fit their integer types.
struct BaseGeometry {
  double pixel;
  double margin;
};

BaseGeometry base_geometry(const std::vector<PsfTerm>& terms, double margin_sigmas) {
  double sigma_min = terms.front().sigma;
  double sigma_max = sigma_min;
  for (const PsfTerm& t : terms) {
    sigma_min = std::min(sigma_min, t.sigma);
    sigma_max = std::max(sigma_max, t.sigma);
  }
  const double pixel = std::max(1.0, std::floor(sigma_min / kPixelsPerSigma));
  const double k_max = std::max(1.0, std::floor(sigma_max / kPixelsPerSigma / pixel));
  return {pixel, std::max(2.0 * k_max * pixel, std::ceil(margin_sigmas * sigma_max))};
}

}  // namespace

ExposureEvaluator::ExposureEvaluator(ShotList shots, const Psf& psf,
                                     ExposureOptions options)
    : ExposureEvaluator(std::move(shots), 0, psf, options) {}

ExposureEvaluator::ExposureEvaluator(ShotList shots, std::size_t active_count,
                                     const Psf& psf, ExposureOptions options)
    : shots_(std::move(shots)), opt_(options) {
  expects(!shots_.empty(), "ExposureEvaluator: empty shot list");
  expects(active_count <= shots_.size(),
          "ExposureEvaluator: active count exceeds shot count");
  active_ = active_count == 0 ? shots_.size() : active_count;
  std::vector<PsfTerm> wide;
  for (const PsfTerm& t : psf.terms()) {
    (t.sigma >= kLongRangeThreshold ? wide : short_terms_).push_back(t);
  }
  Box frame;
  for (const Shot& s : shots_) frame += s.shape.bbox();

  // Active-centroid cache: the sweep and the term maps' read sets take
  // these points.
  cx_.resize(active_);
  cy_.resize(active_);
  parallel_for(
      active_,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          const auto [x, y] = centroid(i);
          cx_[i] = x;
          cy_[i] = y;
        }
      },
      opt_.threads);

  const bool built = choose_term_split(wide, frame);
  // All-long PSFs (pure raster evaluation) need no neighbor structure at
  // all: skip grid construction entirely.
  if (short_terms_.empty()) {
    grid_start_ = {};
    grid_items_ = {};
  } else {
    double max_short = 0.0;
    for (const PsfTerm& t : short_terms_) max_short = std::max(max_short, t.sigma);
    const double cutoff = opt_.cutoff_sigmas * max_short;
    if (grid_start_.empty() || cutoff != cutoff_) build_grid(cutoff, frame);
    if (!built) build_short_operator();
  }
  build_long_range(frame);
}

bool ExposureEvaluator::choose_term_split(const std::vector<PsfTerm>& wide,
                                          const Box& frame) {
  // Candidates: every wide term but the widest, finest first. Each joins
  // the short-range operator while that operator (every term already
  // analytic, and it) costs no more than the raster the candidate would
  // otherwise set, both by the cost model above; the first that stays
  // keeps the wider ones on their rasters. The operator is built with the
  // candidate, giving up once it emits more rectangles than the raster's
  // cost buys, so an accepted candidate's check is the build itself. Two
  // lower bounds counted first (operator_rects_lower_bound) end most dense
  // layouts before any build.
  std::vector<std::size_t> order(wide.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return wide[a].sigma < wide[b].sigma;
  });
  const detail::TermSplit forced = g_term_split.load();
  double rect_area = 0.0, slant_area = 0.0;
  if (wide.size() > 1 && forced == detail::TermSplit::cost)
    for (const Shot& s : shots_) (s.shape.is_rect() ? rect_area : slant_area) += s.shape.area();
  std::size_t moved = 0;
  bool built = false;
  for (; moved + 1 < order.size() && forced != detail::TermSplit::raster; ++moved) {
    const PsfTerm& term = wide[order[moved]];
    short_terms_.push_back(term);
    if (forced == detail::TermSplit::analytic) continue;
    // The raster the term would stay on: the base grid of it and every
    // wider term.
    std::vector<PsfTerm> rest;
    for (std::size_t j = moved; j < order.size(); ++j) rest.push_back(wide[order[j]]);
    const BaseGeometry g = base_geometry(rest, opt_.map_margin_sigmas);
    const auto side = [&](Coord64 extent) {
      return std::max(1.0, std::ceil((static_cast<double>(extent) + 2.0 * g.margin) / g.pixel));
    };
    const double pixel2 = g.pixel * g.pixel;
    const double raster_ns = kRasterPixelNs * side(frame.width()) * side(frame.height()) +
                             kRectCoverNs * rect_area / pixel2 +
                             kSlantCoverNs * slant_area / pixel2;
    const double limit = raster_ns / kOperatorRectNs;
    if (operator_rects_lower_bound(opt_.cutoff_sigmas * term.sigma, frame, limit) > limit ||
        !build_short_operator(limit)) {
      short_terms_.pop_back();  // built still tells of the operator kept
      break;
    }
    built = true;
  }
  // The raster terms in PSF order: their maps' sums are added in it.
  std::vector<bool> analytic(wide.size(), false);
  for (std::size_t j = 0; j < moved; ++j) analytic[order[j]] = true;
  for (std::size_t i = 0; i < wide.size(); ++i)
    if (!analytic[i]) long_terms_.push_back(wide[i]);
  return built;
}

double ExposureEvaluator::operator_rects_lower_bound(double cutoff, const Box& frame,
                                                     double limit) {
  // Each shot's rectangles under every short term (a slanted shape's
  // strips; emit_term_rects skips only an empty one, which a shape with
  // area has none of). Every centroid accepts its own shot, so their sum
  // is a first bound, with no grid at all.
  std::vector<std::uint32_t> rects(shots_.size(),
                                   static_cast<std::uint32_t>(short_terms_.size()));
  for (std::size_t s = 0; s < shots_.size(); ++s) {
    const Trapezoid& t = shots_[s].shape;
    if (t.is_rect()) continue;
    rects[s] = 0;
    for (const PsfTerm& term : short_terms_)
      rects[s] += static_cast<std::uint32_t>(term_slices(term, t));
  }
  double own = 0.0;
  for (std::size_t i = 0; i < active_; ++i) own += rects[i];
  if (own > limit) return own;
  // Then the operator build's own walk over each centroid's own cell only,
  // emitting nothing: every shot it accepts is one the build accepts.
  // Chunks add the counts of each 64 centroids to one total and all stop
  // once it passes limit. The total only grows, so whether it ends above
  // limit does not depend on the thread count.
  build_grid(cutoff, frame);
  std::atomic<std::uint64_t> total{0};
  std::atomic<bool> over{false};
  parallel_for(
      active_,
      [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1 && !over.load(std::memory_order_relaxed);) {
          std::uint64_t n = 0;
          for (const std::size_t end = std::min(i1, i + 64); i < end; ++i) {
            visit_short_neighbors(
                cx_[i], cy_[i], [&](std::uint32_t idx) { n += rects[idx]; }, 0);
          }
          if (static_cast<double>(total.fetch_add(n) + n) > limit) over.store(true);
        }
      },
      opt_.threads);
  return static_cast<double>(total.load());
}

void ExposureEvaluator::build_grid(double cutoff, const Box& frame) {
  cutoff_ = cutoff;
  double avg_w = 0.0, avg_h = 0.0;
  for (const Shot& s : shots_) {
    const Box bb = s.shape.bbox();
    avg_w += static_cast<double>(bb.width());
    avg_h += static_cast<double>(bb.height());
  }
  avg_w /= static_cast<double>(shots_.size());
  avg_h /= static_cast<double>(shots_.size());
  grid_origin_ = frame.lo;

  // Cell sized to the larger of the query reach and the typical shot, so a
  // shot lands in O(1) cells and a query scans O(1) cells; then coarsened
  // until the bin count is at most ~2 per shot (sparse giant extents).
  double cell = std::max({cutoff_, avg_w, avg_h, 64.0});
  const double max_extent =
      std::max<double>({static_cast<double>(frame.width()),
                        static_cast<double>(frame.height()), 1.0});
  for (;;) {
    const double bins = (static_cast<double>(frame.width()) / cell + 1) *
                        (static_cast<double>(frame.height()) / cell + 1);
    if (bins <= 2.0 * static_cast<double>(shots_.size()) + 64.0 || cell >= max_extent)
      break;
    cell *= 2.0;
  }
  cell_ = static_cast<Coord>(std::min(cell, 2.0e9));

  gx_ = static_cast<int>(frame.width() / cell_) + 1;
  gy_ = static_cast<int>(frame.height() / cell_) + 1;
  const std::size_t ncells = static_cast<std::size_t>(gx_) * gy_;

  // CSR build: count cell occupancies, prefix-sum, then fill. Shots are
  // visited in index order, so every bin lists its shots ascending — queries
  // therefore sum candidates in a fixed order for any thread count.
  grid_start_.assign(ncells + 1, 0);
  auto cell_range = [&](const Box& bb, int& x0, int& x1, int& y0, int& y1) {
    x0 = static_cast<int>((Coord64(bb.lo.x) - grid_origin_.x) / cell_);
    x1 = static_cast<int>((Coord64(bb.hi.x) - grid_origin_.x) / cell_);
    y0 = static_cast<int>((Coord64(bb.lo.y) - grid_origin_.y) / cell_);
    y1 = static_cast<int>((Coord64(bb.hi.y) - grid_origin_.y) / cell_);
  };
  for (const Shot& s : shots_) {
    int x0, x1, y0, y1;
    cell_range(s.shape.bbox(), x0, x1, y0, y1);
    for (int y = y0; y <= y1; ++y)
      for (int x = x0; x <= x1; ++x)
        ++grid_start_[static_cast<std::size_t>(y) * gx_ + x + 1];
  }
  for (std::size_t c = 1; c <= ncells; ++c) grid_start_[c] += grid_start_[c - 1];
  grid_items_.resize(grid_start_[ncells]);
  std::vector<std::uint32_t> cursor(grid_start_.begin(), grid_start_.end() - 1);
  for (std::uint32_t i = 0; i < shots_.size(); ++i) {
    int x0, x1, y0, y1;
    cell_range(shots_[i].shape.bbox(), x0, x1, y0, y1);
    for (int y = y0; y <= y1; ++y)
      for (int x = x0; x <= x1; ++x)
        grid_items_[cursor[static_cast<std::size_t>(y) * gx_ + x]++] = i;
  }
}

void ExposureEvaluator::build_long_range(const Box& frame) {
  term_maps_.clear();
  base_grid_.reset();
  if (long_terms_.empty()) return;

  // The fine base raster (see base_geometry): every kernel spans
  // ~4 * kPixelsPerSigma of its own map's pixels.
  const BaseGeometry geometry = base_geometry(long_terms_, opt_.map_margin_sigmas);
  const double margin = geometry.margin;
  // The pixel, a term's k and the margin scale with sigma, which may be any
  // finite value; each must fit its integer type before it is cast to one.
  if (!(geometry.pixel <= std::numeric_limits<Coord>::max())) {
    throw DataError("ExposureEvaluator: the base pixel (" + std::to_string(geometry.pixel) +
                    " dbu) does not fit a coordinate");
  }
  const Coord pixel = static_cast<Coord>(geometry.pixel);
  for (const PsfTerm& t : long_terms_) {
    if (!(t.sigma / kPixelsPerSigma / static_cast<double>(pixel) <
          std::numeric_limits<int>::max())) {
      throw DataError("ExposureEvaluator: a PSF term of sigma " + std::to_string(t.sigma) +
                      " dbu is too wide for pixel " + std::to_string(pixel));
    }
  }
  if (!(margin < static_cast<double>(std::numeric_limits<Coord>::max()) + 1.0)) {
    throw DataError("ExposureEvaluator: the long-range map margin (" +
                    std::to_string(margin) + " dbu) does not fit a coordinate");
  }
  base_grid_ = std::make_unique<Raster>(
      Raster::grid(frame.bloated(static_cast<Coord>(margin)), pixel));
  const Raster& r = *base_grid_;

  const Point lo = r.origin();
  for (const PsfTerm& term : long_terms_) {
    // Same origin as the base, ceil(nx / k) x ceil(ny / k) pixels. Clamping
    // the far corner to the coordinate range keeps that count: the base
    // itself ends within the range.
    const int k = term_k(term.sigma, pixel);
    const Coord tp = k * pixel;
    const auto far = [&](Coord origin, int n) {
      return static_cast<Coord>(std::min<Coord64>(
          Coord64(origin) + Coord64((n + k - 1) / k) * tp,
          std::numeric_limits<Coord>::max()));
    };
    const Box extent{lo.x, lo.y, far(lo.x, r.width()), far(lo.y, r.height())};
    TermMap tm;
    tm.term = term;
    tm.k = k;
    tm.taps = gaussian_kernel_taps(term.sigma / static_cast<double>(tp));
    if (k > 1) tm.coarse = std::make_unique<Raster>(extent, tp);
    build_read_set(tm);
    if (k == 1) {
      // Stage slots for the band sweep's row blurs: one per needed row.
      const std::vector<std::uint8_t>& need = tm.reads.need_row;
      tm.row_slot.assign(need.size(), 0);
      std::uint32_t n = 0;
      for (std::size_t y = 0; y < need.size(); ++y)
        if (need[y]) tm.row_slot[y] = n++;
      tm.rows.assign(static_cast<std::size_t>(n) * tm.reads.width, 0.0);
    }
    term_maps_.push_back(std::move(tm));
  }

  // Band height: a multiple of every k > 1, so each k x k block lies in one
  // band, and at least kMinBandRows; one band when that step reaches the
  // map's height.
  const int ny = r.height();
  std::int64_t step = 1;
  for (const TermMap& tm : term_maps_)
    if (step < ny) step = std::lcm(step, static_cast<std::int64_t>(tm.k));
  band_rows_ = step >= ny ? ny
                          : static_cast<int>(std::min<std::int64_t>(
                                ny, (kMinBandRows + step - 1) / step * step));

  // Bin every shot by band of the base: count, exclusive scan, fill (the
  // build_grid idiom). The ghosts are visited first, then the actives, each
  // in index order: the order each band sums them in.
  const std::size_t nbands = static_cast<std::size_t>(ny - 1) / band_rows_ + 1;
  const auto each_shot = [&](auto&& fn) {
    for (std::size_t i = active_; i < shots_.size(); ++i) fn(i);
    for (std::size_t i = 0; i < active_; ++i) fn(i);
  };
  const auto bands_of = [&](std::size_t i) {
    const Box bb = shots_[i].shape.bbox();
    return std::pair{r.index_of(bb.lo).second / band_rows_,
                     r.index_of(bb.hi).second / band_rows_};
  };
  band_start_.assign(nbands + 1, 0);
  each_shot([&](std::size_t i) {
    const auto [b0, b1] = bands_of(i);
    for (int b = b0; b <= b1; ++b) ++band_start_[static_cast<std::size_t>(b) + 1];
  });
  for (std::size_t b = 1; b <= nbands; ++b) band_start_[b] += band_start_[b - 1];
  band_shot_.resize(band_start_[nbands]);
  std::vector<std::uint32_t> cursor(band_start_.begin(), band_start_.end() - 1);
  each_shot([&](std::size_t i) {
    const auto [b0, b1] = bands_of(i);
    for (int b = b0; b <= b1; ++b)
      band_shot_[cursor[static_cast<std::size_t>(b)]++] = static_cast<std::uint32_t>(i);
  });

  // Clip the slanted active shots once (see slant_start_). Fixed chunks of
  // shots clip in parallel into their own buffers, concatenated in shot
  // order, so the footprints are the same for any thread count.
  slant_start_.clear();
  slant_.clear();
  if (std::any_of(shots_.begin(), shots_.begin() + static_cast<std::ptrdiff_t>(active_),
                  [](const Shot& s) { return !s.shape.is_rect(); })) {
    constexpr std::size_t kChunk = 256;
    const std::size_t nx = static_cast<std::size_t>(r.width());
    std::vector<std::vector<Splat>> parts((active_ + kChunk - 1) / kChunk);
    slant_start_.assign(active_ + 1, 0);
    parallel_for(
        parts.size(),
        [&](std::size_t c0, std::size_t c1) {
          for (std::size_t c = c0; c < c1; ++c) {
            for (std::size_t i = c * kChunk; i < std::min(active_, (c + 1) * kChunk); ++i) {
              if (shots_[i].shape.is_rect()) continue;
              r.visit_coverage(shots_[i].shape, 0, r.height(), [&](int ix, int iy, double frac) {
                parts[c].push_back({static_cast<std::uint32_t>(static_cast<std::size_t>(iy) * nx +
                                                               static_cast<std::size_t>(ix)),
                                    static_cast<float>(frac)});
                ++slant_start_[i + 1];
              });
            }
          }
        },
        opt_.threads);
    for (std::size_t i = 1; i <= active_; ++i) slant_start_[i] += slant_start_[i - 1];
    slant_.reserve(slant_start_[active_]);
    for (const std::vector<Splat>& p : parts) slant_.insert(slant_.end(), p.begin(), p.end());
  }
  refresh_long_range();
}

std::size_t ExposureEvaluator::base_pixels() const {
  return base_grid_ ? static_cast<std::size_t>(base_grid_->width()) *
                          static_cast<std::size_t>(base_grid_->height())
                    : 0;
}

void ExposureEvaluator::build_read_set(TermMap& tm) {
  // Each active centroid's stencil on the term's grid, as Raster::sample
  // takes it; corner[i] is its low corner pixel, or none.
  const Raster& g = source(tm);
  const int nx = g.width();
  const int ny = g.height();
  constexpr std::pair<int, int> kNone{-2, -2};
  std::vector<std::pair<int, int>> corner(active_, kNone);
  tm.stencils.assign(active_, Stencil{{0, 0, 0, 0}, 0.0, 0.0});
  parallel_for(
      active_,
      [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          Stencil& st = tm.stencils[i];
          g.stencil(cx_[i], cy_[i], corner[i].first, corner[i].second, st.tx, st.ty);
        }
      },
      opt_.threads);
  // Visits stencil pixel j (row-major in the 2 x 2 block) of centroid i,
  // for each one on the grid.
  const auto each_pixel = [&](std::size_t i, auto&& fn) {
    if (corner[i] == kNone) return;
    for (int j = 0; j < 4; ++j) {
      const int x = corner[i].first + (j & 1);
      const int y = corner[i].second + (j >> 1);
      if (x >= 0 && y >= 0 && x < nx && y < ny) fn(j, x, y);
    }
  };

  // Read columns by row: count, exclusive scan, fill, then sort and drop
  // the duplicates of each row.
  const std::size_t rows = static_cast<std::size_t>(ny);
  std::vector<std::uint32_t> start(rows + 1, 0);
  for (std::size_t i = 0; i < active_; ++i)
    each_pixel(i, [&](int, int, int y) { ++start[static_cast<std::size_t>(y) + 1]; });
  for (std::size_t y = 1; y <= rows; ++y) start[y] += start[y - 1];
  std::vector<std::uint32_t> col(start[rows]);
  std::vector<std::uint32_t> cursor(start.begin(), start.end() - 1);
  for (std::size_t i = 0; i < active_; ++i)
    each_pixel(i, [&](int, int x, int y) {
      col[cursor[static_cast<std::size_t>(y)]++] = static_cast<std::uint32_t>(x);
    });
  std::vector<std::uint32_t> count(rows);
  parallel_for(
      rows,
      [&](std::size_t y0, std::size_t y1) {
        for (std::size_t y = y0; y < y1; ++y) {
          const auto b = col.begin() + start[y];
          const auto e = col.begin() + start[y + 1];
          std::sort(b, e);
          count[y] = static_cast<std::uint32_t>(std::unique(b, e) - b);
        }
      },
      opt_.threads);

  // Each row's read columns rounded out to whole groups of one AVX2 vector
  // and merged into runs, so both passes run on whole vectors; a group
  // ending past the raster is clipped to it. runs holds raster columns
  // until the compact columns are known.
  constexpr std::uint32_t kGroup = 4;
  detail::ReadSet& rs = tm.reads;
  rs.run_start.assign(rows + 1, 0);
  rs.runs.clear();
  for (std::size_t y = 0; y < rows; ++y) {
    for (std::uint32_t k = start[y]; k < start[y] + count[y]; ++k) {
      const std::uint32_t x0 = col[k] / kGroup * kGroup;
      const std::uint32_t x1 = std::min<std::uint32_t>(static_cast<std::uint32_t>(nx),
                                                      x0 + kGroup);
      if (rs.runs.size() > rs.run_start[y] && rs.runs.back().x + rs.runs.back().n >= x0) {
        rs.runs.back().n = x1 - rs.runs.back().x;
      } else {
        rs.runs.push_back({x0, x1 - x0});
      }
    }
    rs.run_start[y + 1] = static_cast<std::uint32_t>(rs.runs.size());
  }

  // Values: slot 0 is the zero pixel, then each row's runs in order.
  std::vector<std::uint32_t> run_value(rs.runs.size() + 1, 1);
  for (std::size_t k = 0; k < rs.runs.size(); ++k) run_value[k + 1] = run_value[k] + rs.runs[k].n;
  rs.value_start.resize(rows + 1);
  for (std::size_t y = 0; y <= rows; ++y) rs.value_start[y] = run_value[rs.run_start[y]];
  tm.values.assign(run_value.back(), 0.0);
  parallel_for(
      active_,
      [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          each_pixel(i, [&](int j, int x, int y) {
            // The last run of row y that starts at or before x holds it.
            const auto b = rs.runs.begin() + rs.run_start[static_cast<std::size_t>(y)];
            const auto e = rs.runs.begin() + rs.run_start[static_cast<std::size_t>(y) + 1];
            const auto at = std::upper_bound(
                                b, e, static_cast<std::uint32_t>(x),
                                [](std::uint32_t v, const detail::ColumnRun& r) { return v < r.x; }) -
                            1;
            tm.stencils[i].slot[j] =
                run_value[static_cast<std::size_t>(at - rs.runs.begin())] +
                (static_cast<std::uint32_t>(x) - at->x);
          });
        }
      },
      opt_.threads);

  // The row pass's columns: the union of the runs' groups, merged into
  // runs, packed left to right into the compact row.
  std::vector<std::uint8_t> used(static_cast<std::size_t>(nx) / kGroup + 1, 0);
  for (const detail::ColumnRun& r : rs.runs)
    std::fill_n(used.begin() + r.x / kGroup, (r.n + kGroup - 1) / kGroup, 1);
  rs.cols.clear();
  std::vector<std::uint32_t> compact(static_cast<std::size_t>(nx));
  std::uint32_t width = 0;
  for (std::size_t g = 0; g < used.size(); ++g) {
    if (!used[g]) continue;
    std::size_t ge = g;
    while (ge < used.size() && used[ge]) ++ge;
    const std::uint32_t x0 = static_cast<std::uint32_t>(g * kGroup);
    const std::uint32_t x1 = static_cast<std::uint32_t>(
        std::min<std::size_t>(static_cast<std::size_t>(nx), ge * kGroup));
    rs.cols.push_back({x0, x1 - x0});
    for (std::uint32_t x = x0; x < x1; ++x) compact[x] = width + (x - x0);
    width += x1 - x0;
    g = ge;
  }
  rs.width = width;
  // A run lies inside one column run, so it stays contiguous there.
  for (detail::ColumnRun& r : rs.runs) r.x = compact[r.x];

  // Rows within the kernel radius of a read row.
  const int radius = static_cast<int>(tm.taps.size()) - 1;
  std::vector<int> edge(rows + 1, 0);
  for (int y = 0; y < ny; ++y) {
    if (count[static_cast<std::size_t>(y)] == 0) continue;
    ++edge[static_cast<std::size_t>(std::max(0, y - radius))];
    --edge[static_cast<std::size_t>(std::min(ny, y + radius + 1))];
  }
  rs.need_row.assign(rows, 0);
  int open = 0;
  for (std::size_t y = 0; y < rows; ++y) {
    open += edge[y];
    rs.need_row[y] = open > 0;
  }
}

// Pinned to a 64-byte boundary like the blur kernels (see there): it holds
// the gather's per-shot loop.
[[gnu::noinline, gnu::aligned(64)]] void ExposureEvaluator::add_shot_coverage(
    std::size_t i, int row0, int row1, double* out) const {
  // Each pixel's fraction is rounded to float first.
  const Raster& grid = *base_grid_;
  const std::size_t nx = static_cast<std::size_t>(grid.width());
  const double dose = shots_[i].dose;
  const Trapezoid& t = shots_[i].shape;
  if (t.is_rect()) {
    grid.visit_coverage(t, row0, row1, [&](int ix, int iy, double frac) {
      out[static_cast<std::size_t>(iy - row0) * nx + static_cast<std::size_t>(ix)] +=
          static_cast<double>(static_cast<float>(frac)) * dose;
    });
    return;
  }
  // A cached footprint is row-major, so rows [row0, row1) are one run; most
  // footprints lie inside one band and skip the searches.
  const auto before = [](const Splat& s, std::size_t p) { return s.px < p; };
  const Splat* b = slant_.data() + slant_start_[i];
  const Splat* e = slant_.data() + slant_start_[i + 1];
  if (b == e) return;
  const std::size_t lo = static_cast<std::size_t>(row0) * nx;
  const std::size_t hi = static_cast<std::size_t>(row1) * nx;
  if (b->px < lo) b = std::lower_bound(b, e, lo, before);
  if (e[-1].px >= hi) e = std::lower_bound(b, e, hi, before);
  for (; b != e; ++b) out[b->px - lo] += static_cast<double>(b->frac) * dose;
}

// Pinned to a 64-byte boundary like the blur kernels (see there).
[[gnu::noinline, gnu::aligned(64)]] void ExposureEvaluator::gather_rows(
    std::size_t b, int row0, int row1, double* out) const {
  const Raster& grid = *base_grid_;
  const std::size_t nx = static_cast<std::size_t>(grid.width());
  std::fill_n(out, static_cast<std::size_t>(row1 - row0) * nx, 0.0);
  for (std::uint32_t k = band_start_[b]; k < band_start_[b + 1]; ++k) {
    const std::uint32_t i = band_shot_[k];
    if (i < active_) {
      add_shot_coverage(i, row0, row1, out);
      continue;
    }
    // A ghost adds what Raster::add_coverage would, unrounded.
    const double dose = shots_[i].dose;
    grid.visit_coverage(shots_[i].shape, row0, row1, [&](int ix, int iy, double frac) {
      out[static_cast<std::size_t>(iy - row0) * nx + static_cast<std::size_t>(ix)] +=
          dose * frac;
    });
  }
}

void ExposureEvaluator::gather_base_rows(int row0, int row1, double* out) const {
  const std::size_t nx = static_cast<std::size_t>(base_grid_->width());
  for (int b = row0 / band_rows_; b * band_rows_ < row1; ++b) {
    const int r0 = std::max(row0, b * band_rows_);
    const int r1 = std::min(row1, (b + 1) * band_rows_);
    gather_rows(static_cast<std::size_t>(b), r0, r1,
                out + static_cast<std::size_t>(r0 - row0) * nx);
  }
}

namespace {
// The band a refresh strip gathers into, kept per thread across refreshes.
thread_local std::vector<double> t_band;
}  // namespace

void ExposureEvaluator::refresh_long_range() {
  if (!base_grid_) return;
  const auto t0 = std::chrono::steady_clock::now();
  const BlurKernels& kern = cpu_kernels();
  const int ny = base_grid_->height();
  const std::size_t nx = static_cast<std::size_t>(base_grid_->width());
  const std::size_t nbands = band_start_.size() - 1;
  const int forced = g_refresh_strips.load();
  const std::size_t strips = std::clamp<std::size_t>(
      static_cast<std::size_t>(forced > 0 ? forced
                                          : resolve_threads(opt_.threads) * kBandsPerThread),
      1, nbands);

  // Each strip gathers its bands in turn and uses each at once: box-averaged
  // into every coarse map (a band holds whole k x k blocks, so each coarse
  // row is summed as box_average sums it) and row-blurred at every k = 1
  // term's needed rows. Strips write disjoint rows, so the bits do not
  // depend on the strip count.
  parallel_for(
      strips,
      [&](std::size_t s0, std::size_t s1) {
        std::vector<double>& buf = t_band;
        buf.resize(static_cast<std::size_t>(band_rows_) * nx);
        for (std::size_t b = nbands * s0 / strips; b < nbands * s1 / strips; ++b) {
          const int row0 = static_cast<int>(b) * band_rows_;
          const int row1 = std::min(ny, row0 + band_rows_);
          gather_rows(b, row0, row1, buf.data());
          for (TermMap& tm : term_maps_) {
            if (tm.coarse) {
              Raster& m = *tm.coarse;
              const int k = tm.k;
              box_average_rows(buf.data(), static_cast<int>(nx), row1 - row0, k, 0, 0,
                               m.width(), 0, static_cast<std::size_t>(row1 - row0 + k - 1) / k,
                               m.data().data() + static_cast<std::size_t>(row0 / k) *
                                                     static_cast<std::size_t>(m.width()));
              continue;
            }
            const detail::ReadSet& rs = tm.reads;
            const int radius = static_cast<int>(tm.taps.size()) - 1;
            for (int y = row0; y < row1; ++y) {
              if (!rs.need_row[static_cast<std::size_t>(y)]) continue;
              kern.row_runs(buf.data() + static_cast<std::size_t>(y - row0) * nx,
                            tm.rows.data() + tm.row_slot[static_cast<std::size_t>(y)] * rs.width,
                            static_cast<int>(nx), rs.cols.data(), rs.cols.size(),
                            tm.taps.data(), radius);
            }
          }
        }
      },
      opt_.threads);
  perf_.accumulate_ms += ms_since(t0);

  const auto t1 = std::chrono::steady_clock::now();
  for (TermMap& tm : term_maps_) {
    if (tm.coarse) {
      const Raster& m = *tm.coarse;
      read_set_blur(m.data().data(), m.width(), m.height(), tm.reads, tm.taps,
                    opt_.threads, kern, tm.values.data());
    } else {
      staged_column_blur(tm.rows.data(), tm.row_slot.data(), ny, tm.reads, tm.taps,
                         opt_.threads, kern, tm.values.data());
    }
  }
  perf_.blur_ms += ms_since(t1);
  ++perf_.refreshes;
}

void ExposureEvaluator::apply_doses(const double* doses, std::size_t end) {
  // Exact: a refresh re-derives every cached value from the applied doses,
  // so the state is a fresh evaluator's bit for bit, and with no dose
  // changed there is nothing to re-derive.
  if (std::equal(doses, doses + end, shots_.begin(),
                 [](double d, const Shot& s) { return d == s.dose; })) {
    ++perf_.skipped_refreshes;
    return;
  }
  for (std::size_t i = 0; i < end; ++i) shots_[i].dose = doses[i];
  refresh_long_range();
  short_cache_valid_ = false;
}

void ExposureEvaluator::set_active_doses(const std::vector<double>& doses) {
  expects(doses.size() == active_, "set_active_doses: size mismatch");
  apply_doses(doses.data(), active_);
}

void ExposureEvaluator::reset_doses(const std::vector<double>& doses) {
  expects(doses.size() == shots_.size(), "reset_doses: size mismatch");
  apply_doses(doses.data(), shots_.size());
}

std::pair<double, double> ExposureEvaluator::centroid(std::size_t i) const {
  expects(i < shots_.size(), "centroid: index out of range");
  const Trapezoid& t = shots_[i].shape;
  // Trapezoid centroid: weighted average of the two horizontal sides.
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

template <typename Fn>
void ExposureEvaluator::visit_short_neighbors(double px, double py, Fn&& fn,
                                              int reach) const {
  const std::uint32_t epoch = begin_visit_epoch(shots_.size());
  VisitScratch& vs = t_visit;
  if (reach < 0) reach = static_cast<int>(std::ceil(cutoff_ / cell_)) + 1;
  // The query's cell, clamped in double before the cast so a point however
  // far from the pattern (or NaN) stays defined: one cell past the reach
  // beyond either grid edge already visits no cell.
  const auto cell_of = [&](double v, Coord origin, int n) {
    const double c = std::floor((v - origin) / static_cast<double>(cell_));
    return static_cast<int>(std::fmin(std::fmax(c, -1.0 - reach), double(n + reach)));
  };
  const int cx = cell_of(px, grid_origin_.x, gx_);
  const int cy = cell_of(py, grid_origin_.y, gy_);
  const double cut2 = cutoff_ * cutoff_;
  for (int y = std::max(0, cy - reach); y <= std::min(gy_ - 1, cy + reach); ++y) {
    for (int x = std::max(0, cx - reach); x <= std::min(gx_ - 1, cx + reach); ++x) {
      const std::size_t c = static_cast<std::size_t>(y) * gx_ + x;
      for (std::uint32_t k = grid_start_[c]; k < grid_start_[c + 1]; ++k) {
        const std::uint32_t idx = grid_items_[k];
        if (vs.stamp[idx] == epoch) continue;  // already seen via another cell
        vs.stamp[idx] = epoch;
        const Box bb = shots_[idx].shape.bbox();
        // Cheap reject by bbox distance vs cutoff.
        const double dx = std::max({double(bb.lo.x) - px, px - double(bb.hi.x), 0.0});
        const double dy = std::max({double(bb.lo.y) - py, py - double(bb.hi.y), 0.0});
        if (dx * dx + dy * dy > cut2) continue;
        fn(idx);
      }
    }
  }
}

double ExposureEvaluator::exposure_at(double px, double py) const {
  double e = 0.0;

  if (!short_terms_.empty()) {
    visit_short_neighbors(px, py, [&](std::uint32_t idx) {
      const Shot& s = shots_[idx];
      for (const PsfTerm& term : short_terms_) {
        e += s.dose * term_exposure_trapezoid(term, s.shape, px, py);
      }
    });
  }

  for (const TermMap& tm : term_maps_) {
    // A blurred pixel is the mean dose-weighted coverage around it: the
    // long-range exposure directly (term weight folded here). Raster::sample
    // on the dense blurred map, its four pixels formed here.
    const Raster& g = source(tm);
    int ix, iy;
    double tx, ty;
    double v = 0.0;
    if (g.stencil(px, py, ix, iy, tx, ty)) {
      const int nx = g.width();
      const int ny = g.height();
      // The coarse map's rows, or the base rows the four pixels read.
      const double* rows = nullptr;
      int row0 = 0;
      if (tm.coarse) {
        rows = tm.coarse->data().data();
      } else {
        const int radius = static_cast<int>(tm.taps.size()) - 1;
        row0 = std::max(0, iy - radius);
        const int row1 = std::min(ny, iy + 2 + radius);
        std::vector<double>& win = t_band;
        win.resize(static_cast<std::size_t>(row1 - row0) * static_cast<std::size_t>(nx));
        gather_base_rows(row0, row1, win.data());
        rows = win.data();
      }
      const auto pixel = [&](int x, int y) {
        return x < 0 || y < 0 || x >= nx || y >= ny
                   ? 0.0
                   : blurred_pixel(rows, row0, nx, ny, tm.taps, x, y);
      };
      v = Raster::blend(tx, ty, pixel(ix, iy), pixel(ix + 1, iy), pixel(ix, iy + 1),
                        pixel(ix + 1, iy + 1));
    }
    e += tm.term.weight * v;
  }
  return e;
}

void ExposureEvaluator::eval_erf(const double* x, double* y, std::size_t n) const {
  if (opt_.fast_erf) {
    erf_batch(x, y, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) y[i] = std::erf(x[i]);
  }
}

bool ExposureEvaluator::build_short_operator(double limit) {
  // Each centroid walks its neighbors as exposure_at does, but packs the erf
  // arguments of the whole query into one batch. Shots are accepted in
  // cell-scan order and their rectangles kept in emission order, so the
  // operator is a deterministic function of the geometry alone. Consecutive
  // centroids are cut into parts, collected part by part and joined in
  // order, so the part count does not change a bit either. Under a finite
  // limit a part adds what its centroids emitted to one total every 64
  // centroids and at its end, and every part gives up once that passes
  // limit: the total only grows, so whether it does depends on the
  // geometry alone.
  const std::size_t nt = short_terms_.size();
  expects(shots_.size() <= std::numeric_limits<std::uint32_t>::max() / nt,
          "ExposureEvaluator: too many shots for the short-range operator");
  struct Part {
    std::vector<std::uint32_t> count;  ///< entries per centroid
    std::vector<std::uint32_t> src;
    std::vector<double> diff;
  };
  const std::size_t parts =
      std::min<std::size_t>(active_, 4 * static_cast<std::size_t>(resolve_threads(opt_.threads)));
  std::vector<Part> part(parts);
  const bool capped = limit < std::numeric_limits<double>::infinity();
  std::atomic<std::uint64_t> emitted{0};
  std::atomic<bool> over{false};
  parallel_for(
      parts,
      [&](std::size_t p0, std::size_t p1) {
        ShortScratch& sc = t_short;
        for (std::size_t p = p0; p < p1; ++p) {
          Part& pt = part[p];
          const std::size_t end = active_ * (p + 1) / parts;
          std::uint64_t pending = 0;  // emitted since the part last added to the total
          for (std::size_t i = active_ * p / parts; i < end; ++i) {
            if (capped && over.load(std::memory_order_relaxed)) return;
            const double px = cx_[i];
            const double py = cy_[i];
            sc.args.clear();
            sc.src.clear();
            visit_short_neighbors(px, py, [&](std::uint32_t idx) {
              for (std::size_t t = 0; t < nt; ++t) {
                const std::size_t n =
                    emit_term_rects(short_terms_[t], shots_[idx].shape, px, py, sc.args);
                sc.src.insert(sc.src.end(), n, static_cast<std::uint32_t>(idx * nt + t));
              }
            });
            pending += sc.src.size();
            if (capped && (i % 64 == 63 || i + 1 == end)) {
              if (static_cast<double>(emitted.fetch_add(pending) + pending) > limit)
                over.store(true);
              pending = 0;
            }
            sc.erfs.resize(sc.args.size());
            eval_erf(sc.args.data(), sc.erfs.data(), sc.args.size());
            std::uint32_t kept = 0;
            for (std::size_t r = 0; r < sc.src.size(); ++r) {
              const double d1 = sc.erfs[4 * r + 1] - sc.erfs[4 * r];
              const double d2 = sc.erfs[4 * r + 3] - sc.erfs[4 * r + 2];
              // A zero difference (both erfs saturated, as for a narrow
              // term far inside a wider term's cutoff) makes the term
              // +-0.0 at any finite dose, and adding +-0.0 leaves the sum
              // as it is: it starts at +0.0 and never becomes -0.0.
              if (d1 == 0.0 || d2 == 0.0) continue;
              pt.src.push_back(sc.src[r]);
              pt.diff.push_back(d1);
              pt.diff.push_back(d2);
              ++kept;
            }
            pt.count.push_back(kept);
          }
        }
      },
      opt_.threads);
  if (over.load()) return false;

  // Join the parts in order, freeing each as it goes.
  std::size_t entries = 0;
  for (const Part& pt : part) entries += pt.src.size();
  short_start_.assign(1, 0);
  short_start_.reserve(active_ + 1);
  short_src_.reserve(entries);
  short_diff_.reserve(2 * entries);
  for (Part& pt : part) {
    for (const std::uint32_t c : pt.count) short_start_.push_back(short_start_.back() + c);
    short_src_.insert(short_src_.end(), pt.src.begin(), pt.src.end());
    short_diff_.insert(short_diff_.end(), pt.diff.begin(), pt.diff.end());
    pt = Part();
  }
  return true;
}

void ExposureEvaluator::refresh_short_cache() const {
  // Every (shot, term) weight the way the sum has always formed it, then
  // each centroid's sum over its entries in emission order from +0.0.
  const std::size_t nt = short_terms_.size();
  term_dose_.resize(shots_.size() * nt);
  for (std::size_t s = 0; s < shots_.size(); ++s)
    for (std::size_t t = 0; t < nt; ++t)
      term_dose_[s * nt + t] = shots_[s].dose * short_terms_[t].weight * 0.25;
  short_cache_.resize(active_);
  parallel_for(
      active_,
      [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          double e = 0.0;
          for (std::size_t k = short_start_[i]; k < short_start_[i + 1]; ++k)
            e += term_dose_[short_src_[k]] * short_diff_[2 * k] * short_diff_[2 * k + 1];
          short_cache_[i] = e;
        }
      },
      opt_.threads);
  short_cache_valid_ = true;
}

// Pinned to a 64-byte boundary like the blur kernels (see there).
[[gnu::noinline, gnu::aligned(64)]] void ExposureEvaluator::sweep_centroids(
    std::size_t i0, std::size_t i1, double* out) const {
  const bool shorts = !short_terms_.empty();
  for (std::size_t i = i0; i < i1; ++i) {
    double e = shorts ? short_cache_[i] : 0.0;
    for (const TermMap& tm : term_maps_) {
      // Raster::sample of the dense blurred map, replayed from the stencil.
      const Stencil& st = tm.stencils[i];
      const double* v = tm.values.data();
      e += tm.term.weight * Raster::blend(st.tx, st.ty, v[st.slot[0]], v[st.slot[1]],
                                          v[st.slot[2]], v[st.slot[3]]);
    }
    out[i] = e;
  }
}

std::vector<double> ExposureEvaluator::exposures_at_centroids() const {
  std::vector<double> out(active_);
  if (!short_terms_.empty() && !short_cache_valid_) refresh_short_cache();
  parallel_for(
      active_, [&](std::size_t i0, std::size_t i1) { sweep_centroids(i0, i1, out.data()); },
      opt_.threads);
  return out;
}

}  // namespace ebl
