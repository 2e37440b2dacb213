// T4 — Boolean-engine throughput vs. input size (google-benchmark).
//
// Measures the scanline engine on orthogonal and all-angle polygon soups of
// growing size, for OR / AND / XOR, plus the trapezoid and polygon output
// paths. Edge splitting pairs segments on a uniform grid, so it stays near
// linear in edges for sparse overlap and degrades toward O(n^2) only in
// all-angle crossing storms. The sweep touches only what each event
// changes: on layouts whose y edges never line up
// (BM_DisjointSquaresDistinctY) the per-figure cost stays about flat from 1k
// to 32k squares (CI fails above 2x, scripts/check_boolean_scaling.py);
// when every band visited every active edge it grew like the active count,
// about sqrt(n).
//
// Run with --benchmark_out=<file> --benchmark_out_format=json for a JSON
// record of every case.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "core/patterns.h"
#include "geom/boolean.h"
#include "util/rng.h"

namespace {

using namespace ebl;

PolygonSet manhattan_soup(int n_rects, std::uint64_t seed) {
  Rng rng(seed);
  PolygonSet s;
  // Spread over an area that keeps overlap density roughly constant.
  const Coord span = static_cast<Coord>(400.0 * std::sqrt(double(n_rects)));
  for (int i = 0; i < n_rects; ++i) {
    const Coord w = static_cast<Coord>(rng.uniform(50, 600));
    const Coord h = static_cast<Coord>(rng.uniform(50, 600));
    const Coord x = static_cast<Coord>(rng.uniform(0, span));
    const Coord y = static_cast<Coord>(rng.uniform(0, span));
    s.insert(Box{x, y, static_cast<Coord>(x + w), static_cast<Coord>(y + h)});
  }
  return s;
}

PolygonSet triangle_soup(int n_tris, std::uint64_t seed) {
  Rng rng(seed);
  const Coord span = static_cast<Coord>(400.0 * std::sqrt(double(n_tris)));
  PolygonSet s;
  for (int i = 0; i < n_tris; ++i) {
    const Point a{static_cast<Coord>(rng.uniform(0, span)),
                  static_cast<Coord>(rng.uniform(0, span))};
    const Point b = a + Point{static_cast<Coord>(rng.uniform(-400, 400)),
                              static_cast<Coord>(rng.uniform(-400, 400))};
    const Point c = a + Point{static_cast<Coord>(rng.uniform(-400, 400)),
                              static_cast<Coord>(rng.uniform(-400, 400))};
    if (cross(a, b, c) == 0) continue;
    s.insert(SimplePolygon{{a, b, c}});
  }
  return s;
}

void add_all(BooleanEngine& eng, const PolygonSet& a, const PolygonSet& b) {
  for (const Polygon& p : a.polygons()) eng.add(p, 0);
  for (const Polygon& p : b.polygons()) eng.add(p, 1);
}

void BM_UnionManhattan(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const PolygonSet a = manhattan_soup(n, 1);
  const PolygonSet b = manhattan_soup(n, 2);
  std::size_t edges = 0;
  for (auto _ : state) {
    BooleanEngine eng;
    add_all(eng, a, b);
    benchmark::DoNotOptimize(eng.trapezoids(BoolOp::Or));
    edges = eng.stats().input_edges;
  }
  state.counters["edges"] = static_cast<double>(edges);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(edges));
}
BENCHMARK(BM_UnionManhattan)->Arg(100)->Arg(400)->Arg(1600)->Arg(6400)
    ->Unit(benchmark::kMillisecond);

void BM_AndManhattan(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const PolygonSet a = manhattan_soup(n, 3);
  const PolygonSet b = manhattan_soup(n, 4);
  for (auto _ : state) {
    BooleanEngine eng;
    add_all(eng, a, b);
    benchmark::DoNotOptimize(eng.trapezoids(BoolOp::And));
  }
}
BENCHMARK(BM_AndManhattan)->Arg(400)->Arg(1600)->Arg(6400)
    ->Unit(benchmark::kMillisecond);

void BM_XorAllAngle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const PolygonSet a = triangle_soup(n, 5);
  const PolygonSet b = triangle_soup(n, 6);
  for (auto _ : state) {
    BooleanEngine eng;
    add_all(eng, a, b);
    benchmark::DoNotOptimize(eng.trapezoids(BoolOp::Xor));
  }
}
BENCHMARK(BM_XorAllAngle)->Arg(100)->Arg(400)->Arg(1600)
    ->Unit(benchmark::kMillisecond);

// n disjoint 2x2 um squares on a 3 um pitch, each column shifted in y so
// every square brings its own pair of band events (ROADMAP's worst case for
// a per-band sweep). Reports the time per square.
void BM_DisjointSquaresDistinctY(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int cols = static_cast<int>(std::ceil(std::sqrt(double(n))));
  std::vector<Box> squares;
  for (int i = 0; i < n; ++i) {
    const int col = i % cols;
    const int row = i / cols;
    const Coord x = static_cast<Coord>(col * 3000);
    const Coord y = static_cast<Coord>(row * 3000 + (col * 37) % 1000);
    squares.push_back(Box{x, y, static_cast<Coord>(x + 2000), static_cast<Coord>(y + 2000)});
  }
  for (auto _ : state) {
    BooleanEngine eng;
    for (const Box& b : squares) eng.add(b);
    benchmark::DoNotOptimize(eng.trapezoids(BoolOp::Or));
  }
  state.counters["s_per_square"] = benchmark::Counter(
      static_cast<double>(n),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_DisjointSquaresDistinctY)->Arg(1000)->Arg(4000)->Arg(8000)->Arg(16000)
    ->Arg(32000)->Unit(benchmark::kMillisecond);

void BM_PolygonReconstruction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const PolygonSet a = manhattan_soup(n, 7);
  for (auto _ : state) {
    BooleanEngine eng;
    for (const Polygon& p : a.polygons()) eng.add(p, 0);
    benchmark::DoNotOptimize(eng.polygons(BoolOp::Or));
  }
}
BENCHMARK(BM_PolygonReconstruction)->Arg(400)->Arg(1600)->Arg(6400)
    ->Unit(benchmark::kMillisecond);

void BM_Sizing(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const PolygonSet a = manhattan_soup(n, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.sized(25));
  }
}
BENCHMARK(BM_Sizing)->Arg(200)->Arg(800)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
