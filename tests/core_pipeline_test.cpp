// Integration tests: workload generators and the end-to-end pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/ebl.h"
#include "util/contracts.h"

namespace ebl {
namespace {

TEST(Patterns, RandomManhattanHitsDensity) {
  Rng rng(1);
  const Box frame{0, 0, 100000, 100000};
  const PolygonSet s = random_manhattan(rng, frame, 0.3, 500, 5000);
  // Raw placement reaches at least the target (overlaps may reduce merged).
  EXPECT_GE(s.raw_area(), 0.3 * static_cast<double>(frame.area()));
  EXPECT_LE(s.area(), s.raw_area());
}

TEST(Patterns, LineSpaceArrayGeometry) {
  const PolygonSet s = line_space_array({0, 0}, 250, 500, 10000, 20);
  EXPECT_EQ(s.size(), 20u);
  EXPECT_DOUBLE_EQ(s.area(), 20.0 * 250.0 * 10000.0);
  EXPECT_EQ(s.bbox(), Box(0, 0, 19 * 500 + 250, 10000));
}

TEST(Patterns, StaircaseMonotoneHeights) {
  const PolygonSet s = staircase({0, 0}, 1000, 500, 8);
  EXPECT_EQ(s.size(), 8u);
  EXPECT_EQ(s.bbox(), Box(0, 0, 8000, 4000));
}

TEST(Patterns, ZonePlateRadiiFollowFresnel) {
  // f = 150 µm, lambda = 532 nm (the canonical FZP of the field).
  const PolygonSet s = zone_plate({0, 0}, 150000.0, 532.0, 10);
  EXPECT_EQ(s.size(), 10u);
  // First opaque zone: inner radius r1 = sqrt(1*532*150000 + (532/2)^2).
  const double r1 = std::sqrt(532.0 * 150000.0 + 266.0 * 266.0);
  const Box bb = s.polygons()[0].bbox();
  EXPECT_NEAR(bb.hi.x, std::sqrt(2 * 532.0 * 150000.0 + 532.0 * 532.0), 5.0);
  EXPECT_TRUE(s.polygons()[0].holes().size() == 1);
  EXPECT_NEAR(s.polygons()[0].holes()[0].bbox().hi.x, r1, 5.0);
}

TEST(Patterns, CheckerboardHalfDensity) {
  const Box frame{0, 0, 8000, 8000};
  const PolygonSet s = checkerboard(frame, 1000);
  EXPECT_DOUBLE_EQ(s.area(), 0.5 * static_cast<double>(frame.area()));
}

TEST(Patterns, CombIsConnected) {
  const PolygonSet s = comb({0, 0}, 200, 300, 5000, 10);
  EXPECT_EQ(s.merged().size(), 1u);
}

TEST(Pipeline, BasicRunProducesShotsAndEstimates) {
  Rng rng(7);
  const PolygonSet s = random_manhattan(rng, Box{0, 0, 50000, 50000}, 0.2, 500, 5000);
  const PrepResult r = run_data_prep(s);
  EXPECT_GT(r.shots.size(), 0u);
  EXPECT_EQ(r.estimates.size(), 3u);
  EXPECT_GT(r.time_for("raster").total(), 0.0);
  EXPECT_GT(r.time_for("vector").total(), 0.0);
  EXPECT_GT(r.time_for("vsb").total(), 0.0);
  EXPECT_THROW(r.time_for("nonexistent"), ContractViolation);
  EXPECT_NEAR(r.fracture.area, s.area(), 1e-6);
}

TEST(Pipeline, PecReducesError) {
  PolygonSet s;
  s.insert(Box{0, 0, 20000, 20000});
  s.insert(Box{40000, 9000, 41000, 10000});
  PrepOptions opt;
  opt.fracture.max_shot_size = 2000;
  opt.pec_psf = Psf::double_gaussian(50.0, 3000.0, 0.7);
  opt.pec.max_iterations = 6;
  const PrepResult r = run_data_prep(s, opt);
  ASSERT_TRUE(r.pec_final_error && r.pec_uncorrected_error);
  EXPECT_LT(*r.pec_final_error, *r.pec_uncorrected_error / 2.0);
  EXPECT_GT(r.pec_iterations, 0);
}

TEST(Pipeline, UncorrectedErrorIsTheOneShardSolvesFirstSweep) {
  // A one-shard solve's first sweep runs at the input doses, so the reported
  // uncorrected error must equal what a fresh default-options evaluator
  // measures on the fractured input — for shard_size 0 and for a shard
  // larger than the pattern alike. The solve measured the delivered doses
  // on its last sweep, so no pec_measure stage appears.
  PolygonSet s;
  s.insert(Box{0, 0, 20000, 20000});
  s.insert(Box{40000, 9000, 41000, 10000});
  PrepOptions opt;
  opt.fracture.max_shot_size = 2000;
  opt.pec_psf = Psf::triple_gaussian(50.0, 3000.0, 600.0, 0.7, 0.3);
  opt.pec.max_iterations = 3;

  const ExposureEvaluator eval(fracture(s, opt.fracture).shots, *opt.pec_psf);
  double uncorrected = 0.0;
  for (double e : eval.exposures_at_centroids())
    uncorrected = std::max(uncorrected, std::abs(e / opt.pec.target - 1.0));

  for (const Coord shard_size : {0, 1000000}) {
    SCOPED_TRACE("shard_size " + std::to_string(shard_size));
    opt.pec.shard_size = shard_size;
    const PrepResult r = run_data_prep(s, opt);
    EXPECT_EQ(r.pec_shards, 1);
    ASSERT_TRUE(r.pec_uncorrected_error);
    EXPECT_NEAR(*r.pec_uncorrected_error, uncorrected, 1e-12);
    for (const StageTime& st : r.stage_times) EXPECT_NE(st.name, "pec_measure");
  }
}

TEST(Pipeline, EpeStageScoresThePrintedResult) {
  PolygonSet s;
  s.insert(Box{0, 0, 12000, 12000});
  for (Coord x = 16000; x < 24000; x += 3000) {
    for (Coord y = 1000; y < 9000; y += 3000) {
      s.insert(Box{x, y, x + 1000, y + 1000});
    }
  }
  PrepOptions opt;
  opt.fracture.max_shot_size = 2000;
  opt.pec_psf = Psf::double_gaussian(50.0, 3000.0, 0.7);
  opt.pec.max_iterations = 8;
  opt.epe = PrepEpeOptions{};
  opt.epe->score.search_window = 400;
  opt.epe->score.sim.pixel = 50;
  const PrepResult r = run_data_prep(s, opt);

  ASSERT_TRUE(r.epe.has_value());
  EXPECT_GT(r.epe->samples, 0u);
  EXPECT_LT(r.epe->p99, 100.0);  // corrected write lands close to target
  bool saw_stage = false;
  for (const StageTime& st : r.stage_times) saw_stage |= st.name == "epe";
  EXPECT_TRUE(saw_stage);

  // Without a PSF there is nothing to simulate: the stage must not run.
  PrepOptions no_psf;
  no_psf.epe = PrepEpeOptions{};
  const PrepResult r2 = run_data_prep(s, no_psf);
  EXPECT_FALSE(r2.epe.has_value());
}

TEST(Pipeline, EpeStageEqualsScoringTheRenderedRaster) {
  // The epe stage scores a lazy exposure field on the job's threads; its
  // statistics must equal scoring simulate_exposure's raster bit for bit.
  PolygonSet s = line_space_array({0, 0}, 200, 400, 6000, 8);
  s.insert(Box{5000, 0, 9000, 4000});
  const Psf psf = Psf::triple_gaussian(50.0, 3000.0, 600.0, 0.7, 0.3);
  for (const int threads : {1, 4}) {
    PrepOptions opt;
    opt.threads = threads;
    opt.fracture.max_shot_size = 2000;
    opt.pec_psf = psf;
    opt.pec.max_iterations = 4;
    opt.epe = PrepEpeOptions{};
    opt.epe->score.sim.pixel = 25;
    const PrepResult r = run_data_prep(s, opt);
    ASSERT_TRUE(r.epe.has_value());

    EpeOptions score = opt.epe->score;
    score.sim.threads = threads;
    const EpeStats want =
        score_epe(simulate_exposure(r.shots, psf, score.sim), opt.epe->print_level,
                  epe_edges(s), score);
    const EpeStats& got = *r.epe;
    EXPECT_GT(want.samples, 100u);
    EXPECT_EQ(got.samples, want.samples) << threads;
    EXPECT_EQ(got.missing, want.missing) << threads;
    const double g[] = {got.p50, got.p99, got.max, got.mean_abs, got.mean_signed};
    const double w[] = {want.p50, want.p99, want.max, want.mean_abs, want.mean_signed};
    EXPECT_EQ(std::memcmp(g, w, sizeof g), 0) << threads;
  }
}

TEST(Pipeline, FieldPartitioningSplitsAndPreservesArea) {
  Rng rng(9);
  const PolygonSet s = random_manhattan(rng, Box{0, 0, 300000, 300000}, 0.1, 3000, 30000);
  PrepOptions opt;
  opt.field_size = 100000;
  const PrepResult r = run_data_prep(s, opt);
  EXPECT_GT(r.fields.size(), 1u);
  EXPECT_GT(r.boundary_straddlers, 0u);
  EXPECT_NEAR(shot_area(r.shots), s.area(), s.area() * 1e-6);
}

TEST(Pipeline, RunsFromHierarchicalLayout) {
  Library lib("CHIP");
  const CellId cellA = lib.add_cell("MACRO");
  lib.cell(cellA).add_shape(LayerKey{1, 0}, Box{0, 0, 5000, 5000});
  const CellId top = lib.add_cell("TOP");
  Reference r;
  r.child = cellA;
  r.cols = 4;
  r.rows = 4;
  r.col_step = {10000, 0};
  r.row_step = {0, 10000};
  lib.cell(top).add_reference(r);

  const PrepResult res = run_data_prep(lib, top, LayerKey{1, 0});
  EXPECT_EQ(res.shots.size(), 16u);
  EXPECT_NEAR(shot_area(res.shots), 16.0 * 25e6, 1.0);
}

TEST(Pipeline, GdsToEbfEndToEnd) {
  // Full path: build layout -> write GDS -> read back -> prep -> EBF round
  // trip: the complete 1979 tape-to-tape flow.
  Library lib("FLOW");
  const CellId top = lib.add_cell("TOP");
  lib.cell(top).add_shape(LayerKey{1, 0}, Box{0, 0, 10000, 8000});
  lib.cell(top).add_shape(LayerKey{1, 0},
                          SimplePolygon{{{20000, 0}, {30000, 0}, {20000, 9000}}});

  std::stringstream gds;
  write_gds(lib, gds);
  const Library back = read_gds(gds);

  const PrepResult prep = run_data_prep(back, *back.find_cell("TOP"), LayerKey{1, 0});
  EbfFile ebf;
  ebf.shots = prep.shots;
  std::stringstream ebf_buf;
  write_ebf(ebf, ebf_buf);
  const EbfFile ebf_back = read_ebf(ebf_buf);
  EXPECT_EQ(ebf_back.shots.size(), prep.shots.size());
  EXPECT_NEAR(shot_area(ebf_back.shots), 10000.0 * 8000 + 0.5 * 10000 * 9000, 10.0);
}

TEST(Pipeline, EmptyGeometryRejected) {
  EXPECT_THROW(run_data_prep(PolygonSet{}), ContractViolation);
}

TEST(Pipeline, RecordsStageTimes) {
  Rng rng(11);
  const PolygonSet s = random_manhattan(rng, Box{0, 0, 50000, 50000}, 0.2, 500, 5000);

  // Minimal run: only the always-on stages execute, in pipeline order.
  const PrepResult basic = run_data_prep(s);
  ASSERT_EQ(basic.stage_times.size(), 2u);
  EXPECT_EQ(basic.stage_times[0].name, "fracture");
  EXPECT_EQ(basic.stage_times[1].name, "write_time");
  for (const StageTime& st : basic.stage_times) EXPECT_GE(st.ms, 0.0);

  // Full run: whole-pattern PEC and fields. The one-shard solve's single
  // correction round surfaces as pec_round_1, just before "pec".
  PrepOptions opt;
  opt.fracture.max_shot_size = 4000;
  opt.pec_psf = Psf::double_gaussian(50.0, 3000.0, 0.7);
  opt.pec.max_iterations = 2;
  opt.field_size = 20000;
  const PrepResult full = run_data_prep(s, opt);
  ASSERT_EQ(full.stage_times.size(), 5u);
  EXPECT_EQ(full.stage_times[0].name, "fracture");
  EXPECT_EQ(full.stage_times[1].name, "pec_round_1");
  EXPECT_EQ(full.stage_times[2].name, "pec");
  EXPECT_EQ(full.stage_times[3].name, "field_partition");
  EXPECT_EQ(full.stage_times[4].name, "write_time");

  // Sharded run: each halo-exchange round surfaces as its own pec_round_N
  // sub-stage (in round order, just before the enclosing "pec" entry).
  PrepOptions sharded = opt;
  sharded.pec.shard_size = 20000;
  const PrepResult sh = run_data_prep(s, sharded);
  std::vector<std::string> rounds;
  std::size_t pec_at = 0;
  for (std::size_t i = 0; i < sh.stage_times.size(); ++i) {
    if (sh.stage_times[i].name.rfind("pec_round_", 0) == 0) {
      rounds.push_back(sh.stage_times[i].name);
      EXPECT_GE(sh.stage_times[i].ms, 0.0);
    }
    if (sh.stage_times[i].name == "pec") pec_at = i;
  }
  ASSERT_GE(rounds.size(), 1u);
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    EXPECT_EQ(rounds[r], "pec_round_" + std::to_string(r + 1));
  }
  EXPECT_GT(pec_at, 0u);
  EXPECT_EQ(sh.stage_times[pec_at].name, "pec");
}

TEST(Pipeline, DistributedPecMatchesInProcessThroughThePipeline) {
  // The pipeline drives the distributed solve exactly like the in-process
  // one: same stages, same stage names, bitwise the same doses, plus the
  // worker count surfaced in the result.
  PolygonSet s;
  s.insert(Box{0, 0, 20000, 20000});
  s.insert(Box{40000, 9000, 41000, 10000});
  PrepOptions opt;
  opt.fracture.max_shot_size = 2000;
  opt.pec_psf = Psf::double_gaussian(50.0, 3000.0, 0.7);
  opt.pec.max_iterations = 6;
  opt.pec.shard_size = 25000;
  const PrepResult local = run_data_prep(s, opt);

  PrepOptions dopt = opt;
  dopt.pec.worker_count = 2;
  PrepResult dist;
  try {
    dist = run_data_prep(s, dopt);
  } catch (const DataError&) {
    GTEST_SKIP() << "pec_worker binary not built";
  }
  EXPECT_EQ(local.pec_workers, 0);
  EXPECT_GE(dist.pec_workers, 1);
  EXPECT_EQ(dist.pec_shards, local.pec_shards);
  ASSERT_EQ(dist.shots.size(), local.shots.size());
  for (std::size_t i = 0; i < local.shots.size(); ++i)
    EXPECT_EQ(dist.shots[i].dose, local.shots[i].dose) << "shot " << i;
}

// Stage names without the pec_round_N / pec_measure sub-stages of "pec".
std::vector<std::string> top_level_stages(const PrepResult& r) {
  std::vector<std::string> names;
  for (const StageTime& st : r.stage_times)
    if (st.name.rfind("pec_", 0) != 0) names.push_back(st.name);
  return names;
}

TEST(Pipeline, ShardedPecSkipsGlobalBaseline) {
  PolygonSet s;
  s.insert(Box{0, 0, 20000, 20000});
  s.insert(Box{40000, 9000, 41000, 10000});
  PrepOptions opt;
  opt.fracture.max_shot_size = 2000;
  opt.pec_psf = Psf::double_gaussian(50.0, 3000.0, 0.7);
  opt.pec.max_iterations = 6;
  opt.pec.shard_size = 25000;
  const PrepResult r = run_data_prep(s, opt);
  ASSERT_TRUE(r.pec_final_error);
  // A sharded solve's first sweep runs on density-warmed doses, so it
  // reports no uncorrected error, and no whole-pattern evaluator runs.
  EXPECT_FALSE(r.pec_uncorrected_error);
  EXPECT_GE(r.pec_shards, 2);
  EXPECT_LT(*r.pec_final_error, 0.05);
  EXPECT_EQ(top_level_stages(r),
            (std::vector<std::string>{"fracture", "pec", "write_time"}));
}

TEST(Pipeline, DistributedPecAtShardSizeZeroUsesTheDefaultShard) {
  // worker_count > 0 tiles at default_shard_size with shard_size left at 0.
  // This pattern fits in one default shard, so the distributed solve is the
  // in-process one-shard solve, uncorrected error included.
  PolygonSet s;
  s.insert(Box{0, 0, 20000, 20000});
  s.insert(Box{40000, 9000, 41000, 10000});
  PrepOptions opt;
  opt.fracture.max_shot_size = 2000;
  opt.pec_psf = Psf::double_gaussian(50.0, 3000.0, 0.7);
  opt.pec.max_iterations = 6;
  opt.pec.worker_count = 2;
  PrepResult r;
  try {
    r = run_data_prep(s, opt);
  } catch (const DataError&) {
    GTEST_SKIP() << "pec_worker binary not built";
  }
  ASSERT_TRUE(r.pec_final_error);
  EXPECT_EQ(r.pec_shards, 1);
  EXPECT_EQ(r.pec_workers, 1);
  EXPECT_EQ(top_level_stages(r),
            (std::vector<std::string>{"fracture", "pec", "write_time"}));

  PrepOptions lopt = opt;
  lopt.pec.worker_count = 0;
  const PrepResult local = run_data_prep(s, lopt);
  ASSERT_TRUE(local.pec_uncorrected_error && r.pec_uncorrected_error);
  EXPECT_EQ(*r.pec_uncorrected_error, *local.pec_uncorrected_error);
  EXPECT_EQ(*r.pec_final_error, *local.pec_final_error);
  ASSERT_EQ(r.shots.size(), local.shots.size());
  for (std::size_t i = 0; i < local.shots.size(); ++i)
    EXPECT_EQ(r.shots[i].dose, local.shots[i].dose) << "shot " << i;
}

// Property sweep: pipeline invariants across workloads.
class PipelineProperty : public ::testing::TestWithParam<int> {};

TEST_P(PipelineProperty, ShotAreasMatchGeometryAndTimesArePositive) {
  Rng rng(200 + GetParam());
  const double density = 0.05 + 0.1 * GetParam();
  const PolygonSet s =
      random_manhattan(rng, Box{0, 0, 80000, 80000}, density, 400, 6000);
  PrepOptions opt;
  opt.fracture.max_shot_size = 4000;
  const PrepResult r = run_data_prep(s, opt);
  EXPECT_NEAR(shot_area(r.shots), s.area(), s.area() * 1e-3);
  EXPECT_GT(r.time_for("vsb").total(), 0.0);
  // Raster time must not depend on density (same frame -> equal pixels),
  // checked against a fresh empty-ish run with the same extent.
  const WriteJob job = make_write_job(r.shots);
  const RasterScanWriter raster;
  EXPECT_NEAR(raster.write_time(job).total(),
              raster.write_time(WriteJob{job.extent, 1.0, 1.0, 1}).total(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Densities, PipelineProperty, ::testing::Range(0, 5));

}  // namespace
}  // namespace ebl
