#include "core/job.h"

#include <chrono>
#include <functional>
#include <utility>

#include "util/contracts.h"

namespace ebl {

const WriteTime& PrepResult::time_for(const std::string& machine) const {
  for (const MachineEstimate& e : estimates) {
    if (e.machine == machine) return e.time;
  }
  throw ContractViolation("no estimate for machine " + machine);
}

namespace {

/// Shared stage driver: @p front is the geometry-producing first stage
/// ("fracture" for in-RAM input, "ingest" for streamed file input); the
/// remaining stages are identical. @p epe_target is the flattened geometry
/// the optional epe stage scores against — for streamed jobs the front
/// stage fills it, which is safe because stages run in order.
PrepResult run_pipeline(const PrepOptions& options, const char* front_name,
                        const std::function<void(PrepResult&)>& front,
                        const PolygonSet& epe_target) {
  PrepResult result;

  // Thread precedence: an explicit per-stage knob wins, then the
  // pipeline-wide PrepOptions::threads, then EBL_THREADS / hardware
  // concurrency (the 0 = auto path inside resolve_threads).
  PecOptions pec_opt = options.pec;
  if (pec_opt.exposure.threads == 0) pec_opt.exposure.threads = options.threads;

  // The pipeline is an explicit stage list: each stage is enabled by the
  // options it consumes and its wall-clock lands in stage_times, so callers
  // see where a prep job spends its time without instrumenting anything.
  struct Stage {
    const char* name;
    bool enabled;
    std::function<void()> run;
  };
  const Stage stages[] = {
      {front_name, true, [&] { front(result); }},
      {"pec", options.pec_psf.has_value(),
       [&] {
         PecResult pec = correct_proximity(result.shots, *options.pec_psf, pec_opt);
         result.shots = std::move(pec.shots);
         result.pec_final_error = pec.final_max_error;
         // A one-shard solve's first sweep measures the input doses on its
         // whole-pattern evaluator. A multi-shard solve's first entry is the
         // density-warmed error instead, so it reports none.
         if (pec.shards == 1)
           result.pec_uncorrected_error = pec.max_error_history.front();
         result.pec_iterations = pec.iterations;
         result.pec_shards = pec.shards;
         result.pec_workers = pec.workers;
         result.pec_worker_restarts = pec.worker_restarts;
         result.pec_reassigned_jobs = pec.reassigned_jobs;
         result.pec_degraded_to_inprocess = pec.degraded_to_inprocess;
         // Surface each correction round (and the final measurement pass,
         // when one ran) as its own stage so the halo-exchange cost is
         // visible in profiles. These land before the enclosing "pec"
         // stage's own entry, in execution order.
         for (std::size_t r = 0; r < pec.round_ms.size(); ++r) {
           result.stage_times.push_back(
               {"pec_round_" + std::to_string(r + 1), pec.round_ms[r]});
         }
         if (pec.measure_ms >= 0.0) {
           result.stage_times.push_back({"pec_measure", pec.measure_ms});
         }
       }},
      {"field_partition", options.field_size > 0,
       [&] {
         FieldPartition part = partition_fields_counted(
             result.shots, options.field_size, options.threads);
         result.boundary_straddlers = part.straddlers;
         result.fields = std::move(part.fields);
         // Field clipping may split shots; the flat shot list follows the
         // fields so downstream consumers see exactly what the machine will
         // flash.
         ShotList flat;
         for (const FieldJob& f : result.fields)
           flat.insert(flat.end(), f.shots.begin(), f.shots.end());
         result.shots = std::move(flat);
       }},
      {"write_time", true,
       [&] {
         const WriteJob job = make_write_job(result.shots);
         result.estimates.push_back(
             {"raster", RasterScanWriter(options.raster).write_time(job)});
         result.estimates.push_back(
             {"vector", VectorScanWriter(options.vector_scan).write_time(job)});
         result.estimates.push_back({"vsb", VsbWriter(options.vsb).write_time(job)});
       }},
      // Closed-loop verification: score where the final doses actually put
      // the printed edges, against the geometry the job started from.
      {"epe", options.epe.has_value() && options.pec_psf.has_value(),
       [&] {
         EpeOptions score = options.epe->score;
         if (score.sim.threads == 0) score.sim.threads = options.threads;
         result.epe = measure_epe(result.shots, *options.pec_psf, epe_target,
                                  options.epe->print_level, score);
       }},
  };

  for (const Stage& stage : stages) {
    if (!stage.enabled) continue;
    const auto t0 = std::chrono::steady_clock::now();
    stage.run();
    result.stage_times.push_back(
        {stage.name, std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count()});
  }
  return result;
}

}  // namespace

PrepResult run_data_prep(const PolygonSet& geometry, const PrepOptions& options) {
  expects(!geometry.empty(), "run_data_prep: empty geometry");
  return run_pipeline(
      options, "fracture",
      [&](PrepResult& result) {
        FractureResult frac = fracture(geometry, options.fracture, options.threads);
        result.fracture = frac.stats;
        result.shots = std::move(frac.shots);
      },
      geometry);
}

PrepResult run_data_prep(const Library& lib, CellId top, LayerKey layer,
                         const PrepOptions& options) {
  return run_data_prep(lib.flatten(top, layer), options);
}

PrepResult run_data_prep(const PrepOptions& options) {
  expects(!options.input_path.empty(), "run_data_prep: input_path not set");
  const auto stream = open_layout_stream(options.input_path);
  // The epe stage needs the flattened target geometry; collect it during
  // ingest only when that stage will actually run, preserving the O(window)
  // footprint otherwise.
  PolygonSet collected;
  PolygonSet* collect =
      options.epe.has_value() && options.pec_psf.has_value() ? &collected : nullptr;
  return run_pipeline(
      options, "ingest",
      [&, collect](PrepResult& result) {
        StreamFractureResult r =
            stream_fracture(*stream, options.ingest, options.fracture, collect, options.threads);
        if (r.ingest.polygons == 0)
          throw DataError("run_data_prep: no geometry on the requested layer in " +
                          options.input_path);
        result.fracture = r.fracture.stats;
        result.shots = std::move(r.fracture.shots);
        result.ingest = r.ingest;
      },
      collected);
}

}  // namespace ebl
