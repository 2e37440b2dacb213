// bench_e2e — file-to-shots jobs timed end to end and layer by layer.
//
// Four modes, each its own process so that memory and cold-start effects
// stay apart (run.py drives them and does the statistics):
//
//   gen   --workload W --seed N [--quick] --out-dir DIR
//         writes the workload's layout file into DIR and prints its path
//         (kept out of the timed process, so peak RSS counts only the jobs).
//   cold  --workload W --input PATH
//         one job in a fresh process: setup_s is the time from main() to the
//         end of that first job; peak RSS is read right after it.
//   run   --workload W --input PATH --seconds S [--min-jobs N]
//         closed loop, one job in flight: one untimed cold job, then timed
//         warm jobs of run_data_prep until S seconds have passed and at
//         least N (default 5) ran, with a host-speed probe (host_probe.h)
//         before each job and after the last; then one untimed traced job
//         (below) whose output must equal the last job's.
//   trace --workload W --input PATH --seconds S --trace-out PATH [--min-jobs N]
//         alternates a run_data_prep job with a traced job that calls each
//         layer's public function in turn under a span, checks that both
//         give bitwise-identical shots, doses and EPE statistics, and writes
//         the spans as Chrome trace-event JSON (at least N, default 3, pairs).
//
// Every mode prints one JSON object on stdout and exits 0 when it could run
// its jobs; jobs that throw or fail a correctness check are counted in the
// JSON, not hidden. Usage errors and unreadable inputs exit 2.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/job.h"
#include "geom/boolean.h"
#include "host_probe.h"
#include "pec/sharded.h"
#include "trace.h"
#include "util/contracts.h"
#include "workloads.h"

using namespace ebl;
using e2e::TraceRecorder;

namespace {

const auto kProcessStart = std::chrono::steady_clock::now();

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------------ JSON ---

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

/// Flat JSON object writer; values are numbers, strings, arrays of either,
/// or nested objects.
class Json {
 public:
  Json& num(const std::string& k, double v) { return raw(k, number(v)); }
  Json& str(const std::string& k, const std::string& v) { return raw(k, quoted(v)); }
  Json& nums(const std::string& k, const std::vector<double>& v) {
    std::string a = "[";
    for (std::size_t i = 0; i < v.size(); ++i) a += (i ? ", " : "") + number(v[i]);
    return raw(k, a + "]");
  }
  Json& strs(const std::string& k, const std::vector<std::string>& v) {
    std::string a = "[";
    for (std::size_t i = 0; i < v.size(); ++i) a += (i ? ", " : "") + quoted(v[i]);
    return raw(k, a + "]");
  }
  Json& obj(const std::string& k, const Json& v) { return raw(k, v.text()); }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  Json& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + quoted(k) + ": " + v;
    return *this;
  }
  std::string body_;
};

// ------------------------------------------------------ outputs & checks ---

/// 64-bit FNV-1a over every shot's six coordinates and its dose bits.
std::uint64_t shot_digest(const ShotList& shots) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const Shot& s : shots) {
    const Trapezoid& t = s.shape;
    for (const Coord c : {t.y0, t.y1, t.xl0, t.xr0, t.xl1, t.xr1})
      mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(c)));
    mix(std::bit_cast<std::uint64_t>(s.dose));
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const ShotList& a, const ShotList& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].shape != b[i].shape || !same_bits(a[i].dose, b[i].dose)) return false;
  return true;
}

bool same_bits(const EpeStats& a, const EpeStats& b) {
  return same_bits(a.p50, b.p50) && same_bits(a.p99, b.p99) && same_bits(a.max, b.max) &&
         same_bits(a.mean_abs, b.mean_abs) && same_bits(a.mean_signed, b.mean_signed) &&
         a.samples == b.samples && a.missing == b.missing;
}

/// Checks one run_data_prep result against what the options promise.
/// Returns one message per failed check.
std::vector<std::string> check_result(const PrepOptions& o, const PrepResult& r) {
  std::vector<std::string> fails;
  if (r.shots.empty()) fails.push_back("job produced no shots");
  // Field partitioning clips shots but must keep their area, up to the
  // grid rounding of slanted sides cut at a field edge.
  double area = 0.0;
  for (const Shot& s : r.shots) area += s.shape.area();
  if (std::abs(area - r.fracture.area) > 1e-6 * r.fracture.area)
    fails.push_back("shot area " + number(area) + " != fractured area " +
                    number(r.fracture.area));
  if (o.pec_psf) {
    if (!r.pec_final_error || !(*r.pec_final_error <= o.pec.tolerance))
      fails.push_back("pec_max_error above the tolerance " + number(o.pec.tolerance));
    for (const Shot& s : r.shots) {
      if (!(s.dose >= o.pec.min_dose && s.dose <= o.pec.max_dose)) {
        fails.push_back("dose " + number(s.dose) + " outside the clamp range");
        break;
      }
    }
  }
  if (o.pec.worker_count > 0) {
    if (r.pec_workers != std::min(o.pec.worker_count, r.pec_shards))
      fails.push_back("distributed solve ran on " + std::to_string(r.pec_workers) +
                      " workers");
    if (r.pec_worker_restarts != 0 || r.pec_reassigned_jobs != 0 ||
        r.pec_degraded_to_inprocess)
      fails.push_back("distributed solve recovered from worker faults");
  }
  if (o.epe && o.pec_psf && (!r.epe || r.epe->samples == 0))
    fails.push_back("epe stage scored no probes");
  return fails;
}

double peak_rss_mb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// One run_data_prep job with its checks. Exceptions count as failures.
struct Job {
  std::optional<PrepResult> result;
  double seconds = 0.0;
  std::vector<std::string> failures;
};

Job run_job(const PrepOptions& o) {
  Job job;
  const auto t0 = Clock::now();
  try {
    job.result = run_data_prep(o);
    job.seconds = seconds_since(t0);
    job.failures = check_result(o, *job.result);
  } catch (const std::exception& e) {
    job.seconds = seconds_since(t0);
    job.failures.push_back(std::string("job threw: ") + e.what());
  }
  return job;
}

// ----------------------------------------------------------- traced job ---

struct TracedJob {
  ShotList shots;
  std::optional<EpeStats> epe;
  std::map<std::string, double> metrics;  ///< per-layer metrics of this job
  double job_ms = 0.0;                    ///< less the in-process reference
  std::vector<std::string> failures;
};

/// The job of run_data_prep(o), with each layer's public function called
/// from here under its own span, in the pipeline's order and with the
/// pipeline's arguments, so the output must match bit for bit.
TracedJob traced_job(const PrepOptions& o, TraceRecorder& rec) {
  TracedJob out;
  auto& m = out.metrics;
  TraceRecorder::Scope job(rec, "job");

  // layout: stream_layer feeding the boolean engine (stream_fracture's
  // emit callback), collecting the EPE target when the epe stage runs.
  BooleanEngine eng;
  PolygonSet target;
  PolygonSet* collect = o.epe && o.pec_psf ? &target : nullptr;
  IngestStats ingest;
  {
    TraceRecorder::Scope s(rec, "layout");
    const auto stream = open_layout_stream(o.input_path);
    ingest = stream_layer(*stream, o.ingest, [&](const Polygon& p) {
      eng.add(p, 0);
      if (collect) collect->insert(p);
    });
    m["layout.parse_ms"] = s.close();
  }
  m["layout.cells"] = double(ingest.cells);
  m["layout.placements"] = double(ingest.placements);
  m["layout.polygons"] = double(ingest.polygons);
  m["layout.cell_parses"] = double(ingest.cell_parses);
  m["layout.reloads"] = double(ingest.reloads);
  m["layout.reload_ratio"] =
      ingest.cell_parses ? double(ingest.reloads) / double(ingest.cell_parses) : 0.0;
  m["layout.peak_resident"] = double(ingest.peak_resident);

  std::vector<Trapezoid> traps;
  {
    TraceRecorder::Scope s(rec, "geom.boolean");
    traps = eng.trapezoids(BoolOp::Or, o.fracture.strategy != FractureStrategy::bands);
    m["geom.boolean_ms"] = s.close();
  }
  const BooleanStats& bs = eng.stats();
  m["geom.input_edges"] = double(bs.input_edges);
  m["geom.split_edges"] = double(bs.split_edges);
  m["geom.split_rounds"] = double(bs.split_rounds);
  m["geom.bands"] = double(bs.bands);

  FractureResult frac;
  {
    TraceRecorder::Scope s(rec, "fracture");
    frac = fracture(traps, o.fracture);
    m["fracture.ms"] = s.close();
  }
  m["fracture.figures"] = double(frac.stats.figures);
  m["fracture.shots"] = double(frac.stats.shots);
  m["fracture.slivers"] = double(frac.stats.slivers);
  ShotList shots = std::move(frac.shots);

  // Every layer's span opens on every workload: a layer the options switch
  // off reports the few microseconds of deciding so, never a made-up zero.
  const bool epe = o.epe && o.pec_psf;
  PecOptions pec_opt = o.pec;
  if (pec_opt.exposure.threads == 0) pec_opt.exposure.threads = o.threads;
  {
    TraceRecorder::Scope s(rec, "pec.baseline");
    if (o.pec_psf && o.pec.shard_size == 0) {
      ExposureEvaluator eval(shots, *o.pec_psf, pec_opt.exposure);
      double uncorrected = 0.0;
      for (double e : eval.exposures_at_centroids())
        uncorrected = std::max(uncorrected, std::abs(e / pec_opt.target - 1.0));
      m["pec.uncorrected_error"] = uncorrected;
    }
    m["pec.baseline_ms"] = s.close();
  }
  std::optional<PecResult> pec;
  {
    TraceRecorder::Scope s(rec, "pec");
    if (o.pec_psf) pec = correct_proximity(shots, *o.pec_psf, pec_opt);
    m["pec.ms"] = s.close();
  }
  double reference_ms = 0.0;
  if (pec && pec_opt.worker_count > 0) {
    // The same sharded solve in-process: the doses must be bitwise-equal,
    // and the time difference is what the transport costs.
    PecOptions local = pec_opt;
    local.worker_count = 0;
    TraceRecorder::Scope s(rec, "pec.inprocess_ref");
    const PecResult ref = correct_proximity(shots, *o.pec_psf, local);
    reference_ms = s.close();
    if (!same_bits(ref.shots, pec->shots))
      out.failures.push_back("distributed doses differ from the in-process sharded solve");
    m["transport.overhead_frac"] = m["pec.ms"] / reference_ms - 1.0;
  }
  if (pec) {
    // PEC internals as shares of the pec span. Shard and worker evaluators
    // are summed, so on concurrent solves the shares can add up past 1.
    const double pec_ms = m["pec.ms"];
    const BlurPerf& b = pec->blur;
    m["pec.max_error"] = pec->final_max_error;
    m["pec.iterations"] = pec->iterations;
    m["pec.rounds"] = pec->rounds;
    m["pec.shards"] = pec->shards;
    m["pec.blur_frac"] = b.blur_ms / pec_ms;
    m["pec.accumulate_frac"] = b.accumulate_ms / pec_ms;
    m["pec.delta_accumulate_frac"] = b.delta_accumulate_ms / pec_ms;
    m["pec.windowed_blur_frac"] = b.windowed_blur_ms / pec_ms;
    m["pec.other_frac"] = 1.0 - (b.blur_ms + b.accumulate_ms + b.delta_accumulate_ms) / pec_ms;
    m["pec.full_refreshes"] = b.refreshes;
    m["pec.delta_refreshes"] = b.delta_refreshes;
    m["pec.skipped_refreshes"] = b.skipped_refreshes;
    m["pec.windowed_blurs"] = b.windowed_blurs;
    m["pec.shots_delta_updated"] = double(b.shots_updated);
    m["pec.delta_ratio"] = b.refreshes + b.delta_refreshes
                               ? double(b.delta_refreshes) / (b.refreshes + b.delta_refreshes)
                               : 0.0;
    for (std::size_t r = 0; r < pec->round_ms.size(); ++r)
      m["pec.round_frac." + std::to_string(r + 1)] = pec->round_ms[r] / pec_ms;
    m["pec.measure_frac"] = std::max(0.0, pec->measure_ms) / pec_ms;
    m["pec.resident_shards"] = pec->resident_shards;
    m["pec.shard_evictions"] = pec->shard_evictions;
    m["transport.workers"] = pec->workers;
    m["transport.worker_restarts"] = pec->worker_restarts;
    m["transport.reassigned_jobs"] = pec->reassigned_jobs;
    m["transport.degraded"] = pec->degraded_to_inprocess ? 1.0 : 0.0;
    shots = std::move(pec->shots);
  }

  {
    TraceRecorder::Scope s(rec, "machine.field");
    if (o.field_size > 0) {
      FieldPartition part = partition_fields_counted(shots, o.field_size, o.threads);
      ShotList flat;
      for (const FieldJob& f : part.fields)
        flat.insert(flat.end(), f.shots.begin(), f.shots.end());
      shots = std::move(flat);
      m["machine.fields"] = double(part.fields.size());
      m["machine.straddlers"] = double(part.straddlers);
    }
    m["machine.field_ms"] = s.close();
  }
  {
    TraceRecorder::Scope s(rec, "machine.write_time");
    const WriteJob wj = make_write_job(shots);
    RasterScanWriter(o.raster).write_time(wj);
    VectorScanWriter(o.vector_scan).write_time(wj);
    m["machine.vsb_write_s"] = VsbWriter(o.vsb).write_time(wj).total();
    m["machine.write_time_ms"] = s.close();
  }

  EpeOptions score = epe ? o.epe->score : EpeOptions{};
  if (score.sim.threads == 0) score.sim.threads = o.threads;
  std::optional<Raster> exposure;
  {
    TraceRecorder::Scope s(rec, "sim.simulate");
    if (epe) exposure.emplace(simulate_exposure(shots, *o.pec_psf, score.sim));
    m["sim.simulate_ms"] = s.close();
  }
  {
    TraceRecorder::Scope s(rec, "sim.score");
    if (epe) out.epe = score_epe(*exposure, o.epe->print_level, epe_edges(target), score);
    m["sim.score_ms"] = s.close();
  }
  if (epe) {
    m["sim.raster_mpx"] = double(exposure->width()) * exposure->height() / 1e6;
    m["sim.epe_samples"] = double(out.epe->samples);
    m["sim.epe_missing"] = double(out.epe->missing);
    m["sim.epe_p50_dbu"] = out.epe->p50;
    m["sim.epe_p99_dbu"] = out.epe->p99;
  }
  out.job_ms = job.close() - reference_ms;
  out.shots = std::move(shots);
  return out;
}

/// The traced job's own failures plus its bitwise comparison with @p ref,
/// a run_data_prep result of the same options.
std::vector<std::string> check_traced(TracedJob t, const std::optional<PrepResult>& ref) {
  std::vector<std::string> msgs = std::move(t.failures);
  if (!ref) {
    msgs.push_back("no run_data_prep result to compare the traced job with");
    return msgs;
  }
  if (!same_bits(t.shots, ref->shots))
    msgs.push_back("traced shots or doses differ from run_data_prep's");
  if (t.epe.has_value() != ref->epe.has_value() || (t.epe && !same_bits(*t.epe, *ref->epe)))
    msgs.push_back("traced EpeStats differ from run_data_prep's");
  return msgs;
}

// ----------------------------------------------------------------- modes ---

struct Args {
  std::map<std::string, std::string> values;
  bool quick = false;

  const std::string& need(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) throw ContractViolation("missing --" + key);
    return it->second;
  }

  /// --min-jobs: the loop runs at least this many timed jobs even when
  /// --seconds has already passed.
  std::size_t min_jobs(std::size_t fallback) const {
    const auto it = values.find("min-jobs");
    return it == values.end() ? fallback : std::stoul(it->second);
  }
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      a.quick = true;
    } else if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      a.values[arg.substr(2)] = argv[++i];
    } else {
      throw ContractViolation("unexpected argument " + arg);
    }
  }
  return a;
}

/// Jobs attempted, jobs failed, and the first failure messages.
struct Tally {
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> failures;

  void add(const std::vector<std::string>& job_failures) {
    ++attempted;
    if (!job_failures.empty()) ++failed;
    for (const std::string& f : job_failures)
      if (failures.size() < 20) failures.push_back(f);
  }

  std::string json(Json j) const {
    return j.num("attempted", double(attempted))
        .num("failed", double(failed))
        .strs("failures", failures)
        .text();
  }
};

int cmd_gen(const Args& a) {
  const std::string& workload = a.need("workload");
  const std::string& seed = a.need("seed");
  const std::string path = a.need("out-dir") + "/" + workload + "-" + seed +
                           (a.quick ? "-quick" : "") + e2e::layout_extension(workload);
  e2e::write_workload_layout(workload, std::stoull(seed), a.quick, path);
  std::cout << Json().str("layout", path).text() << "\n";
  return 0;
}

/// Median of three probe runs after a warm-up run (the first run pays the
/// probe's own page faults).
double settled_probe_s() {
  e2e::HostProbe probe;
  probe.run();
  std::vector<double> t = {probe.run(), probe.run(), probe.run()};
  std::sort(t.begin(), t.end());
  return t[1];
}

int cmd_cold(const Args& a) {
  const PrepOptions o = e2e::workload_prep(a.need("workload"), a.need("input"));
  const Job job = run_job(o);
  const double setup_s = seconds_since(kProcessStart);
  // Memory is read before the probe allocates anything.
  const double rss = peak_rss_mb(RUSAGE_SELF), worker_rss = peak_rss_mb(RUSAGE_CHILDREN);
  Json j;
  j.num("setup_s", setup_s)
      .num("probe_s", settled_probe_s())
      .num("probe_reference_s", e2e::kReferenceProbeSeconds)
      .num("peak_rss_mb", rss)
      .num("worker_peak_rss_mb", worker_rss)
      .str("digest", job.result ? hex(shot_digest(job.result->shots)) : "");
  Tally tally;
  tally.add(job.failures);
  std::cout << tally.json(j) << "\n";
  return 0;
}

int cmd_run(const Args& a) {
  const PrepOptions o = e2e::workload_prep(a.need("workload"), a.need("input"));
  const double budget = std::stod(a.need("seconds"));
  const std::size_t min_warm_jobs = a.min_jobs(5);

  Tally tally;
  std::optional<std::uint64_t> digest;
  auto account = [&](Job& job) {
    if (job.result) {
      const std::uint64_t d = shot_digest(job.result->shots);
      if (!digest) digest = d;
      if (d != *digest) job.failures.push_back("shot digest differs from the first job's");
    }
    tally.add(job.failures);
  };

  Job cold = run_job(o);  // untimed: lazy set-up and first-touch pages
  account(cold);
  e2e::HostProbe probe;
  probe.run();
  std::vector<double> warm_s, probe_s;
  std::optional<PrepResult> last;
  const auto t0 = Clock::now();
  while (warm_s.size() < min_warm_jobs || seconds_since(t0) < budget) {
    probe_s.push_back(probe.run());  // right before the job it scales
    Job job = run_job(o);
    account(job);
    warm_s.push_back(job.seconds);
    if (job.result) last = std::move(job.result);
  }
  probe_s.push_back(probe.run());  // so every job has a probe on each side

  // One untimed traced job: calling the layers one by one must give what
  // run_data_prep gave, bit for bit.
  TraceRecorder rec;
  std::vector<std::string> msgs;
  try {
    msgs = check_traced(traced_job(o, rec), last);
  } catch (const std::exception& e) {
    msgs.push_back(std::string("traced job threw: ") + e.what());
  }
  tally.add(msgs);

  Json j;
  j.nums("job_s", warm_s)
      .nums("probe_s", probe_s)
      .num("probe_reference_s", e2e::kReferenceProbeSeconds)
      .num("threads", o.threads)
      .num("shots", last ? double(last->shots.size()) : 0.0)
      .str("digest", digest ? hex(*digest) : "")
      .num("pec_max_error", last && last->pec_final_error ? *last->pec_final_error : 0.0)
      .num("epe_p50_dbu", last && last->epe ? last->epe->p50 : 0.0)
      .num("epe_p99_dbu", last && last->epe ? last->epe->p99 : 0.0)
      .num("vsb_write_s", last ? last->time_for("vsb").total() : 0.0);
  std::cout << tally.json(j) << "\n";
  return 0;
}

int cmd_trace(const Args& a) {
  const PrepOptions o = e2e::workload_prep(a.need("workload"), a.need("input"));
  const double budget = std::stod(a.need("seconds"));
  const std::size_t min_pairs = a.min_jobs(3);

  Tally tally;
  Job cold = run_job(o);
  tally.add(cold.failures);

  TraceRecorder rec;
  std::map<std::string, std::vector<double>> metrics;
  std::vector<double> traced_ms, reference_ms;
  std::string digest = cold.result ? hex(shot_digest(cold.result->shots)) : "";
  const auto t0 = Clock::now();
  for (int pair = 0; std::size_t(pair) < min_pairs || seconds_since(t0) < budget; ++pair) {
    Job ref = run_job(o);
    tally.add(ref.failures);
    reference_ms.push_back(1000.0 * ref.seconds);
    if (ref.result) {
      // Stage shares of the job. pec_round_N and pec_measure are sub-stages
      // of pec, so only the top-level stages make up the total.
      auto sub_stage = [](const std::string& n) {
        return n.rfind("pec_round_", 0) == 0 || n == "pec_measure";
      };
      double total = 0.0;
      for (const StageTime& st : ref.result->stage_times)
        if (!sub_stage(st.name)) total += st.ms;
      for (const StageTime& st : ref.result->stage_times)
        metrics["core.stage." + st.name + "_frac"].push_back(st.ms / total);
    }

    rec.set_job(pair);
    std::vector<std::string> msgs;
    try {
      TracedJob t = traced_job(o, rec);
      traced_ms.push_back(t.job_ms);
      for (const auto& [name, v] : t.metrics) metrics[name].push_back(v);
      if (hex(shot_digest(t.shots)) != digest)
        msgs.push_back("traced shot digest differs from the first job's");
      for (std::string& f : check_traced(std::move(t), ref.result)) msgs.push_back(std::move(f));
    } catch (const std::exception& e) {
      msgs.push_back(std::string("traced job threw: ") + e.what());
    }
    tally.add(msgs);
  }

  std::sort(traced_ms.begin(), traced_ms.end());
  std::sort(reference_ms.begin(), reference_ms.end());
  auto median = [](const std::vector<double>& v) {
    const std::size_t n = v.size();
    return n == 0 ? 0.0 : n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };
  if (!traced_ms.empty() && median(reference_ms) > 0.0)
    metrics["trace.overhead_frac"].push_back(median(traced_ms) / median(reference_ms) - 1.0);
  metrics["transport.worker_peak_rss_mb"].push_back(peak_rss_mb(RUSAGE_CHILDREN));

  const std::string out = a.need("trace-out");
  if (!rec.write_chrome_json(out)) {
    std::cerr << "bench_e2e: cannot write " << out << "\n";
    return 2;
  }
  Json per_metric, self;
  for (const auto& [name, v] : metrics) per_metric.nums(name, v);
  for (const auto& [name, v] : rec.self_ms_by_name()) self.nums(name, v);
  Json j;
  j.obj("metrics", per_metric).obj("self_ms", self).str("digest", digest).str("trace", out);
  std::cout << tally.json(j) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    const Args args = parse_args(argc, argv);
    if (mode == "gen") return cmd_gen(args);
    if (mode == "cold") return cmd_cold(args);
    if (mode == "run") return cmd_run(args);
    if (mode == "trace") return cmd_trace(args);
    std::cerr << "usage: bench_e2e gen|cold|run|trace --workload W ...\n"
                 "(see the comment at the top of bench_e2e.cpp)\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e " << mode << ": " << e.what() << "\n";
    return 2;
  }
}
