// Stack benchmark: host seconds the simulator spends per simulated request
// and per simulated DP cell, on three workloads that load different layers
// of the stack, plus a traced pass that splits that host time across the
// layers (workload, serve, fleet, guard, cluster, kernels, simt, obs).
//
//   stack_bench --workload cluster_bursty|fleet_outputs|longread_sw
//               [--seed N] [--seconds S] [--trace 0|1]
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. The line before it records the setup. A failed
// correctness check prints no numbers and exits non-zero. README.md in
// this directory explains every workload and metric.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "wsim/cluster/cluster.hpp"
#include "wsim/fleet/fleet.hpp"
#include "wsim/guard/guard.hpp"
#include "wsim/kernels/ph_kernels.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/kernels/wavefront_kernels.hpp"
#include "wsim/obs/json.hpp"
#include "wsim/obs/metrics.hpp"
#include "wsim/obs/obs.hpp"
#include "wsim/serve/service.hpp"
#include "wsim/simt/decode.hpp"
#include "wsim/simt/engine.hpp"
#include "wsim/simt/interpreter.hpp"
#include "wsim/util/rng.hpp"
#include "wsim/workload/batching.hpp"
#include "wsim/workload/dataset_io.hpp"
#include "wsim/workload/generator.hpp"
#include "wsim/workload/trace.hpp"

namespace {

using namespace wsim;
using Clock = std::chrono::steady_clock;
using obs::json_number;
using obs::json_quote;

// --- fixed benchmark settings ------------------------------------------------

/// Engine worker threads, the same on every workload (and never more than
/// the one hardware thread a small container may have).
constexpr int kEngineThreads = 1;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Fewest warm repetitions per run, however short --seconds is.
constexpr int kMinReps = 3;
/// Traced pass: obs-off and kMetrics repetitions (interleaved), and passes
/// over each lower rung; every figure is the median.
constexpr int kTracedReps = 3;
constexpr double kCostPerDeviceHour = 2.5;
constexpr double kSloSeconds = 20e-3;

// cluster_bursty: the ROADMAP's cluster-sim replay.
/// The trace draws tasks from the dataset's pools; many small regions keep
/// the pool's mean task shape steady across seeds without a large pool.
constexpr int kClusterRegions = 256;
constexpr double kClusterPhPerRegion = 12.0;
constexpr double kClusterDuration = 2.0;
constexpr double kClusterRate = 20000.0;
constexpr int kClusterTenants = 2;
constexpr std::size_t kClusterMaxWorkers = 4;

// fleet_outputs: requests drawn without replacement from a paper-shaped
// dataset (about 4 SW and 189 PairHMM tasks per region), replayed open-loop
// with outputs. Drawing from many regions keeps the mean task shape, and
// with it the host cost per request, stable across seeds.
constexpr int kFleetRegions = 96;
/// Exactly the paper's 4:189 mix per draw, so the number of (costly) SW
/// requests does not vary with the seed.
constexpr std::size_t kFleetSwRequests = 25;
constexpr std::size_t kFleetPhRequests = 1175;
constexpr double kFleetRate = 40000.0;

// longread_sw: an offline, timing-only batch of >= 1 kbp SW tasks. Timed
// repetitions reuse cached tile costs: collecting outputs would put each
// task's multi-megabyte backtrace matrix through the shared L3, whose
// contention swung run-to-run host time by 15-35% on a shared host.
// Lengths sit just below a multiple of the 256-row wavefront tile, so every
// task has the same tile grid and the host cost per cell does not swing
// with a seed-dependent, nearly empty last tile row.
constexpr int kLongTasks = 64;
constexpr std::size_t kLongBatch = 2;
constexpr int kLongLenMin = 1000;
constexpr int kLongLenMax = 1024;

/// PairHMM agreement with the CPU reference (f32 device vs SIMD host sums,
/// the tolerance the kernel tests apply): |device - cpu| <= abs + rel*|cpu|.
constexpr double kPhAbsTol = 5e-3;
constexpr double kPhRelTol = 1e-3;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// A failed correctness check: the run reports no numbers.
struct GateError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void gate(bool ok, const std::string& what) {
  if (!ok) {
    throw GateError(what);
  }
}

const char* interp_name(simt::InterpPath path) {
  switch (path) {
    case simt::InterpPath::kDefault: return "default";
    case simt::InterpPath::kFast: return "fast";
    case simt::InterpPath::kLegacy: return "legacy";
    case simt::InterpPath::kVector: return "vector";
  }
  return "?";
}

// --- metric tables -------------------------------------------------------------
// The names and units here are the ones BENCHMARK.json declares.

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"host_s_per_mreq", "s/Mreq"},
    {"host_mcups", "Mcells/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"sim_p50_ms", "ms"},
    {"sim_gcups", "GCUPS"},
    {"sim_goodput_rps", "req/s"},
    {"sim_slo_attainment", "fraction"},
    {"sim_cost_per_mreq", "USD/Mreq"},
    {"completed_share", "fraction"},
};

constexpr MetricSpec kPerLayer[] = {
    {"workload.dataset_gen_s", "s"},
    {"workload.trace_gen_s", "s"},
    {"cluster.self_share", "fraction"},
    {"cluster.ticks", "count"},
    {"cluster.scale_ups", "count"},
    {"cluster.scale_downs", "count"},
    {"cluster.peak_workers", "count"},
    {"serve.submit_us", "us"},
    {"serve.advance_us", "us"},
    {"serve.self_share", "fraction"},
    {"serve.batches", "count"},
    {"serve.mean_batch_tasks", "tasks"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.latency_p99_ms", "ms"},
    {"serve.rejected", "count"},
    {"fleet.execute_us", "us"},
    {"fleet.self_share", "fraction"},
    {"fleet.dispatches", "count"},
    {"fleet.retries", "count"},
    {"fleet.busy_skew", "ratio"},
    {"fleet.intra_cell_share", "fraction"},
    {"fleet.drift_suspects", "count"},
    {"guard.validate_us", "us"},
    {"guard.self_share", "fraction"},
    {"guard.reexecutions", "count"},
    {"guard.cpu_fallbacks", "count"},
    {"kernels.ph_batch_us", "us"},
    {"kernels.sw_batch_us", "us"},
    {"kernels.wf_batch_us", "us"},
    {"kernels.self_share", "fraction"},
    {"kernels.launches_per_batch", "count"},
    {"simt.launches", "count"},
    {"simt.launch_us", "us"},
    {"simt.launch_share", "fraction"},
    {"simt.kernel_identity_us", "us"},
    {"simt.kernel_identity_share", "fraction"},
    {"simt.cost_cache_hit_share", "fraction"},
    {"simt.decode_us", "us"},
    {"simt.decode_cache_hit_share", "fraction"},
    {"simt.blocks_executed", "count"},
    {"simt.warp_instrs", "count"},
    {"simt.host_ns_per_instr", "ns"},
    {"simt.interp_share", "fraction"},
    {"obs.metrics_overhead_share", "fraction"},
    {"obs.trace_overhead_share", "fraction"},
    {"obs.events", "count"},
    {"untracked_share", "fraction"},
};

/// Metric values by name; printing walks a spec table so every declared
/// metric appears (unset ones as 0 — the layer did no work).
using Values = std::map<std::string, double>;

void print_result(const MetricSpec* begin, const MetricSpec* end,
                  const Values& values, std::size_t attempted,
                  std::size_t failed) {
  std::ostringstream os;
  os << "{\"correct\": true, \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (const MetricSpec* m = begin; m != end; ++m) {
    const auto it = values.find(m->name);
    const double value = it != values.end() ? it->second : 0.0;
    char number[64];
    std::snprintf(number, sizeof(number), "%.9g", value);
    os << (m == begin ? "" : ", ") << json_quote(m->name)
       << ": {\"value\": " << (std::isfinite(value) ? number : "0")
       << ", \"unit\": " << json_quote(m->unit) << "}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// --- obs registry readout ---------------------------------------------------------

/// Counters parsed back from obs::write_metrics_json. Instruments that
/// share a name (the fleet's per-kernel-class statics register
/// "fleet.dispatches" once for SW and once for PairHMM) appear as duplicate
/// keys; counters and histogram counts are summed here, not overwritten.
struct ObsCounts {
  std::map<std::string, double> counters;
  std::map<std::string, double> histogram_counts;
  std::set<std::string> duplicates;
  std::size_t events = 0;

  double counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it != counters.end() ? it->second : 0.0;
  }
};

ObsCounts read_obs_counts() {
  std::ostringstream dump;
  obs::write_metrics_json(dump);
  std::istringstream lines(dump.str());
  enum class Section { kNone, kCounters, kGauges, kHistograms };
  Section section = Section::kNone;
  ObsCounts counts;
  std::set<std::string> seen;
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t open = line.find('"');
    if (open == std::string::npos) {
      continue;
    }
    const std::size_t close = line.find('"', open + 1);
    const std::string key = line.substr(open + 1, close - open - 1);
    const std::string rest = line.substr(line.find(':', close) + 1);
    if (key == "counters" || key == "gauges" || key == "histograms") {
      section = key == "counters" ? Section::kCounters
                : key == "gauges" ? Section::kGauges
                                  : Section::kHistograms;
      continue;
    }
    if (section == Section::kNone) {
      continue;
    }
    if (!seen.insert(key).second) {
      counts.duplicates.insert(key);
    }
    if (section == Section::kCounters) {
      counts.counters[key] += std::stod(rest);
    } else if (section == Section::kHistograms) {
      double count = 0.0;
      if (std::sscanf(rest.c_str(), " {\"count\": %lf", &count) == 1) {
        counts.histogram_counts[key] += count;
      }
    }
  }
  counts.events = obs::collect().size() + obs::dropped();
  return counts;
}

/// Runs `fn` once at obs level `level` on cleared collectors; returns the
/// host seconds it took and the counts it left behind.
template <typename Fn>
std::pair<double, ObsCounts> run_observed(obs::Level level, Fn&& fn) {
  obs::reset();
  obs::set_level(level);
  const auto t0 = Clock::now();
  fn();
  const double seconds = since(t0);
  obs::set_level(obs::Level::kOff);
  ObsCounts counts = read_obs_counts();
  obs::reset();
  return {seconds, std::move(counts)};
}

// --- one repetition's outcome ----------------------------------------------------

struct RepResult {
  double host_s = 0.0;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t failed = 0;
  std::size_t cells = 0;          ///< delivered DP cells
  serve::LatencySummary latency;  ///< simulated submit -> delivery, seconds
  double span_s = 0.0;            ///< simulated span the cells were delivered in
  double goodput_rps = 0.0;
  double slo_attainment = 1.0;
  double cost_per_mreq = 0.0;

  /// Simulated outcome only — identical on every repetition of one seed.
  bool same_simulation(const RepResult& o) const {
    return submitted == o.submitted && completed == o.completed &&
           rejected == o.rejected && failed == o.failed && cells == o.cells &&
           latency.p50 == o.latency.p50 && latency.p99 == o.latency.p99 &&
           span_s == o.span_s && goodput_rps == o.goodput_rps &&
           slo_attainment == o.slo_attainment &&
           cost_per_mreq == o.cost_per_mreq;
  }
};

void check_conservation(const RepResult& r, std::size_t expected_cells) {
  gate(r.submitted == r.completed + r.rejected + r.failed,
       "request conservation: submitted " + std::to_string(r.submitted) +
           " != completed " + std::to_string(r.completed) + " + rejected " +
           std::to_string(r.rejected) + " + failed " + std::to_string(r.failed));
  gate(r.rejected + r.failed > 0 ? r.cells <= expected_cells
                                 : r.cells == expected_cells,
       "cell conservation: delivered " + std::to_string(r.cells) +
           " cells, submitted " + std::to_string(expected_cells));
}

/// Billed device-hours per million completed requests for a fixed fleet of
/// `devices` over `span_s` simulated seconds.
double fixed_fleet_cost(std::size_t devices, double span_s,
                        std::size_t completed) {
  const double device_hours = static_cast<double>(devices) * span_s / 3600.0;
  return ratio(device_hours * kCostPerDeviceHour * 1e6,
               static_cast<double>(completed));
}

// --- the ladder's lower rungs -----------------------------------------------------

/// One batch of the lower rungs: the workload's own tasks, batched at the
/// mean size serve formed (or the workload's own batches when no service
/// runs), with the placement the fleet chose for it.
struct RungBatch {
  bool is_sw = false;
  workload::SwBatch sw;
  workload::PhBatch ph;
  double now = 0.0;  ///< simulated hand-off time
  std::size_t cells = 0;
  std::size_t device = 0;
  bool intra = false;
};

/// Serve-shaped batches of one kind: tasks in arrival order, chunked by
/// `batch_size`, each chunk ordered by workload::length_bucket the way the
/// service orders a formed batch.
template <typename Task>
void append_rung_batches(const std::vector<Task>& tasks,
                         const std::vector<double>& times,
                         std::size_t batch_size, std::vector<RungBatch>& out) {
  constexpr std::size_t kGranularity = 32;  // ServiceConfig default
  batch_size = std::max<std::size_t>(1, batch_size);
  for (std::size_t begin = 0; begin < tasks.size(); begin += batch_size) {
    const std::size_t end = std::min(tasks.size(), begin + batch_size);
    std::vector<Task> chunk(tasks.begin() + static_cast<std::ptrdiff_t>(begin),
                            tasks.begin() + static_cast<std::ptrdiff_t>(end));
    std::stable_sort(chunk.begin(), chunk.end(),
                     [](const Task& x, const Task& y) {
                       return workload::length_bucket(x, kGranularity) <
                              workload::length_bucket(y, kGranularity);
                     });
    RungBatch batch;
    batch.now = times[end - 1];
    batch.cells = workload::batch_cells(chunk);
    if constexpr (std::is_same_v<Task, workload::SwTask>) {
      batch.is_sw = true;
      batch.sw = std::move(chunk);
    } else {
      batch.ph = std::move(chunk);
    }
    out.push_back(std::move(batch));
  }
}

/// Both kinds' serve-shaped batches, at the mean per-kind batch size the
/// warm kMetrics pass counted, in hand-off order.
std::vector<RungBatch> serve_shaped_batches(const workload::SwBatch& sw,
                                            const std::vector<double>& sw_times,
                                            const workload::PhBatch& ph,
                                            const std::vector<double>& ph_times,
                                            const ObsCounts& warm) {
  const auto mean_size = [](std::size_t tasks, double batches) {
    return static_cast<std::size_t>(
        std::lround(ratio(static_cast<double>(tasks), batches)));
  };
  std::vector<RungBatch> batches;
  append_rung_batches(sw, sw_times,
                      mean_size(sw.size(), warm.counter("serve.sw_batches")),
                      batches);
  append_rung_batches(ph, ph_times,
                      mean_size(ph.size(), warm.counter("serve.ph_batches")),
                      batches);
  std::stable_sort(batches.begin(), batches.end(),
                   [](const RungBatch& x, const RungBatch& y) {
                     return x.now < y.now;
                   });
  return batches;
}

/// Replays the rung batches through a fresh fleet; returns host seconds
/// spent inside execute_sw/execute_ph. With `discover` it also records the
/// device and SW regime each batch was placed on (stats() per batch, so a
/// discovery pass is never a timed one).
double run_fleet_rung(const fleet::FleetConfig& config,
                      std::vector<RungBatch>& batches,
                      const fleet::ExecOptions& options, bool discover) {
  fleet::FleetExecutor executor(config);
  const auto intra_batches = [&] {
    std::size_t n = 0;
    for (const fleet::DeviceStats& d : executor.stats().devices) {
      n += d.intra_batches;
    }
    return n;
  };
  double seconds = 0.0;
  for (RungBatch& batch : batches) {
    const std::size_t intra_before = discover ? intra_batches() : 0;
    const auto t0 = Clock::now();
    const int device = batch.is_sw
                           ? executor.execute_sw(batch.sw, batch.now, options)
                                 .exec.device_index
                           : executor.execute_ph(batch.ph, batch.now, options)
                                 .exec.device_index;
    seconds += since(t0);
    if (discover) {
      batch.device = static_cast<std::size_t>(device);
      batch.intra = intra_batches() > intra_before;
    }
  }
  return seconds;
}

/// The kernel runners of one fleet worker, built with the designs the
/// fleet's model picked for that device.
struct WorkerRunners {
  simt::DeviceSpec device;
  kernels::SwRunner sw;
  kernels::PhRunner ph;
  kernels::WavefrontSwRunner wf;
};

std::vector<std::unique_ptr<WorkerRunners>> runners_for(
    const fleet::FleetConfig& config) {
  const fleet::FleetExecutor executor(config);
  std::vector<std::unique_ptr<WorkerRunners>> runners;
  for (std::size_t i = 0; i < executor.size(); ++i) {
    runners.push_back(std::make_unique<WorkerRunners>(WorkerRunners{
        executor.device(i), kernels::SwRunner(executor.sw_design(i)),
        kernels::PhRunner(executor.ph_design(i)),
        kernels::WavefrontSwRunner(executor.wf_variant(i))}));
  }
  return runners;
}

/// The (kernel, device) pair one engine launch runs.
using LaunchKernel = std::pair<const simt::Kernel*, const simt::DeviceSpec*>;

struct KernelsRung {
  double seconds = 0.0;
  double sw_s = 0.0, ph_s = 0.0, wf_s = 0.0;
  std::size_t sw_calls = 0, ph_calls = 0, wf_calls = 0;
  std::size_t blocks = 0;
  std::uint64_t instructions = 0;  ///< warp instructions, interpreted or reused
  std::vector<LaunchKernel> launches;  ///< one entry per engine launch
  /// Outputs per batch (output-collecting passes only), for the guard rung.
  std::vector<std::vector<kernels::SwTaskOutput>> sw_outputs;
  std::vector<std::vector<double>> ph_outputs;
};

/// Runs every rung batch through its worker's runner: output-collecting
/// (`collect`, the output workloads' own mode) or warm shape-cached timing
/// (no block interpreted, cluster_bursty's mode).
KernelsRung run_kernels_rung(
    const std::vector<RungBatch>& batches,
    const std::vector<std::unique_ptr<WorkerRunners>>& runners,
    simt::ExecutionEngine& engine, bool collect) {
  KernelsRung rung;
  const simt::ExecMode mode =
      collect ? simt::ExecMode::kFull : simt::ExecMode::kCachedByShape;
  for (const RungBatch& batch : batches) {
    const WorkerRunners& w = *runners[batch.device];
    const auto t0 = Clock::now();
    if (batch.is_sw && batch.intra) {
      kernels::WfRunOptions opt;
      opt.engine = &engine;
      opt.collect_outputs = collect;
      opt.mode = mode;
      opt.use_engine_cache = !collect;
      kernels::WfSwBatchResult r = w.wf.run_batch(w.device, batch.sw, opt);
      rung.wf_s += since(t0);
      ++rung.wf_calls;
      rung.launches.insert(rung.launches.end(), r.launches,
                           {&w.wf.kernel(), &w.device});
      rung.blocks += r.blocks;
      rung.instructions += r.run.launch.instructions;
      if (collect) {
        rung.sw_outputs.push_back(std::move(r.outputs));
      }
    } else if (batch.is_sw) {
      kernels::SwRunOptions opt;
      opt.engine = &engine;
      opt.collect_outputs = collect;
      opt.mode = mode;
      opt.use_engine_cache = !collect;
      kernels::SwBatchResult r = w.sw.run_batch(w.device, batch.sw, opt);
      rung.sw_s += since(t0);
      ++rung.sw_calls;
      rung.launches.emplace_back(&w.sw.kernel(), &w.device);
      rung.blocks += batch.sw.size();
      rung.instructions += r.run.launch.instructions;
      if (collect) {
        rung.sw_outputs.push_back(std::move(r.outputs));
      }
    } else {
      kernels::PhRunOptions opt;
      opt.engine = &engine;
      opt.collect_outputs = collect;
      opt.double_fallback = collect;
      opt.mode = mode;
      opt.use_engine_cache = !collect;
      kernels::PhBatchResult r = w.ph.run_batch(w.device, batch.ph, opt);
      rung.ph_s += since(t0);
      ++rung.ph_calls;
      std::set<const simt::Kernel*> variants;
      for (const align::PairHmmTask& task : batch.ph) {
        variants.insert(&w.ph.kernel_for_read_len(task.read.size()));
      }
      for (const simt::Kernel* kernel : variants) {
        rung.launches.emplace_back(kernel, &w.device);
      }
      rung.blocks += batch.ph.size();
      rung.instructions += r.run.launch.instructions;
      if (collect) {
        rung.ph_outputs.push_back(std::move(r.log10));
      }
    }
  }
  rung.seconds = rung.sw_s + rung.ph_s + rung.wf_s;
  return rung;
}

/// One engine launch exactly as a runner issues it in timing-only mode,
/// minus the arena: shape keys only, so on a warm cost cache no block runs
/// and the launch is pure engine work (decode-cache lookup with its
/// kernel_identity hash, plan, schedule).
struct SyntheticLaunch {
  LaunchKernel kernel;
  std::vector<simt::BlockLaunch> blocks;
};

/// Synthetic launches for the task-per-block batches; wavefront batches are
/// skipped (their tile shape keys are private to the runner).
std::vector<SyntheticLaunch> synthetic_launches(
    const std::vector<RungBatch>& batches,
    const std::vector<std::unique_ptr<WorkerRunners>>& runners) {
  constexpr std::size_t kScalarArgs = 12;
  const auto block = [](std::size_t rows, std::size_t cols, std::size_t gran) {
    return simt::BlockLaunch{std::vector<std::uint64_t>(kScalarArgs, 0),
                             kernels::shape_key(rows, cols, gran)};
  };
  std::vector<SyntheticLaunch> launches;
  for (const RungBatch& batch : batches) {
    const WorkerRunners& w = *runners[batch.device];
    if (batch.is_sw && batch.intra) {
      continue;
    }
    if (batch.is_sw) {
      SyntheticLaunch launch{{&w.sw.kernel(), &w.device}, {}};
      for (const workload::SwTask& task : batch.sw) {
        launch.blocks.push_back(block(task.query.size(), task.target.size(),
                                      kernels::SwRunOptions{}.shape_granularity));
      }
      launches.push_back(std::move(launch));
      continue;
    }
    std::map<const simt::Kernel*, SyntheticLaunch> by_variant;
    for (const align::PairHmmTask& task : batch.ph) {
      const simt::Kernel* kernel = &w.ph.kernel_for_read_len(task.read.size());
      SyntheticLaunch& launch = by_variant[kernel];
      launch.kernel = {kernel, &w.device};
      launch.blocks.push_back(block(task.read.size(), task.hap.size(),
                                    kernels::PhRunOptions{}.shape_granularity));
    }
    for (auto& [kernel, launch] : by_variant) {
      launches.push_back(std::move(launch));
    }
  }
  return launches;
}

/// Host seconds inside ExecutionEngine::launch for the synthetic launches,
/// on an engine whose cost cache the kernels rung warmed with the same
/// shapes. A block that still executes means a launch did not mirror the
/// runner's, and the measurement is void.
double run_launch_rung(const std::vector<SyntheticLaunch>& launches,
                       simt::ExecutionEngine& engine) {
  simt::LaunchOptions options;
  options.mode = simt::ExecMode::kCachedByShape;
  options.use_engine_cache = true;
  options.max_block_cycles = 1;  // a stray block fails fast instead of running
  simt::GlobalMemory gmem;
  std::uint64_t executed = 0;
  const auto t0 = Clock::now();
  for (const SyntheticLaunch& launch : launches) {
    executed += engine.launch(*launch.kernel.first, *launch.kernel.second, gmem,
                              launch.blocks, options)
                    .blocks_executed;
  }
  const double seconds = since(t0);
  if (executed != 0) {
    throw std::runtime_error(
        "launch rung: synthetic launches missed the warm cost cache");
  }
  return seconds;
}

/// Mean host microseconds of `fn(kernel, device)` over `calls`, repeated
/// until at least `min_seconds` of work was timed.
template <typename Fn>
double mean_call_us(const std::vector<LaunchKernel>& calls, double min_seconds,
                    Fn&& fn) {
  if (calls.empty()) {
    return 0.0;
  }
  std::uint64_t sink = 0;
  std::size_t n = 0;
  const auto t0 = Clock::now();
  do {
    for (const LaunchKernel& call : calls) {
      sink += fn(*call.first, *call.second);
    }
    n += calls.size();
  } while (since(t0) < min_seconds);
  const double seconds = since(t0);
  return sink == 0 ? 0.0 : seconds / static_cast<double>(n) * 1e6;
}

/// Guard rung: the ABFT validators over the output-collecting rung's
/// outputs; returns host seconds.
double run_guard_rung(const std::vector<RungBatch>& batches,
                      const KernelsRung& collected) {
  const align::SwParams params;
  std::size_t sw_index = 0;
  std::size_t ph_index = 0;
  bool clean = true;
  const auto t0 = Clock::now();
  for (const RungBatch& batch : batches) {
    if (batch.is_sw) {
      clean &= !guard::validate_sw(batch.sw, collected.sw_outputs[sw_index++],
                                   params)
                    .has_value();
    } else {
      clean &= !guard::validate_ph(batch.ph, collected.ph_outputs[ph_index++])
                    .has_value();
    }
  }
  const double seconds = since(t0);
  gate(clean, "guard rung: a validator flagged fault-free kernel outputs");
  return seconds;
}

/// Inclusive host seconds each layer accounts for in one warm e2e
/// repetition. The top layer a workload enters is the e2e time itself; a
/// layer's self time is its inclusive time minus its children's.
struct Ladder {
  double e2e_s = 0.0;
  double cluster_s = 0.0;
  double serve_s = 0.0;
  double fleet_s = 0.0;
  double guard_s = 0.0;
  double kernels_s = 0.0;
  double launch_s = 0.0;
  double identity_s = 0.0;  ///< part of launch_s
  double interp_s = 0.0;
};

void add_shares(const Ladder& l, Values& v) {
  const double cluster_self = l.cluster_s > 0.0 ? l.cluster_s - l.serve_s : 0.0;
  const double serve_self = l.serve_s > 0.0 ? l.serve_s - l.fleet_s : 0.0;
  const double fleet_self = l.fleet_s - l.kernels_s - l.guard_s;
  const double kernels_self = l.kernels_s - l.launch_s - l.interp_s;
  v["cluster.self_share"] = ratio(cluster_self, l.e2e_s);
  v["serve.self_share"] = ratio(serve_self, l.e2e_s);
  v["fleet.self_share"] = ratio(fleet_self, l.e2e_s);
  v["guard.self_share"] = ratio(l.guard_s, l.e2e_s);
  v["kernels.self_share"] = ratio(kernels_self, l.e2e_s);
  v["simt.launch_share"] = ratio(l.launch_s, l.e2e_s);
  v["simt.kernel_identity_share"] = ratio(l.identity_s, l.e2e_s);
  v["simt.interp_share"] = ratio(l.interp_s, l.e2e_s);
  double tracked = 0.0;
  for (const double self : {cluster_self, serve_self, fleet_self, l.guard_s,
                            kernels_self, l.launch_s, l.interp_s}) {
    tracked += std::max(self, 0.0);
  }
  v["untracked_share"] = 1.0 - ratio(tracked, l.e2e_s);
}

/// The rungs below serve, shared by every workload: fleet, kernels (with
/// the interpreter split off by switching run_batch to warm shape-cached
/// timing), guard validators, direct engine launches, kernel_identity and
/// decode_program. `collect` is how the workload itself runs its batches.
/// Rung passes are interleaved and each figure is the median pass.
void trace_lower_rungs(std::vector<RungBatch>& batches,
                       const fleet::FleetConfig& fleet_config,
                       const fleet::ExecOptions& exec, bool collect,
                       bool guarded, const ObsCounts& warm, Ladder& ladder,
                       Values& v) {
  simt::ExecutionEngine& engine = *fleet_config.engine;
  run_fleet_rung(fleet_config, batches, exec, /*discover=*/true);
  const auto runners = runners_for(fleet_config);
  // One untimed pass fills the cost cache with these shapes.
  const KernelsRung shape = run_kernels_rung(batches, runners, engine, false);
  const std::vector<SyntheticLaunch> synthetic =
      synthetic_launches(batches, runners);

  std::vector<double> fleet_s, cached_s, cached_wf_s, launch_s, own_s, guard_s;
  KernelsRung own;
  for (int r = 0; r < kTracedReps; ++r) {
    fleet_s.push_back(run_fleet_rung(fleet_config, batches, exec, false));
    const KernelsRung cached = run_kernels_rung(batches, runners, engine, false);
    cached_s.push_back(cached.seconds);
    cached_wf_s.push_back(cached.wf_s);
    launch_s.push_back(run_launch_rung(synthetic, engine));
    own = collect ? run_kernels_rung(batches, runners, engine, true) : cached;
    own_s.push_back(own.seconds);
    if (guarded) {
      guard_s.push_back(run_guard_rung(batches, own));
    }
  }
  const double rung_batches = static_cast<double>(batches.size());
  const double rung_launches = static_cast<double>(shape.launches.size());
  const double e2e_launches = warm.counter("engine.launches");
  const double e2e_blocks_executed = warm.counter("engine.blocks_executed");

  if (ladder.fleet_s == 0.0) {
    ladder.fleet_s = median(fleet_s);
  }
  v["fleet.execute_us"] = median(fleet_s) / rung_batches * 1e6;
  double intra_cells = 0.0;
  double all_cells = 0.0;
  for (const RungBatch& batch : batches) {
    all_cells += static_cast<double>(batch.cells);
    intra_cells += batch.intra ? static_cast<double>(batch.cells) : 0.0;
  }
  v["fleet.intra_cell_share"] = ratio(intra_cells, all_cells);

  // Launch cost: direct engine launches, plus — for wavefront batches,
  // which cannot be issued directly — their warm cached run_batch time
  // (arena set-up included).
  const double launches_s = median(launch_s) + median(cached_wf_s);
  const double launch_us = launches_s / rung_launches * 1e6;
  const double identity_us =
      mean_call_us(shape.launches, 0.2, [](const simt::Kernel& k,
                                          const simt::DeviceSpec& d) {
        return simt::kernel_identity(k, d);
      });
  v["simt.launch_us"] = launch_us;
  v["simt.kernel_identity_us"] = identity_us;
  v["simt.decode_us"] = [&] {
    const std::set<LaunchKernel> distinct(shape.launches.begin(),
                                          shape.launches.end());
    return mean_call_us({distinct.begin(), distinct.end()}, 0.05,
                        [](const simt::Kernel& k, const simt::DeviceSpec& d) {
                          return simt::decode_program(k, d)->code.size();
                        });
  }();
  v["kernels.launches_per_batch"] = rung_launches / rung_batches;
  v["simt.cost_cache_hit_share"] =
      collect ? 0.0
              : 1.0 - ratio(e2e_blocks_executed,
                            static_cast<double>(shape.blocks));
  ladder.launch_s = launch_us * 1e-6 * e2e_launches;
  ladder.identity_s = identity_us * 1e-6 * e2e_launches;
  ladder.kernels_s = median(own_s);
  if (collect) {
    // The switch from output-collecting to warm shape-cached run_batch
    // removes block interpretation (and the host-side output read-back).
    ladder.interp_s = std::max(0.0, median(own_s) - median(cached_s));
    v["simt.warp_instrs"] = static_cast<double>(own.instructions);
    v["simt.host_ns_per_instr"] =
        ratio(ladder.interp_s, static_cast<double>(own.instructions)) * 1e9;
  }
  if (guarded) {
    ladder.guard_s = median(guard_s);
    v["guard.validate_us"] = ladder.guard_s / rung_batches * 1e6;
  }
  v["kernels.sw_batch_us"] = ratio(own.sw_s, static_cast<double>(own.sw_calls)) * 1e6;
  v["kernels.ph_batch_us"] = ratio(own.ph_s, static_cast<double>(own.ph_calls)) * 1e6;
  v["kernels.wf_batch_us"] = ratio(own.wf_s, static_cast<double>(own.wf_calls)) * 1e6;
}

// --- workloads -----------------------------------------------------------------------

struct SetupTimes {
  double dataset_s = 0.0;
  double trace_s = 0.0;
  double total_s = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs for `seed`, constructs the stack with empty
  /// caches, and runs the cold warm-up pass. Timed as a whole.
  virtual SetupTimes setup(std::uint64_t seed) = 0;
  /// One warm repetition; only the calls into the library are timed.
  virtual RepResult run_rep() = 0;
  /// Checks the last repetition's outputs against the CPU oracle.
  virtual void check_outputs() = 0;
  /// Cells the submitted requests carry (for conservation).
  virtual std::size_t expected_cells() const = 0;
  /// The traced pass: per-layer metrics into `v`.
  virtual void traced(Values& v) = 0;

  /// A cold repetition at kMetrics (caches cleared first), for the decode
  /// cache's miss counts.
  void cold_metrics_pass() {
    simt::shared_decoded_cache().clear();
    engine().clear_cost_cache();
    cold_ = run_observed(obs::Level::kMetrics, [&] { run_rep(); }).second;
  }

  /// Names that appeared more than once in the metrics dump.
  const std::set<std::string>& obs_duplicates() const { return warm_.duplicates; }

 protected:
  virtual simt::ExecutionEngine& engine() = 0;

  /// Top of every traced pass: obs-off and kMetrics repetitions
  /// interleaved, one kTrace repetition, and the obs counts. Returns the
  /// median obs-off repetition in seconds.
  double observe_top(Values& v) {
    std::vector<double> off;
    std::vector<double> metrics;
    for (int i = 0; i < kTracedReps; ++i) {
      off.push_back(run_rep().host_s);
      auto [seconds, counts] =
          run_observed(obs::Level::kMetrics, [&] { run_rep(); });
      metrics.push_back(seconds);
      warm_ = std::move(counts);
    }
    const double e2e = median(off);
    const auto [trace_s, traced] =
        run_observed(obs::Level::kTrace, [&] { run_rep(); });
    v["obs.metrics_overhead_share"] = median(metrics) / e2e - 1.0;
    v["obs.trace_overhead_share"] = trace_s / e2e - 1.0;
    v["obs.events"] = static_cast<double>(traced.events);
    v["simt.launches"] = warm_.counter("engine.launches");
    v["simt.blocks_executed"] = warm_.counter("engine.blocks_executed");
    v["fleet.dispatches"] = warm_.counter("fleet.dispatches");
    v["fleet.retries"] = warm_.counter("fleet.retries");
    v["fleet.drift_suspects"] = warm_.counter("fleet.drift_suspects");
    v["guard.reexecutions"] = warm_.counter("guard.reexecutions");
    v["cluster.ticks"] = warm_.counter("cluster.ticks");
    v["cluster.scale_ups"] = warm_.counter("cluster.scale_ups");
    v["cluster.scale_downs"] = warm_.counter("cluster.scale_downs");
    const double hits = cold_.counter("simt.decode_cache.hits");
    const double misses = cold_.counter("simt.decode_cache.misses");
    v["simt.decode_cache_hit_share"] = ratio(hits, hits + misses);
    return e2e;
  }

  /// Serve's readouts from the last repetition's stats.
  static void add_serve_stats(const serve::ServiceStats& s, Values& v) {
    v["serve.batches"] = static_cast<double>(s.batch_sizes.batches);
    v["serve.mean_batch_tasks"] = s.batch_sizes.mean_size();
    v["serve.queue_wait_p99_ms"] = s.queue_wait.p99 * 1e3;
    v["serve.latency_p99_ms"] = s.latency.p99 * 1e3;
    v["serve.rejected"] = static_cast<double>(s.rejected());
  }

  static void add_fleet_stats(const fleet::FleetStats& f, Values& v) {
    v["fleet.busy_skew"] = f.busy_skew();
    v["guard.cpu_fallbacks"] = static_cast<double>(f.guard.cpu_fallbacks);
  }

  ObsCounts cold_;  ///< cold kMetrics repetition
  ObsCounts warm_;  ///< last warm kMetrics repetition
};

/// Host time of each service call, summed over one replay.
struct ServeTiming {
  double submit_s = 0.0;
  double advance_s = 0.0;
  std::size_t submits = 0;
  std::size_t advances = 0;

  void add_to(Values& v) const {
    v["serve.submit_us"] = ratio(submit_s, static_cast<double>(submits)) * 1e6;
    v["serve.advance_us"] = ratio(advance_s, static_cast<double>(advances)) * 1e6;
  }
};

/// Times `fn` into `sum`/`calls` when per-call timing is on.
template <typename Fn>
void timed_call(ServeTiming* timing, double ServeTiming::*sum,
                std::size_t ServeTiming::*calls, Fn&& fn) {
  if (timing == nullptr) {
    fn();
    return;
  }
  const auto t0 = Clock::now();
  fn();
  timing->*sum += since(t0);
  ++(timing->*calls);
}

fleet::WorkerConfig worker_on(const char* device) {
  fleet::WorkerConfig worker;
  worker.device = simt::device_by_name(device);
  return worker;
}

// --- cluster_bursty ------------------------------------------------------------------

class ClusterBursty final : public Workload {
 public:
  SetupTimes setup(std::uint64_t seed) override {
    simt::shared_decoded_cache().clear();
    simt::shared_engine().clear_cost_cache();
    SetupTimes t;
    const auto start = Clock::now();
    workload::GeneratorConfig gen;
    gen.seed = seed;
    gen.regions = kClusterRegions;
    gen.sw_tasks_per_region_mean = 1.0;
    gen.ph_tasks_per_region_mean = kClusterPhPerRegion;
    dataset_ = workload::generate_dataset(gen);
    t.dataset_s = since(start);
    const auto trace_start = Clock::now();
    workload::TraceConfig tc;
    tc.seed = seed;
    tc.duration_seconds = kClusterDuration;
    tc.shape = workload::TraceShape::kBursty;
    for (int i = 0; i < kClusterTenants; ++i) {
      workload::TenantTraffic traffic;
      traffic.name = "tenant-" + std::to_string(i);
      traffic.rate_hz = kClusterRate / kClusterTenants;
      tc.tenants.push_back(std::move(traffic));
    }
    trace_ = workload::generate_trace(tc);
    t.trace_s = since(trace_start);
    config_ = make_config(trace_);
    report_ = cluster::run_cluster(dataset_, trace_, config_);
    t.total_s = since(start);
    cold_json_ = cluster_json(report_);
    return t;
  }

  RepResult run_rep() override {
    const auto t0 = Clock::now();
    report_ = cluster::run_cluster(dataset_, trace_, config_);
    const double host_s = since(t0);
    gate(cluster_json(report_) == cold_json_,
         "cluster JSON differs between repetitions of one seed");
    const serve::ServiceStats& s = report_.service;
    RepResult r;
    r.host_s = host_s;
    r.submitted = s.submitted();
    r.completed = s.completed();
    r.rejected = s.rejected();
    r.failed = s.failed;
    r.cells = s.completed_cells;
    r.latency = s.latency;
    r.span_s = report_.duration_seconds;
    r.goodput_rps = report_.goodput_rps;
    r.slo_attainment = 1.0 - report_.slo_violation_rate;
    r.cost_per_mreq = report_.cost_per_million;
    return r;
  }

  void check_outputs() override {}  // timing-only: nothing to compare

  std::size_t expected_cells() const override {
    std::size_t cells = 0;
    for (const Submission& s : submissions()) {
      cells += s.sw != nullptr ? s.sw->cells() : workload::cells(*s.ph);
    }
    return cells;
  }

  /// Writes the inputs and the cluster JSON, so `wsim cluster-sim --in
  /// DIR/dataset.txt --trace DIR/trace.txt` can be compared against it.
  void export_run(const std::string& dir) const {
    workload::save_dataset(dir + "/dataset.txt", dataset_);
    workload::save_trace(dir + "/trace.txt", trace_);
    std::ofstream os(dir + "/cluster.json");
    os << cold_json_ << '\n';
    gate(static_cast<bool>(os), "cannot write " + dir + "/cluster.json");
  }

  void traced(Values& v) override {
    Ladder ladder;
    ladder.e2e_s = observe_top(v);
    ladder.cluster_s = ladder.e2e_s;
    add_serve_stats(report_.service, v);
    add_fleet_stats(report_.fleet, v);
    v["cluster.peak_workers"] = static_cast<double>(report_.peak_workers);

    // Serve rung: the same submissions into a service over a fixed fleet
    // the size of the autoscaled fleet's mean, every call timed.
    const std::size_t workers = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(
               ratio(report_.device_hours * 3600.0, report_.duration_seconds))));
    fleet::FleetConfig fc;
    fc.workers.assign(workers, config_.worker);
    fc.policy = config_.policy;
    fc.faults = config_.faults;
    fc.calibration = config_.calibration;
    fc.engine = &simt::shared_engine();
    std::vector<ServeTiming> passes(kTracedReps);
    std::vector<double> serve_s;
    for (ServeTiming& pass : passes) {
      replay_service(fc, pass);
      serve_s.push_back(pass.submit_s + pass.advance_s);
    }
    ladder.serve_s = median(serve_s);
    passes[static_cast<std::size_t>(
               std::min_element(serve_s.begin(), serve_s.end()) -
               serve_s.begin())]
        .add_to(v);

    workload::SwBatch sw;
    workload::PhBatch ph;
    std::vector<double> sw_times;
    std::vector<double> ph_times;
    for (const Submission& s : submissions()) {
      if (s.sw != nullptr) {
        sw.push_back(*s.sw);
        sw_times.push_back(s.time);
      } else {
        ph.push_back(*s.ph);
        ph_times.push_back(s.time);
      }
    }
    std::vector<RungBatch> batches =
        serve_shaped_batches(sw, sw_times, ph, ph_times, warm_);
    fleet::ExecOptions exec;
    exec.collect_outputs = false;
    trace_lower_rungs(batches, fc, exec, /*collect=*/false, /*guarded=*/false,
                      warm_, ladder, v);
    add_shares(ladder, v);
  }

 protected:
  simt::ExecutionEngine& engine() override { return simt::shared_engine(); }

 private:
  /// One trace event resolved to the pool task run_cluster submits for it.
  struct Submission {
    double time = 0.0;
    const std::string* tenant = nullptr;
    const workload::SwTask* sw = nullptr;
    const align::PairHmmTask* ph = nullptr;
  };

  /// run_cluster's task pools (regions in order, task_index modulo pool
  /// size) applied to every trace event.
  std::vector<Submission> submissions() const {
    std::vector<const workload::SwTask*> sw;
    std::vector<const align::PairHmmTask*> ph;
    for (const workload::Region& region : dataset_.regions) {
      for (const workload::SwTask& task : region.sw_tasks) {
        sw.push_back(&task);
      }
      for (const align::PairHmmTask& task : region.ph_tasks) {
        ph.push_back(&task);
      }
    }
    std::vector<Submission> out;
    out.reserve(trace_.events.size());
    for (const workload::TraceEvent& e : trace_.events) {
      Submission s;
      s.time = e.time;
      s.tenant = &trace_.tenants[e.tenant];
      if (e.is_sw) {
        s.sw = sw[e.task_index % sw.size()];
      } else {
        s.ph = ph[e.task_index % ph.size()];
      }
      out.push_back(s);
    }
    return out;
  }

  /// cluster-sim's configuration for `--shape bursty --rate 20000
  /// --tenants 2 --slo 20 --max 4 --calibrate on` (all else default).
  static cluster::ClusterConfig make_config(const workload::Trace& trace) {
    cluster::ClusterConfig cfg;
    cfg.worker = worker_on("K1200");
    cfg.autoscaler.enabled = true;
    cfg.autoscaler.min_workers = 1;
    cfg.autoscaler.max_workers = kClusterMaxWorkers;
    cfg.autoscaler.target_backlog_seconds = 5e-3;
    cfg.initial_workers = 1;
    cfg.control_interval_seconds = 2e-3;
    cfg.join_warmup_seconds = 2e-3;
    cfg.cost_per_device_hour = kCostPerDeviceHour;
    cfg.faults.seed = 1;
    cfg.policy = fleet::PlacementPolicy::kModelGuided;
    cfg.calibration.enabled = true;
    for (const std::string& name : trace.tenants) {
      serve::TenantConfig tenant;
      tenant.name = name;
      tenant.slo_seconds = kSloSeconds;
      cfg.tenants.push_back(std::move(tenant));
    }
    return cfg;
  }

  static std::string cluster_json(const cluster::ClusterReport& report) {
    std::ostringstream os;
    cluster::write_cluster_json(os, report);
    return os.str();
  }

  /// run_cluster's replay loop without the control ticks, every service
  /// call timed.
  void replay_service(const fleet::FleetConfig& fc, ServeTiming& timing) const {
    fleet::FleetExecutor executor(fc);
    serve::ServiceConfig sc;
    sc.policy = config_.batch;
    sc.max_queue_tasks = config_.max_queue_tasks;
    sc.collect_outputs = false;
    sc.fleet = &executor;
    sc.tenants = config_.tenants;
    serve::AlignmentService service(sc);
    for (const Submission& s : submissions()) {
      timed_call(&timing, &ServeTiming::advance_s, &ServeTiming::advances,
                 [&] { service.advance_to(s.time); });
      if (s.sw != nullptr) {
        serve::SwRequest request;
        request.task = *s.sw;
        request.tenant = *s.tenant;
        timed_call(&timing, &ServeTiming::submit_s, &ServeTiming::submits,
                   [&] { service.submit(std::move(request)); });
      } else {
        serve::PairHmmRequest request;
        request.task = *s.ph;
        request.tenant = *s.tenant;
        timed_call(&timing, &ServeTiming::submit_s, &ServeTiming::submits,
                   [&] { service.submit(std::move(request)); });
      }
    }
    timed_call(&timing, &ServeTiming::advance_s, &ServeTiming::advances,
               [&] { service.drain(); });
  }

  workload::Dataset dataset_;
  workload::Trace trace_;
  cluster::ClusterConfig config_;
  cluster::ClusterReport report_;
  std::string cold_json_;
};

// --- fleet_outputs -------------------------------------------------------------------

/// K1200 + Titan X, model-guided placement, kernel designs from the model.
fleet::FleetConfig two_device_fleet(simt::ExecutionEngine* engine) {
  fleet::FleetConfig fc;
  fc.workers = {worker_on("K1200"), worker_on("Titan X")};
  fc.policy = fleet::PlacementPolicy::kModelGuided;
  fc.engine = engine;
  return fc;
}

class FleetOutputs final : public Workload {
 public:
  SetupTimes setup(std::uint64_t seed) override {
    simt::shared_decoded_cache().clear();
    SetupTimes t;
    const auto start = Clock::now();
    engine_ = std::make_unique<simt::ExecutionEngine>(
        simt::EngineOptions{.threads = kEngineThreads});
    workload::GeneratorConfig gen;
    gen.seed = seed;
    gen.regions = kFleetRegions;
    const workload::Dataset dataset = workload::generate_dataset(gen);
    const workload::SwBatch sw_pool = workload::sw_all_tasks(dataset);
    const workload::PhBatch ph_pool = workload::ph_all_tasks(dataset);
    t.dataset_s = since(start);
    // Open-loop arrivals: a fixed number of each kind drawn without
    // replacement, shuffled together, exponential gaps at kFleetRate.
    const auto trace_start = Clock::now();
    util::Rng rng(seed ^ 0x5e27e5e27e5e27e5ULL);
    const auto draw = [&](std::size_t pool_size, std::size_t count, bool is_sw) {
      std::vector<Arrival> picks;
      for (std::size_t i = 0; i < pool_size; ++i) {
        picks.push_back({0.0, is_sw, i});
      }
      rng.shuffle(picks);
      picks.resize(std::min(picks.size(), count));
      return picks;
    };
    std::vector<Arrival> pool = draw(sw_pool.size(), kFleetSwRequests, true);
    const std::vector<Arrival> ph_picks =
        draw(ph_pool.size(), kFleetPhRequests, false);
    pool.insert(pool.end(), ph_picks.begin(), ph_picks.end());
    rng.shuffle(pool);
    arrivals_.clear();
    sw_tasks_.clear();
    ph_tasks_.clear();
    double time = 0.0;
    for (const Arrival& a : pool) {
      time += -std::log(1.0 - rng.uniform01()) / kFleetRate;
      if (a.is_sw) {
        arrivals_.push_back({time, true, sw_tasks_.size()});
        sw_tasks_.push_back(sw_pool[a.index]);
      } else {
        arrivals_.push_back({time, false, ph_tasks_.size()});
        ph_tasks_.push_back(ph_pool[a.index]);
      }
    }
    t.trace_s = since(trace_start);
    replay(nullptr);
    t.total_s = since(start);
    return t;
  }

  RepResult run_rep() override { return replay(nullptr); }

  void check_outputs() override {
    if (oracle_sw_.empty()) {
      oracle_sw_ = guard::cpu_sw(sw_tasks_, align::SwParams{});
      oracle_ph_ = guard::cpu_ph(ph_tasks_);
    }
    std::vector<double> log10(ph_tasks_.size(), 0.0);
    for (std::size_t i = 0; i < arrivals_.size(); ++i) {
      const Arrival& a = arrivals_[i];
      if (a.is_sw) {
        const align::SwAlignment& got = sw_tickets_[i].get().alignment;
        const align::SwAlignment& want = oracle_sw_[a.index].alignment;
        gate(got.score == want.score && got.cigar == want.cigar &&
                 got.query_begin == want.query_begin &&
                 got.query_end == want.query_end &&
                 got.target_begin == want.target_begin &&
                 got.target_end == want.target_end,
             "fleet_outputs: SW task " + std::to_string(a.index) +
                 " differs from guard::cpu_sw");
      } else {
        const double got = ph_tickets_[i].get().log10;
        const double want = oracle_ph_[a.index];
        gate(std::abs(got - want) <= kPhAbsTol + kPhRelTol * std::abs(want),
             "fleet_outputs: PairHMM task " + std::to_string(a.index) +
                 " log10 " + std::to_string(got) + " vs guard::cpu_ph " +
                 std::to_string(want));
        log10[a.index] = got;
      }
    }
    gate(!guard::validate_ph(ph_tasks_, log10).has_value(),
         "fleet_outputs: guard::validate_ph rejects the delivered likelihoods");
  }

  std::size_t expected_cells() const override {
    return workload::batch_cells(sw_tasks_) + workload::batch_cells(ph_tasks_);
  }

  void traced(Values& v) override {
    Ladder ladder;
    ladder.e2e_s = observe_top(v);
    ladder.serve_s = ladder.e2e_s;
    add_serve_stats(stats_, v);
    add_fleet_stats(fleet_stats_, v);
    ServeTiming serve;
    replay(&serve);
    serve.add_to(v);

    workload::SwBatch sw;
    workload::PhBatch ph;
    std::vector<double> sw_times;
    std::vector<double> ph_times;
    for (const Arrival& a : arrivals_) {
      if (a.is_sw) {
        sw.push_back(sw_tasks_[a.index]);
        sw_times.push_back(a.time);
      } else {
        ph.push_back(ph_tasks_[a.index]);
        ph_times.push_back(a.time);
      }
    }
    std::vector<RungBatch> batches =
        serve_shaped_batches(sw, sw_times, ph, ph_times, warm_);
    trace_lower_rungs(batches, fleet_config(), exec_options(),
                      /*collect=*/true, /*guarded=*/true, warm_, ladder, v);
    add_shares(ladder, v);
  }

 protected:
  simt::ExecutionEngine& engine() override { return *engine_; }

 private:
  struct Arrival {
    double time = 0.0;
    bool is_sw = false;
    std::size_t index = 0;
  };

  fleet::FleetConfig fleet_config() const {
    fleet::FleetConfig fc = two_device_fleet(engine_.get());
    fc.guard.detect = guard::DetectMode::kAbft;
    return fc;
  }

  static fleet::ExecOptions exec_options() {
    fleet::ExecOptions exec;
    exec.collect_outputs = true;
    return exec;
  }

  /// One open-loop replay through a fresh service and fleet (constructed
  /// outside the timed section); with `per_call` each service call is also
  /// timed on its own.
  RepResult replay(ServeTiming* per_call) {
    fleet::FleetExecutor executor(fleet_config());
    serve::ServiceConfig sc;
    sc.collect_outputs = true;
    sc.fleet = &executor;
    serve::TenantConfig tenant;
    tenant.name = "tenant-0";
    tenant.slo_seconds = kSloSeconds;
    sc.tenants = {tenant};
    serve::AlignmentService service(sc);
    sw_tickets_.assign(arrivals_.size(), {});
    ph_tickets_.assign(arrivals_.size(), {});
    const auto start = Clock::now();
    for (std::size_t i = 0; i < arrivals_.size(); ++i) {
      const Arrival& a = arrivals_[i];
      timed_call(per_call, &ServeTiming::advance_s, &ServeTiming::advances,
                 [&] { service.advance_to(a.time); });
      if (a.is_sw) {
        serve::SwRequest request;
        request.task = sw_tasks_[a.index];
        request.tenant = tenant.name;
        timed_call(per_call, &ServeTiming::submit_s, &ServeTiming::submits, [&] {
          sw_tickets_[i] = service.submit(std::move(request)).ticket;
        });
      } else {
        serve::PairHmmRequest request;
        request.task = ph_tasks_[a.index];
        request.tenant = tenant.name;
        timed_call(per_call, &ServeTiming::submit_s, &ServeTiming::submits, [&] {
          ph_tickets_[i] = service.submit(std::move(request)).ticket;
        });
      }
    }
    timed_call(per_call, &ServeTiming::advance_s, &ServeTiming::advances,
               [&] { service.drain(); });
    RepResult r;
    r.host_s = since(start);
    stats_ = service.stats();
    fleet_stats_ = executor.stats();
    r.submitted = stats_.submitted();
    r.completed = stats_.completed();
    r.rejected = stats_.rejected();
    r.failed = stats_.failed;
    r.cells = stats_.completed_cells;
    r.latency = stats_.latency;
    r.span_s = stats_.duration_seconds();
    const std::size_t judged = stats_.deadlines_met + stats_.deadlines_missed;
    r.goodput_rps = ratio(
        static_cast<double>(r.completed - stats_.deadlines_missed), r.span_s);
    r.slo_attainment =
        judged > 0 ? ratio(static_cast<double>(stats_.deadlines_met),
                           static_cast<double>(judged))
                   : 1.0;
    r.cost_per_mreq = fixed_fleet_cost(executor.size(), r.span_s, r.completed);
    return r;
  }

  std::unique_ptr<simt::ExecutionEngine> engine_;
  workload::SwBatch sw_tasks_;
  workload::PhBatch ph_tasks_;
  std::vector<Arrival> arrivals_;
  std::vector<serve::Ticket<serve::SwResponse>> sw_tickets_;
  std::vector<serve::Ticket<serve::PairHmmResponse>> ph_tickets_;
  serve::ServiceStats stats_;
  fleet::FleetStats fleet_stats_;
  std::vector<kernels::SwTaskOutput> oracle_sw_;
  std::vector<double> oracle_ph_;
};

// --- longread_sw ---------------------------------------------------------------------

class LongreadSw final : public Workload {
 public:
  SetupTimes setup(std::uint64_t seed) override {
    simt::shared_decoded_cache().clear();
    SetupTimes t;
    const auto start = Clock::now();
    engine_ = std::make_unique<simt::ExecutionEngine>(
        simt::EngineOptions{.threads = kEngineThreads});
    workload::GeneratorConfig gen =
        workload::profile_config(workload::LengthProfile::kLongRead, seed);
    gen.regions = kLongTasks;  // at least one SW task per region
    gen.sw_query_len_min = kLongLenMin;
    gen.sw_query_len_max = kLongLenMax;
    gen.sw_target_len_min = kLongLenMin;
    gen.sw_target_len_max = kLongLenMax;
    gen.ph_tasks_per_region_mean = 1.0;  // PairHMM tasks are not used
    workload::SwBatch tasks =
        workload::sw_all_tasks(workload::generate_dataset(gen));
    tasks.resize(kLongTasks);
    batches_.clear();
    for (std::size_t begin = 0; begin < tasks.size(); begin += kLongBatch) {
      const std::size_t end = std::min(tasks.size(), begin + kLongBatch);
      batches_.emplace_back(tasks.begin() + static_cast<std::ptrdiff_t>(begin),
                            tasks.begin() + static_cast<std::ptrdiff_t>(end));
    }
    t.dataset_s = since(start);
    run_rep();
    t.total_s = since(start);
    return t;
  }

  RepResult run_rep() override {
    fleet::FleetExecutor executor(fleet_config());
    fleet::ExecOptions exec;
    exec.collect_outputs = false;
    std::vector<double> completions;
    const auto t0 = Clock::now();
    for (const workload::SwBatch& batch : batches_) {
      completions.push_back(
          executor.execute_sw(batch, 0.0, exec).exec.completion_time);
    }
    RepResult r;
    r.host_s = since(t0);
    stats_ = executor.stats();
    std::vector<double> latencies;
    for (std::size_t b = 0; b < batches_.size(); ++b) {
      latencies.insert(latencies.end(), batches_[b].size(), completions[b]);
      r.span_s = std::max(r.span_s, completions[b]);
      r.submitted += batches_[b].size();
    }
    r.completed = r.submitted;  // execute_sw throws rather than drop a task
    r.cells = stats_.total_cells();
    r.latency = serve::summarize_latency(latencies);
    r.goodput_rps = ratio(static_cast<double>(r.completed), r.span_s);
    r.cost_per_mreq = fixed_fleet_cost(executor.size(), r.span_s, r.completed);
    return r;
  }

  /// The timed repetitions are timing-only, so the outputs are checked on
  /// the first batch run once more with outputs collected, on the same
  /// placement and wavefront path.
  void check_outputs() override {
    if (checked_) {
      return;
    }
    fleet::FleetExecutor executor(fleet_config());
    fleet::ExecOptions exec;
    exec.collect_outputs = true;
    const workload::SwBatch& batch = batches_.front();
    const fleet::SwExecution run = executor.execute_sw(batch, 0.0, exec);
    gate(executor.stats().devices[static_cast<std::size_t>(
                                      run.exec.device_index)]
                 .intra_batches == 1,
         "longread_sw: the checked batch did not take the wavefront path");
    gate(guard::fingerprint_sw(run.result.outputs) ==
             guard::fingerprint_sw(guard::cpu_sw(batch, align::SwParams{})),
         "longread_sw: wavefront outputs differ from guard::cpu_sw");
    checked_ = true;
  }

  std::size_t expected_cells() const override {
    std::size_t cells = 0;
    for (const workload::SwBatch& batch : batches_) {
      cells += workload::batch_cells(batch);
    }
    return cells;
  }

  void traced(Values& v) override {
    Ladder ladder;
    ladder.e2e_s = observe_top(v);
    ladder.fleet_s = ladder.e2e_s;
    add_fleet_stats(stats_, v);
    std::vector<RungBatch> batches;
    for (const workload::SwBatch& batch : batches_) {
      RungBatch rb;
      rb.is_sw = true;
      rb.sw = batch;
      rb.cells = workload::batch_cells(batch);
      batches.push_back(std::move(rb));
    }
    fleet::ExecOptions exec;
    exec.collect_outputs = false;
    trace_lower_rungs(batches, fleet_config(), exec, /*collect=*/false,
                      /*guarded=*/false, warm_, ladder, v);
    add_shares(ladder, v);
  }

 protected:
  simt::ExecutionEngine& engine() override { return *engine_; }

 private:
  fleet::FleetConfig fleet_config() const {
    fleet::FleetConfig fc = two_device_fleet(engine_.get());
    fc.parallelism = fleet::ParallelismPolicy::kAuto;
    return fc;
  }

  std::unique_ptr<simt::ExecutionEngine> engine_;
  std::vector<workload::SwBatch> batches_;
  fleet::FleetStats stats_;
  bool checked_ = false;
};

// --- command line ----------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string export_dir;  ///< cluster_bursty: inputs and JSON written here
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: stack_bench --workload cluster_bursty|fleet_outputs|"
               "longread_sw [--seed N] [--seconds S] [--trace 0|1] "
               "[--export DIR]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    std::size_t used = value.size();
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--export") {
        o.export_dir = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value, &used);
      } else if (flag == "--trace") {
        const int trace = std::stoi(value, &used);
        if (trace != 0 && trace != 1) {
          usage("--trace takes 0 or 1");
        }
        o.trace = trace == 1;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
    if (used != value.size()) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!(o.seconds > 0.0)) {
    usage("--seconds must be > 0");
  }
  return o;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "cluster_bursty") {
    return std::make_unique<ClusterBursty>();
  }
  if (name == "fleet_outputs") {
    return std::make_unique<FleetOutputs>();
  }
  if (name == "longread_sw") {
    return std::make_unique<LongreadSw>();
  }
  usage("unknown workload '" + name + "'");
}

void print_setup(const Options& o, const RepResult& first, int reps,
                 int setup_reps, const std::set<std::string>& duplicates) {
  std::cout << "{\"setup\": {\"bench\": \"stack\", \"workload\": "
            << json_quote(o.workload) << ", \"seed\": " << o.seed
            << ", \"seconds\": " << json_number(o.seconds)
            << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"interp\": "
            << json_quote(interp_name(
                   simt::resolve_interp_path(simt::InterpPath::kDefault)))
            << ", \"vector_isa\": " << json_quote(simt::vector_isa_name())
            << ", \"engine_threads\": " << kEngineThreads
            << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
            << ", \"compiler\": " << json_quote(STACKBENCH_COMPILER)
            << ", \"build_type\": " << json_quote(STACKBENCH_BUILD_TYPE)
            << ", \"reps\": " << reps << ", \"setup_reps\": " << setup_reps
            << ", \"requests\": " << first.submitted
            << ", \"cells\": " << first.cells
            << ", \"latency_samples\": " << first.latency.count
            << ", \"obs_duplicate_keys\": [";
  bool comma = false;
  for (const std::string& name : duplicates) {
    std::cout << (comma ? ", " : "") << json_quote(name);
    comma = true;
  }
  std::cout << "]}}" << std::endl;
}

int run(const Options& o) {
  // run_cluster builds its fleet on the process-wide engine, whose size
  // comes from WSIM_THREADS; pin it before anything touches the engine.
  setenv("WSIM_THREADS", std::to_string(kEngineThreads).c_str(), 1);
  std::unique_ptr<Workload> w = make_workload(o.workload);
  obs::set_level(obs::Level::kOff);

  if (o.trace) {
    const SetupTimes t = w->setup(o.seed);
    w->cold_metrics_pass();
    const RepResult first = w->run_rep();
    check_conservation(first, w->expected_cells());
    w->check_outputs();
    Values v;
    v["workload.dataset_gen_s"] = t.dataset_s;
    v["workload.trace_gen_s"] = t.trace_s;
    w->traced(v);
    print_setup(o, first, kTracedReps, 1, w->obs_duplicates());
    print_result(std::begin(kPerLayer), std::end(kPerLayer), v,
                 first.submitted, first.rejected + first.failed);
    return 0;
  }

  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    setups.push_back(w->setup(o.seed).total_s);
  }
  std::vector<double> host;
  RepResult first;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto start = Clock::now();
  while (host.size() < static_cast<std::size_t>(kMinReps) ||
         since(start) < o.seconds) {
    const RepResult r = w->run_rep();
    if (host.empty()) {
      first = r;
      check_conservation(r, w->expected_cells());
      w->check_outputs();
    }
    gate(r.same_simulation(first),
         "simulated results differ between repetitions of one seed");
    host.push_back(r.host_s);
    attempted += r.submitted;
    failed += r.rejected + r.failed;
  }
  w->check_outputs();  // the last repetition too
  if (!o.export_dir.empty()) {
    const auto* c = dynamic_cast<const ClusterBursty*>(w.get());
    gate(c != nullptr, "--export applies to cluster_bursty only");
    c->export_run(o.export_dir);
  }

  const double host_s = median(host);
  Values v;
  v["host_s_per_mreq"] = host_s / static_cast<double>(first.submitted) * 1e6;
  v["host_mcups"] = static_cast<double>(first.cells) / host_s / 1e6;
  v["setup_s"] = median(setups);
  v["peak_rss_mb"] = peak_rss_mb();
  v["sim_p50_ms"] = first.latency.p50 * 1e3;
  v["sim_gcups"] = ratio(static_cast<double>(first.cells), first.span_s) / 1e9;
  v["sim_goodput_rps"] = first.goodput_rps;
  v["sim_slo_attainment"] = first.slo_attainment;
  v["sim_cost_per_mreq"] = first.cost_per_mreq;
  v["completed_share"] = ratio(static_cast<double>(first.completed),
                               static_cast<double>(first.submitted));
  print_setup(o, first, static_cast<int>(host.size()), kSetupReps, {});
  print_result(std::begin(kEndToEnd), std::end(kEndToEnd), v, attempted, failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    return run(o);
  } catch (const GateError& e) {
    std::cerr << "stack_bench: correctness gate failed: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "stack_bench: error: " << e.what() << "\n";
    return 1;
  }
}
