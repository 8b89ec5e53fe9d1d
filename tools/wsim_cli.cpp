// wsim — command-line driver for the warpshfl library.
//
//   wsim devices                         list simulated GPUs
//   wsim micro    [--device D]           run the Fig. 3 microbenchmarks
//   wsim sw       Q T [opts]             Smith-Waterman alignment
//   wsim nw       Q T [opts]             Needleman-Wunsch score
//   wsim pairhmm  READ HAP [opts]        PairHMM log10 likelihood
//   wsim sw-run   [--kernel K --profile P] one SW batch through a named
//                                        kernel subsystem (task-per-block
//                                        or wavefront tiles)
//   wsim workload [--regions N --seed S] dataset statistics
//   wsim sweep    [opts]                 GCUPS of all four kernels
//   wsim pipeline [opts]                 two-stage HaplotypeCaller pipeline
//   wsim serve-sim [--rate R --delay U]  replay a dataset through the
//                                        async alignment service
//   wsim fleet-sim [--fleet "A,B,..."]   same replay over a heterogeneous
//                                        multi-device fleet
//   wsim cluster-sim [--shape S]         multi-tenant trace replay on a
//                                        dynamically autoscaled fleet
//   wsim guard-sim [--flip-prob "P,..."] sweep SDC injection rate x
//                                        detection mode, counting escaped
//                                        corruptions against a fault-free
//                                        baseline
//   wsim help | --help | -h              print usage and exit 0
//
// The authoritative command list lives in wsim::cli::commands(); main()
// checks its dispatch table against that registry at startup.
//
// Common options: --device "K40"|"K1200"|"Titan X" (default K1200),
// --mode shared|shuffle (default shuffle), --seed N, --regions N,
// --batch N, --qual N, --threads N (or the WSIM_THREADS environment
// variable for commands using the shared engine).

#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "wsim/cli/commands.hpp"
#include "wsim/cluster/cluster.hpp"
#include "wsim/obs/chrome_trace.hpp"
#include "wsim/obs/metrics.hpp"
#include "wsim/obs/obs.hpp"
#include "wsim/fleet/fleet.hpp"
#include "wsim/guard/guard.hpp"
#include "wsim/kernels/nw_kernels.hpp"
#include "wsim/kernels/ph_kernels.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/kernels/wavefront_kernels.hpp"
#include "wsim/micro/microbench.hpp"
#include "wsim/pipeline/pipeline.hpp"
#include "wsim/serve/service.hpp"
#include "wsim/simt/engine.hpp"
#include "wsim/util/rng.hpp"
#include "wsim/simt/profile.hpp"
#include "wsim/simt/trace.hpp"
#include <fstream>
#include "wsim/simt/device.hpp"
#include "wsim/util/check.hpp"
#include "wsim/util/table.hpp"
#include "wsim/workload/batching.hpp"
#include "wsim/workload/dataset_io.hpp"
#include "wsim/workload/generator.hpp"
#include "wsim/workload/trace.hpp"

namespace {

using wsim::kernels::CommMode;
using wsim::util::format_fixed;
using wsim::util::format_percent;

constexpr long kLongMax = std::numeric_limits<long>::max();
constexpr double kUnbounded = std::numeric_limits<double>::infinity();

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  /// Numeric flags: `fallback` when absent, else the value checked by
  /// wsim::cli::parse_number against [lo, hi].
  long get_int(const std::string& key, long fallback, long lo = 0,
               long hi = kLongMax) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback
                               : wsim::cli::parse_number(key, it->second, lo, hi);
  }
  double get_double(const std::string& key, double fallback, double lo = 0.0,
                    double hi = kUnbounded) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback
                               : wsim::cli::parse_number(key, it->second, lo, hi);
  }
};

bool is_flag(std::string_view token) { return token.rfind("--", 0) == 0; }

/// A flag takes the next token as its value unless that token is itself a
/// flag (no valid value starts with "--"; negative numbers use one dash)
/// or the flag is one of the command's boolean flags
/// (wsim::cli::CommandInfo::bool_flags), which take only an explicit empty
/// value (`--validate ''`). So a boolean flag swallows neither the flag nor
/// the positional after it.
Args parse(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (is_flag(token)) {
      const std::string key = token.substr(2);
      const bool boolean = wsim::cli::is_bool_flag(argv[1], key);
      if (i + 1 < argc && !is_flag(argv[i + 1]) && (!boolean || *argv[i + 1] == '\0')) {
        args.options[key] = argv[++i];
      } else {
        args.options[key] = "";
      }
    } else {
      args.positional.push_back(token);
    }
  }
  return args;
}

wsim::simt::DeviceSpec device_from(const Args& args) {
  return wsim::simt::device_by_name(args.get("device", "K1200"));
}

/// Engine configuration from --threads (default: one worker per hardware
/// thread); every kernel-launching command builds one engine from this and
/// routes its launches through it.
wsim::simt::EngineOptions engine_options_from(const Args& args) {
  return wsim::simt::EngineOptions{
      .threads = static_cast<int>(args.get_int("threads", 0, INT_MIN, INT_MAX))};
}

CommMode mode_from(const Args& args) {
  const std::string mode = args.get("mode", "shuffle");
  if (mode == "shared") {
    return CommMode::kSharedMemory;
  }
  if (mode == "shuffle") {
    return CommMode::kShuffle;
  }
  throw wsim::util::CheckError("unknown --mode '" + mode + "' (shared|shuffle)");
}

int cmd_devices() {
  wsim::util::Table table({"name", "arch", "SMs", "clock (GHz)", "GFLOPs",
                           "smem BW (GB/s)", "gmem BW (GB/s)"});
  for (const auto& dev : wsim::simt::all_devices()) {
    table.add_row({dev.name, std::string(wsim::simt::to_string(dev.arch)),
                   std::to_string(dev.sm_count), format_fixed(dev.clock_ghz, 3),
                   format_fixed(dev.peak_gflops(), 0),
                   format_fixed(dev.shared_mem_bw_gbps(), 0),
                   format_fixed(dev.global_mem_bw_gbps, 1)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_micro(const Args& args) {
  const auto dev = device_from(args);
  const auto r = wsim::micro::measure_latencies(dev);
  wsim::util::Table table({"instruction", "latency (cycles)", "slope", "r^2"});
  const auto row = [&table](const char* name, const wsim::micro::LatencyEstimate& e) {
    table.add_row({name, format_fixed(e.latency, 1), format_fixed(e.slope, 2),
                   format_fixed(e.r_squared, 4)});
  };
  row("register", r.reg);
  row("shfl", r.shfl);
  row("shfl_up", r.shfl_up);
  row("shfl_down", r.shfl_down);
  row("shfl_xor", r.shfl_xor);
  row("shared memory", r.sharedmem);
  row("__syncthreads", r.sync);
  std::cout << "Device: " << dev.name << " ("
            << wsim::simt::to_string(dev.arch) << ")\n";
  table.print(std::cout);
  return 0;
}

int cmd_sw(const Args& args) {
  wsim::util::require(args.positional.size() == 2, "usage: wsim sw QUERY TARGET");
  const auto dev = device_from(args);
  const wsim::kernels::SwRunner runner(mode_from(args));
  wsim::simt::ExecutionEngine engine(engine_options_from(args));
  wsim::kernels::SwRunOptions opt;
  opt.collect_outputs = true;
  opt.engine = &engine;
  wsim::simt::Trace trace;
  const std::string trace_path = args.get("trace", "");
  if (!trace_path.empty()) {
    opt.trace_representative = &trace;
  }
  const auto result = runner.run_batch(
      dev, {{args.positional[0], args.positional[1]}}, opt);
  const auto& out = result.outputs.front();
  std::cout << "kernel:   " << runner.kernel().name << " on " << dev.name << '\n'
            << "score:    " << out.best_score << '\n'
            << "cigar:    " << out.alignment.cigar << '\n'
            << "query:    [" << out.alignment.query_begin << ", "
            << out.alignment.query_end << ")\n"
            << "target:   [" << out.alignment.target_begin << ", "
            << out.alignment.target_end << ")\n"
            << "cycles:   " << result.run.launch.representative.cycles << '\n'
            << "occupancy " << format_percent(result.run.launch.occupancy.fraction)
            << '\n';
  if (args.options.count("profile") != 0) {
    const auto profile = wsim::simt::profile_block(
        runner.kernel(), dev, result.run.launch.representative, result.run.cells);
    std::cout << wsim::simt::format_profile(profile);
  }
  if (!trace_path.empty()) {
    std::ofstream os(trace_path);
    wsim::util::require(static_cast<bool>(os), "cannot open trace file " + trace_path);
    trace.write_chrome_json(os);
    std::cout << "trace (" << trace.size() << " events) written to " << trace_path
              << " — load in chrome://tracing or Perfetto\n";
  }
  return 0;
}

int cmd_nw(const Args& args) {
  wsim::util::require(args.positional.size() == 2, "usage: wsim nw QUERY TARGET");
  const auto dev = device_from(args);
  const wsim::kernels::NwRunner runner(mode_from(args));
  wsim::simt::ExecutionEngine engine(engine_options_from(args));
  wsim::kernels::NwRunOptions opt;
  opt.collect_outputs = true;
  opt.engine = &engine;
  const auto result = runner.run_batch(
      dev, {{args.positional[0], args.positional[1]}}, opt);
  const auto host =
      wsim::align::nw_align(args.positional[0], args.positional[1], {});
  std::cout << "kernel: " << runner.kernel().name << " on " << dev.name << '\n'
            << "score:  " << result.scores.front() << '\n'
            << "cigar:  " << host.cigar << " (host backtrace)\n"
            << "cycles: " << result.run.launch.representative.cycles << '\n';
  return 0;
}

int cmd_pairhmm(const Args& args) {
  wsim::util::require(args.positional.size() == 2, "usage: wsim pairhmm READ HAP");
  const auto dev = device_from(args);
  wsim::align::PairHmmTask task;
  task.read = args.positional[0];
  task.hap = args.positional[1];
  const auto qual = static_cast<std::uint8_t>(args.get_int("qual", 30, 0, 255));
  task.base_quals.assign(task.read.size(), qual);
  task.ins_quals.assign(task.read.size(), 45);
  task.del_quals.assign(task.read.size(), 45);
  const wsim::kernels::PhRunner runner(mode_from(args));
  wsim::simt::ExecutionEngine engine(engine_options_from(args));
  wsim::kernels::PhRunOptions opt;
  opt.collect_outputs = true;
  opt.engine = &engine;
  const auto result = runner.run_batch(dev, {task}, opt);
  std::cout << "device:  " << dev.name << '\n'
            << "log10 L: " << format_fixed(result.log10.front(), 4) << '\n'
            << "cycles:  " << result.run.launch.representative.cycles << '\n';
  return 0;
}

int cmd_workload(const Args& args) {
  wsim::workload::Dataset ds;
  const std::string in = args.get("in", "");
  if (!in.empty()) {
    ds = wsim::workload::load_dataset(in);
  } else {
    wsim::workload::GeneratorConfig cfg;
    cfg.regions = static_cast<int>(args.get_int("regions", 16, 1, INT_MAX));
    cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
    ds = wsim::workload::generate_dataset(cfg);
  }
  const std::string out = args.get("out", "");
  if (!out.empty()) {
    wsim::workload::save_dataset(out, ds);
    std::cout << "dataset written to " << out << "\n";
  }
  const auto stats = wsim::workload::compute_stats(ds);
  wsim::util::Table table({"statistic", "value"});
  table.add_row({"regions", std::to_string(stats.regions)});
  table.add_row({"SW tasks", std::to_string(stats.sw_tasks)});
  table.add_row({"PairHMM tasks", std::to_string(stats.ph_tasks)});
  table.add_row({"avg SW tasks/region", format_fixed(stats.avg_sw_tasks_per_region, 2)});
  table.add_row({"avg PH tasks/region", format_fixed(stats.avg_ph_tasks_per_region, 2)});
  table.add_row({"max read length", std::to_string(stats.max_read_len)});
  table.add_row({"max haplotype length", std::to_string(stats.max_hap_len)});
  table.add_row({"total SW cells", std::to_string(stats.total_sw_cells)});
  table.add_row({"total PH cells", std::to_string(stats.total_ph_cells)});
  table.print(std::cout);
  return 0;
}

int cmd_sweep(const Args& args) {
  const auto dev = device_from(args);
  wsim::workload::Dataset ds;
  const std::string in = args.get("in", "");
  if (!in.empty()) {
    ds = wsim::workload::load_dataset(in);
  } else {
    wsim::workload::GeneratorConfig cfg;
    cfg.regions = static_cast<int>(args.get_int("regions", 16, 1, INT_MAX));
    cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
    ds = wsim::workload::generate_dataset(cfg);
  }
  const auto batch_size = static_cast<std::size_t>(args.get_int("batch", 200, 1));
  const auto sw_batches = wsim::workload::sw_rebatch(ds, batch_size);
  const auto ph_batches = wsim::workload::ph_rebatch(ds, batch_size);

  // One engine for the whole sweep; its persistent cache replaces the
  // per-kernel external caches (entries are keyed by kernel identity, so
  // SW1/SW2 and the PH variants never alias).
  wsim::simt::ExecutionEngine engine(engine_options_from(args));

  wsim::util::Table table({"kernel", "avg GCUPS (incl. transfer)"});
  for (const auto mode : {CommMode::kSharedMemory, CommMode::kShuffle}) {
    const wsim::kernels::SwRunner runner(mode);
    double total = 0.0;
    for (const auto& batch : sw_batches) {
      wsim::kernels::SwRunOptions opt;
      opt.mode = wsim::simt::ExecMode::kCachedByShape;
      opt.engine = &engine;
      total += runner.run_batch(dev, batch, opt).run.gcups_total();
    }
    table.add_row({mode == CommMode::kSharedMemory ? "SW1" : "SW2",
                   format_fixed(total / static_cast<double>(sw_batches.size()), 2)});
  }
  for (const auto mode : {CommMode::kSharedMemory, CommMode::kShuffle}) {
    const wsim::kernels::PhRunner runner(mode);
    double total = 0.0;
    for (const auto& batch : ph_batches) {
      wsim::kernels::PhRunOptions opt;
      opt.mode = wsim::simt::ExecMode::kCachedByShape;
      opt.engine = &engine;
      total += runner.run_batch(dev, batch, opt).run.gcups_total();
    }
    table.add_row({mode == CommMode::kSharedMemory ? "PH1" : "PH2",
                   format_fixed(total / static_cast<double>(ph_batches.size()), 2)});
  }
  std::cout << "Device: " << dev.name << ", batch size " << batch_size << "\n";
  table.print(std::cout);
  return 0;
}

int cmd_pipeline(const Args& args) {
  wsim::workload::Dataset ds;
  const std::string in = args.get("in", "");
  if (!in.empty()) {
    ds = wsim::workload::load_dataset(in);
  } else {
    wsim::workload::GeneratorConfig cfg;
    cfg.regions = static_cast<int>(args.get_int("regions", 8, 1, INT_MAX));
    cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
    cfg.ph_tasks_per_region_mean = 24.0;
    ds = wsim::workload::generate_dataset(cfg);
  }
  wsim::pipeline::PipelineConfig cfg;
  cfg.device = device_from(args);
  if (mode_from(args) == CommMode::kSharedMemory) {
    cfg.sw_design = CommMode::kSharedMemory;
    cfg.ph_design = wsim::kernels::PhDesign::kShared;
  }
  cfg.rebatch_size = static_cast<std::size_t>(args.get_int("batch", 0));
  cfg.threads = static_cast<int>(args.get_int("threads", 0, INT_MIN, INT_MAX));
  cfg.overlap_transfers = args.options.count("streams") != 0;
  cfg.lpt_order = args.options.count("lpt") != 0;
  cfg.validate_sample = args.options.count("validate") != 0;
  const auto report = wsim::pipeline::run_pipeline(ds, cfg);

  wsim::util::Table table({"stage", "tasks", "batches", "cells", "seconds",
                           "GCUPS"});
  const auto row = [&table](const char* name, const wsim::pipeline::StageReport& r) {
    table.add_row({name, std::to_string(r.tasks), std::to_string(r.batches),
                   std::to_string(r.cells), format_fixed(r.seconds * 1e3, 3) + " ms",
                   format_fixed(r.gcups, 2)});
  };
  row("Smith-Waterman", report.sw);
  row("PairHMM", report.ph);
  std::cout << "Device: " << cfg.device.name << ", design: "
            << (cfg.sw_design == CommMode::kShuffle ? "shuffle" : "shared")
            << ", rebatch: " << cfg.rebatch_size << "\n";
  table.print(std::cout);
  if (cfg.validate_sample) {
    std::cout << "validation: " << report.validated << " sampled tasks, "
              << report.mismatches << " mismatches\n";
  }
  return report.mismatches == 0 ? 0 : 1;
}

wsim::workload::Dataset dataset_from(const Args& args, int default_regions) {
  const std::string in = args.get("in", "");
  if (!in.empty()) {
    return wsim::workload::load_dataset(in);
  }
  // --profile swaps the SW length family (short-read is the generator
  // default; long-read/contig open the intra-task wavefront regime).
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const std::string profile = args.get("profile", "");
  wsim::workload::GeneratorConfig cfg =
      profile.empty()
          ? wsim::workload::GeneratorConfig{}
          : wsim::workload::profile_config(
                wsim::workload::length_profile_by_name(profile), seed);
  cfg.regions =
      static_cast<int>(args.get_int("regions", default_regions, 1, INT_MAX));
  cfg.seed = seed;
  return wsim::workload::generate_dataset(cfg);
}

int cmd_sw_run(const Args& args) {
  const auto dev = device_from(args);
  const wsim::kernels::SwKernelChoice choice =
      wsim::kernels::sw_kernel_by_name(args.get("kernel", "wf-shuffle"));
  const auto profile = wsim::workload::length_profile_by_name(
      args.get("profile", "long-read"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const auto want = static_cast<std::size_t>(args.get_int("tasks", 4, 1, INT_MAX));

  wsim::workload::GeneratorConfig cfg =
      wsim::workload::profile_config(profile, seed);
  cfg.regions = static_cast<int>(want);  // >= one SW task per region
  auto batch =
      wsim::workload::sw_all_tasks(wsim::workload::generate_dataset(cfg));
  if (batch.size() > want) {
    batch.resize(want);
  }

  wsim::simt::ExecutionEngine engine(engine_options_from(args));
  const bool verify = args.options.count("verify") != 0;
  const wsim::align::SwParams params;

  wsim::kernels::KernelRunResult run;
  std::vector<wsim::kernels::SwTaskOutput> outputs;
  std::size_t launches = 1;
  std::size_t blocks = batch.size();
  std::string kernel_name;
  if (choice.intra) {
    const wsim::kernels::WavefrontSwRunner runner(choice.wf_variant, params);
    wsim::kernels::WfRunOptions opt;
    opt.engine = &engine;
    if (verify) {
      opt.collect_outputs = true;
    } else {
      opt.mode = wsim::simt::ExecMode::kCachedByShape;
    }
    auto result = runner.run_batch(dev, batch, opt);
    run = std::move(result.run);
    outputs = std::move(result.outputs);
    launches = result.launches;
    blocks = result.blocks;
    kernel_name = runner.kernel().name;
  } else {
    const wsim::kernels::SwRunner runner(choice.inter_mode, params);
    wsim::kernels::SwRunOptions opt;
    opt.engine = &engine;
    if (verify) {
      opt.collect_outputs = true;
    } else {
      opt.mode = wsim::simt::ExecMode::kCachedByShape;
    }
    auto result = runner.run_batch(dev, batch, opt);
    run = std::move(result.run);
    outputs = std::move(result.outputs);
    kernel_name = runner.kernel().name;
  }

  wsim::util::Table table({"metric", "value"});
  table.add_row({"kernel", wsim::kernels::sw_kernel_name(choice) + " (" +
                               kernel_name + ")"});
  table.add_row({"device", dev.name});
  table.add_row({"profile", std::string(wsim::workload::to_string(profile))});
  table.add_row({"tasks", std::to_string(batch.size())});
  table.add_row({"cells", std::to_string(run.cells)});
  table.add_row({"launches", std::to_string(launches)});
  table.add_row({"blocks", std::to_string(blocks)});
  table.add_row({"kernel time", format_fixed(run.launch.kernel_seconds * 1e3, 3) + " ms"});
  table.add_row({"total time", format_fixed(run.launch.total_seconds() * 1e3, 3) + " ms"});
  table.add_row({"GCUPS (kernel)", format_fixed(run.gcups_kernel(), 2)});
  table.add_row({"GCUPS (total)", format_fixed(run.gcups_total(), 2)});
  table.add_row({"occupancy", format_percent(run.launch.occupancy.fraction)});
  table.print(std::cout);
  if (verify) {
    const auto verdict = wsim::guard::validate_sw(batch, outputs, params);
    if (verdict.has_value()) {
      std::cout << "verify: FAILED — " << *verdict << "\n";
      return 1;
    }
    std::cout << "verify: OK (" << batch.size()
              << " CIGARs re-scored against the scoring scheme)\n";
  }
  return 0;
}

/// Knobs shared by serve-sim and fleet-sim.
struct ReplaySetup {
  double rate = 0.0;
  double delay_us = 0.0;
  double deadline_us = 0.0;
};

ReplaySetup replay_setup_from(const Args& args) {
  ReplaySetup setup;
  setup.rate = args.get_double("rate", 50000.0);
  wsim::util::require(setup.rate > 0.0, "--rate must be > 0");
  setup.delay_us = args.get_double("delay", 200.0);
  setup.deadline_us = args.get_double("deadline", 0.0);
  return setup;
}

/// Fills the BatchPolicy/admission knobs common to both replay commands.
void apply_service_args(const Args& args, const ReplaySetup& setup,
                        wsim::serve::ServiceConfig& cfg) {
  cfg.policy.max_batch_delay = setup.delay_us * 1e-6;
  cfg.policy.target_batch_cells = static_cast<std::size_t>(args.get_int(
      "target-cells", static_cast<long>(cfg.policy.target_batch_cells), 1));
  cfg.policy.max_batch_tasks = static_cast<std::size_t>(args.get_int(
      "max-batch", static_cast<long>(cfg.policy.max_batch_tasks), 1));
  cfg.max_queue_tasks =
      static_cast<std::size_t>(args.get_int("queue", 4096, 1));
  // Timing-only by default: the load experiment needs latencies, not
  // alignments, and shape-cached execution keeps large replays fast.
  cfg.collect_outputs = args.options.count("outputs") != 0;
}

/// Arms the obs subsystem for this run when --trace-out / --metrics-out
/// is present: full tracing when a Chrome trace was requested, metrics
/// only when just the flat dump was. Without either flag the default
/// kOff level keeps every instrumentation site a no-op.
void configure_obs(const Args& args) {
  const bool want_trace = !args.get("trace-out", "").empty();
  const bool want_metrics = !args.get("metrics-out", "").empty();
  if (want_trace) {
    wsim::obs::set_level(wsim::obs::Level::kTrace);
  } else if (want_metrics) {
    wsim::obs::set_level(wsim::obs::Level::kMetrics);
  }
}

/// Writes the Chrome trace and/or metrics dump the run recorded.
void write_obs_outputs(const Args& args) {
  const std::string trace_path = args.get("trace-out", "");
  if (!trace_path.empty()) {
    std::ofstream os(trace_path);
    wsim::util::require(static_cast<bool>(os),
                        "cannot open trace file " + trace_path);
    wsim::obs::write_chrome_trace(os);
    std::cout << "trace (" << wsim::obs::collect().size()
              << " events) written to " << trace_path
              << " — load in chrome://tracing or Perfetto\n";
  }
  const std::string metrics_path = args.get("metrics-out", "");
  if (!metrics_path.empty()) {
    std::ofstream os(metrics_path);
    wsim::util::require(static_cast<bool>(os),
                        "cannot open metrics file " + metrics_path);
    wsim::obs::write_metrics_json(os);
    std::cout << "metrics written to " << metrics_path << "\n";
  }
}

struct ReplayOutcome {
  std::size_t rejected = 0;
  double end = 0.0;  ///< simulated time after drain
};

/// Open-loop Poisson arrivals: flatten both task kinds, shuffle so SW and
/// PairHMM interleave, then submit with exponential interarrival gaps at
/// the requested rate — the clock advances to each arrival first, so
/// flushes and deliveries happen exactly when the simulated time says.
ReplayOutcome replay_poisson(wsim::serve::AlignmentService& service,
                             const wsim::workload::Dataset& ds,
                             const ReplaySetup& setup, std::uint64_t seed) {
  namespace serve = wsim::serve;
  struct Arrival {
    bool is_sw = false;
    std::size_t index = 0;
  };
  const auto sw_tasks = wsim::workload::sw_all_tasks(ds);
  const auto ph_tasks = wsim::workload::ph_all_tasks(ds);
  std::vector<Arrival> arrivals;
  arrivals.reserve(sw_tasks.size() + ph_tasks.size());
  for (std::size_t i = 0; i < sw_tasks.size(); ++i) {
    arrivals.push_back({true, i});
  }
  for (std::size_t i = 0; i < ph_tasks.size(); ++i) {
    arrivals.push_back({false, i});
  }
  wsim::util::require(!arrivals.empty(), "replay: dataset has no tasks");
  wsim::util::Rng rng(seed ^ 0x5e27e5e27e5e27e5ULL);
  rng.shuffle(arrivals);

  ReplayOutcome outcome;
  double t = 0.0;
  for (const Arrival& arrival : arrivals) {
    t += -std::log(1.0 - rng.uniform01()) / setup.rate;
    service.advance_to(t);
    const auto deadline =
        setup.deadline_us > 0.0
            ? std::optional<double>(t + setup.deadline_us * 1e-6)
            : std::nullopt;
    bool admitted = false;
    if (arrival.is_sw) {
      serve::SwRequest request;
      request.task = sw_tasks[arrival.index];
      request.deadline = deadline;
      admitted = service.submit(std::move(request)).admitted();
    } else {
      serve::PairHmmRequest request;
      request.task = ph_tasks[arrival.index];
      request.deadline = deadline;
      admitted = service.submit(std::move(request)).admitted();
    }
    if (!admitted) {
      ++outcome.rejected;
    }
  }
  outcome.end = service.drain();
  return outcome;
}

/// Prints the ServiceStats table shared by serve-sim and fleet-sim.
void print_service_stats(const wsim::serve::ServiceStats& stats,
                         const ReplayOutcome& outcome, double deadline_us) {
  wsim::util::Table table({"metric", "value"});
  table.add_row({"submitted", std::to_string(stats.submitted())});
  table.add_row({"completed", std::to_string(stats.completed())});
  table.add_row({"rejected (backpressure)", std::to_string(outcome.rejected)});
  table.add_row({"batches", std::to_string(stats.batch_sizes.batches)});
  table.add_row({"mean batch size", format_fixed(stats.batch_sizes.mean_size(), 2)});
  table.add_row({"batch-size histogram", stats.batch_sizes.format()});
  table.add_row({"latency p50", format_fixed(stats.latency.p50 * 1e3, 3) + " ms"});
  table.add_row({"latency p95", format_fixed(stats.latency.p95 * 1e3, 3) + " ms"});
  table.add_row({"latency p99", format_fixed(stats.latency.p99 * 1e3, 3) + " ms"});
  table.add_row({"latency mean", format_fixed(stats.latency.mean * 1e3, 3) + " ms"});
  table.add_row({"queue wait mean",
                 format_fixed(stats.queue_wait.mean * 1e3, 3) + " ms"});
  table.add_row({"throughput",
                 format_fixed(stats.throughput_tasks_per_second(), 0) + " tasks/s"});
  table.add_row({"GCUPS", format_fixed(stats.gcups(), 2)});
  table.add_row({"device utilization",
                 format_percent(stats.device_utilization())});
  if (deadline_us > 0.0) {
    table.add_row({"deadlines met", std::to_string(stats.deadlines_met) + " / " +
                   std::to_string(stats.deadlines_met + stats.deadlines_missed)});
  }
  table.add_row({"simulated end time", format_fixed(outcome.end * 1e3, 3) + " ms"});
  table.print(std::cout);
}

/// Dumps the stats to the --json path when given (serve::write_stats_json
/// schema, mirroring the bench sweeps' JSON field names).
void maybe_write_stats_json(const Args& args,
                            const wsim::serve::ServiceStats& stats) {
  const std::string path = args.get("json", "");
  if (path.empty()) {
    return;
  }
  std::ofstream os(path);
  wsim::util::require(static_cast<bool>(os), "cannot open json file " + path);
  wsim::serve::write_stats_json(os, stats);
  os << '\n';
  std::cout << "stats written to " << path << "\n";
}

/// Fleet-backed variant: adds membership accounting and the "devices"
/// array, so fleet-sim --json and cluster-sim --json share one
/// device-record schema.
void maybe_write_stats_json(const Args& args,
                            const wsim::serve::ServiceStats& stats,
                            const wsim::fleet::FleetStats& fleet_stats) {
  const std::string path = args.get("json", "");
  if (path.empty()) {
    return;
  }
  std::ofstream os(path);
  wsim::util::require(static_cast<bool>(os), "cannot open json file " + path);
  wsim::serve::write_stats_json(os, stats, fleet_stats);
  os << '\n';
  std::cout << "stats written to " << path << "\n";
}

int cmd_serve_sim(const Args& args) {
  namespace fleet = wsim::fleet;
  namespace serve = wsim::serve;
  configure_obs(args);
  const auto ds = dataset_from(args, /*default_regions=*/8);
  const ReplaySetup setup = replay_setup_from(args);

  // One simulated GPU is a one-worker fleet: --mode pins its kernel
  // designs (default shuffle) and SW batches stay task-per-block.
  fleet::WorkerConfig worker;
  worker.device = device_from(args);
  const bool shared = mode_from(args) == CommMode::kSharedMemory;
  worker.sw_design = shared ? CommMode::kSharedMemory : CommMode::kShuffle;
  worker.ph_design = shared ? wsim::kernels::PhDesign::kShared
                            : wsim::kernels::PhDesign::kShuffle;
  fleet::FleetConfig fleet_cfg;
  fleet_cfg.workers = {worker};
  fleet_cfg.parallelism = fleet::ParallelismPolicy::kInterTask;
  wsim::simt::ExecutionEngine engine(engine_options_from(args));
  fleet_cfg.engine = &engine;
  fleet::FleetExecutor executor(std::move(fleet_cfg));

  serve::ServiceConfig cfg;
  apply_service_args(args, setup, cfg);
  cfg.fleet = &executor;
  serve::AlignmentService service(std::move(cfg));

  const ReplayOutcome outcome = replay_poisson(
      service, ds, setup, static_cast<std::uint64_t>(args.get_int("seed", 42)));
  const auto stats = service.stats();

  std::cout << "Device: " << executor.device(0).name << ", rate "
            << format_fixed(setup.rate, 0) << " req/s, batching delay "
            << format_fixed(setup.delay_us, 0) << " us"
            << (setup.deadline_us > 0.0
                    ? ", deadline " + format_fixed(setup.deadline_us, 0) + " us"
                    : std::string())
            << "\n";
  print_service_stats(stats, outcome, setup.deadline_us);
  maybe_write_stats_json(args, stats);
  write_obs_outputs(args);
  return 0;
}

/// Parses --fleet "K40,K1200,Titan X": comma-separated device names, each
/// one simulated worker. Kernel designs are chosen per device by the
/// performance model unless --mode pins them fleet-wide.
std::vector<wsim::fleet::WorkerConfig> workers_from(const Args& args,
                                                    const std::string& fallback) {
  std::vector<wsim::fleet::WorkerConfig> workers;
  const std::string fleet_names = args.get("fleet", fallback);
  std::size_t begin = 0;
  while (begin <= fleet_names.size()) {
    std::size_t end = fleet_names.find(',', begin);
    if (end == std::string::npos) {
      end = fleet_names.size();
    }
    const std::string name = fleet_names.substr(begin, end - begin);
    if (!name.empty()) {
      wsim::fleet::WorkerConfig wc;
      wc.device = wsim::simt::device_by_name(name);
      if (args.options.count("mode") != 0 &&
          mode_from(args) == CommMode::kSharedMemory) {
        wc.sw_design = CommMode::kSharedMemory;
        wc.ph_design = wsim::kernels::PhDesign::kShared;
      }
      workers.push_back(std::move(wc));
    }
    begin = end + 1;
  }
  wsim::util::require(!workers.empty(), "--fleet names no devices");
  return workers;
}

/// Parses --degrade "DEV@FACTOR[:KIND[:ONSET[:PARAM]]]" (comma-separated
/// for several injections): deterministic silent degradation of device
/// DEV by FACTOR in per-device dispatch-sequence space. KIND is stuck
/// (default), ramp (PARAM = dispatches to full factor), or flap (PARAM =
/// half-period in dispatches); ONSET is the first affected dispatch.
std::vector<wsim::fleet::DegradeSpec> degradations_from(const Args& args) {
  std::vector<wsim::fleet::DegradeSpec> specs;
  const std::string arg = args.get("degrade", "");
  std::size_t begin = 0;
  while (begin < arg.size()) {
    std::size_t end = arg.find(',', begin);
    if (end == std::string::npos) {
      end = arg.size();
    }
    const std::string item = arg.substr(begin, end - begin);
    begin = end + 1;
    if (item.empty()) {
      continue;
    }
    const std::size_t at = item.find('@');
    wsim::util::require(at != std::string::npos && at > 0,
                        "--degrade expects DEV@FACTOR[:KIND[:ONSET[:PARAM]]], "
                        "got '" + item + "'");
    wsim::fleet::DegradeSpec spec;
    spec.device = static_cast<int>(
        wsim::cli::parse_number<long>("degrade", item.substr(0, at), 0, INT_MAX));
    std::vector<std::string> fields;
    std::size_t f = at + 1;
    while (f <= item.size()) {
      std::size_t colon = item.find(':', f);
      if (colon == std::string::npos) {
        colon = item.size();
      }
      fields.push_back(item.substr(f, colon - f));
      f = colon + 1;
    }
    wsim::util::require(!fields.empty() && !fields[0].empty(),
                        "--degrade '" + item + "' names no factor");
    spec.factor =
        wsim::cli::parse_number<double>("degrade", fields[0], 0.0, kUnbounded);
    wsim::util::require(spec.factor > 1.0,
                        "--degrade factor must be > 1 (a slowdown)");
    if (fields.size() > 1 && !fields[1].empty()) {
      const std::string& kind = fields[1];
      if (kind == "stuck") {
        spec.kind = wsim::fleet::DegradeKind::kStuckSlow;
      } else if (kind == "ramp") {
        spec.kind = wsim::fleet::DegradeKind::kProgressive;
      } else if (kind == "flap") {
        spec.kind = wsim::fleet::DegradeKind::kFlapping;
      } else {
        throw wsim::util::CheckError("unknown --degrade kind '" + kind +
                                     "' (stuck|ramp|flap)");
      }
    }
    if (fields.size() > 2 && !fields[2].empty()) {
      spec.onset_seq = static_cast<std::uint64_t>(
          wsim::cli::parse_number<long>("degrade", fields[2], 0, kLongMax));
    }
    if (fields.size() > 3 && !fields[3].empty()) {
      const auto param = static_cast<std::uint64_t>(
          wsim::cli::parse_number<long>("degrade", fields[3], 1, kLongMax));
      if (spec.kind == wsim::fleet::DegradeKind::kProgressive) {
        spec.ramp_batches = param;
      } else {
        spec.period = param;
      }
    }
    specs.push_back(spec);
  }
  return specs;
}

/// --calibrate on|off. Defaults to on under the calibrated placement
/// policy (which is built around the factors) and off otherwise.
bool calibration_from(const Args& args, wsim::fleet::PlacementPolicy policy) {
  const std::string fallback =
      policy == wsim::fleet::PlacementPolicy::kCalibrated ? "on" : "off";
  const std::string value = args.get("calibrate", fallback);
  wsim::util::require(value == "on" || value == "off",
                      "--calibrate must be 'on' or 'off'");
  return value == "on";
}

int cmd_fleet_sim(const Args& args) {
  namespace fleet = wsim::fleet;
  namespace serve = wsim::serve;
  configure_obs(args);
  const auto ds = dataset_from(args, /*default_regions=*/8);
  const ReplaySetup setup = replay_setup_from(args);

  fleet::FleetConfig fleet_cfg;
  fleet_cfg.workers = workers_from(args, "K40,K1200,Titan X");
  fleet_cfg.policy = fleet::placement_policy_by_name(args.get("policy", "model"));
  fleet_cfg.parallelism =
      fleet::parallelism_policy_by_name(args.get("parallelism", "auto"));
  // --kernel pins one SW subsystem fleet-wide: wf-* names force every SW
  // batch through that wavefront variant, plain names force task-per-block
  // with that communication design. Unknown names error listing the valid
  // vocabulary (sw_kernel_by_name).
  const std::string kernel = args.get("kernel", "");
  if (!kernel.empty()) {
    const wsim::kernels::SwKernelChoice choice =
        wsim::kernels::sw_kernel_by_name(kernel);
    if (choice.intra) {
      fleet_cfg.parallelism = fleet::ParallelismPolicy::kIntraTask;
      for (auto& wc : fleet_cfg.workers) {
        wc.wf_variant = choice.wf_variant;
      }
    } else {
      fleet_cfg.parallelism = fleet::ParallelismPolicy::kInterTask;
      for (auto& wc : fleet_cfg.workers) {
        wc.sw_design = choice.inter_mode;
      }
    }
  }
  fleet_cfg.faults.seed = static_cast<std::uint64_t>(args.get_int("fault-seed", 1));
  fleet_cfg.faults.launch_failure_prob = args.get_double("fail-prob", 0.0, 0.0, 1.0);
  fleet_cfg.faults.slowdown_prob = args.get_double("slow-prob", 0.0, 0.0, 1.0);
  fleet_cfg.faults.slowdown_factor = args.get_double("slow-factor", 4.0, 1.0);
  fleet_cfg.faults.degradations = degradations_from(args);
  // DEV is a position in --fleet here; an index past its end would
  // silently degrade nothing. (cluster-sim takes any index: its device ids
  // grow as the autoscaler joins workers.)
  for (const wsim::fleet::DegradeSpec& spec : fleet_cfg.faults.degradations) {
    if (static_cast<std::size_t>(spec.device) >= fleet_cfg.workers.size()) {
      throw wsim::util::CheckError(
          "--degrade device " + std::to_string(spec.device) + " is outside the fleet of " +
          std::to_string(fleet_cfg.workers.size()) +
          " devices (DEV is the 0-based position in --fleet)");
    }
  }
  fleet_cfg.calibration.enabled = calibration_from(args, fleet_cfg.policy);
  wsim::simt::ExecutionEngine engine(engine_options_from(args));
  fleet_cfg.engine = &engine;
  fleet::FleetExecutor executor(std::move(fleet_cfg));

  serve::ServiceConfig cfg;
  apply_service_args(args, setup, cfg);
  cfg.fleet = &executor;
  serve::AlignmentService service(std::move(cfg));

  const ReplayOutcome outcome = replay_poisson(
      service, ds, setup, static_cast<std::uint64_t>(args.get_int("seed", 42)));
  const auto stats = service.stats();
  const auto fleet_stats = executor.stats();

  std::cout << "Fleet: " << executor.size() << " devices, policy "
            << fleet::to_string(executor.config().policy) << ", rate "
            << format_fixed(setup.rate, 0) << " req/s, batching delay "
            << format_fixed(setup.delay_us, 0) << " us"
            << (executor.config().faults.enabled()
                    ? ", faults on (seed " +
                          std::to_string(executor.config().faults.seed) + ")"
                    : std::string())
            << "\n";
  print_service_stats(stats, outcome, setup.deadline_us);

  const auto ph_design_name = [](wsim::kernels::PhDesign design) {
    switch (design) {
      case wsim::kernels::PhDesign::kShared:
        return "shared";
      case wsim::kernels::PhDesign::kShuffle:
        return "shuffle";
      case wsim::kernels::PhDesign::kHybrid:
        return "hybrid";
    }
    return "?";
  };
  const double duration = stats.duration_seconds();
  wsim::util::Table devices({"device", "SW", "WF", "PH", "batches", "intra",
                             "tasks", "cells", "busy (ms)", "util", "failures",
                             "slowdowns", "cal factor", "drift"});
  for (std::size_t i = 0; i < fleet_stats.devices.size(); ++i) {
    const auto& d = fleet_stats.devices[i];
    devices.add_row({d.name, std::string(wsim::kernels::to_string(d.sw_design)),
                     std::string(wsim::kernels::to_string(d.wf_variant)),
                     ph_design_name(d.ph_design), std::to_string(d.batches),
                     std::to_string(d.intra_batches), std::to_string(d.tasks),
                     std::to_string(d.cells),
                     format_fixed(d.busy_seconds * 1e3, 3),
                     format_percent(fleet_stats.utilization(i, duration)),
                     std::to_string(d.launch_failures),
                     std::to_string(d.slowdowns),
                     format_fixed(d.calibration_factor, 2),
                     std::string(fleet::to_string(d.drift_state))});
  }
  devices.print(std::cout);
  std::cout << "dispatches " << fleet_stats.dispatches << ", retries "
            << fleet_stats.retries << ", requeues " << fleet_stats.requeues
            << ", busy skew " << format_fixed(fleet_stats.busy_skew(), 3)
            << "\n";
  maybe_write_stats_json(args, stats, fleet_stats);
  write_obs_outputs(args);
  return 0;
}

/// Builds the trace cluster-sim replays: loaded from --trace when given,
/// otherwise generated from --shape/--duration/--rate/--tenants/--seed
/// (the total rate splits evenly across tenants). --save-trace saves the
/// trace either way, so a generated run can be replayed bit-identically.
wsim::workload::Trace cluster_trace_from(const Args& args) {
  namespace workload = wsim::workload;
  workload::Trace trace;
  const std::string trace_in = args.get("trace", "");
  if (!trace_in.empty()) {
    trace = workload::load_trace(trace_in);
  } else {
    workload::TraceConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
    cfg.duration_seconds = args.get_double("duration", 0.5);
    wsim::util::require(cfg.duration_seconds > 0.0, "--duration must be > 0");
    cfg.shape = workload::trace_shape_by_name(args.get("shape", "diurnal"));
    const long tenants = args.get_int("tenants", 2, 1);
    const double rate = args.get_double("rate", 20000.0);
    wsim::util::require(rate > 0.0, "--rate must be > 0");
    for (long i = 0; i < tenants; ++i) {
      workload::TenantTraffic traffic;
      traffic.name = "tenant-" + std::to_string(i);
      traffic.rate_hz = rate / static_cast<double>(tenants);
      cfg.tenants.push_back(std::move(traffic));
    }
    trace = workload::generate_trace(cfg);
  }
  const std::string trace_out = args.get("save-trace", "");
  if (!trace_out.empty()) {
    workload::save_trace(trace_out, trace);
    std::cout << "trace written to " << trace_out << " (" << trace.events.size()
              << " events)\n";
  }
  return trace;
}

int cmd_cluster_sim(const Args& args) {
  namespace cluster = wsim::cluster;
  namespace fleet = wsim::fleet;
  namespace serve = wsim::serve;
  configure_obs(args);
  const auto ds = dataset_from(args, /*default_regions=*/4);
  const wsim::workload::Trace trace = cluster_trace_from(args);

  cluster::ClusterConfig cfg;
  cfg.worker.device =
      wsim::simt::device_by_name(args.get("fleet-device", "K1200"));
  if (args.options.count("mode") != 0 &&
      mode_from(args) == CommMode::kSharedMemory) {
    cfg.worker.sw_design = CommMode::kSharedMemory;
    cfg.worker.ph_design = wsim::kernels::PhDesign::kShared;
  }
  cfg.autoscaler.min_workers =
      static_cast<std::size_t>(args.get_int("min", 1, 1));
  cfg.autoscaler.max_workers =
      static_cast<std::size_t>(args.get_int("max", 8, 1));
  const std::string autoscale = args.get("autoscaler", "on");
  wsim::util::require(autoscale == "on" || autoscale == "off",
                      "--autoscaler must be 'on' or 'off'");
  cfg.autoscaler.enabled = autoscale == "on";
  // With the control law off the fleet is fixed: min workers for the whole
  // run (pass --min = --max to size the fixed fleet).
  cfg.initial_workers = cfg.autoscaler.min_workers;
  cfg.control_interval_seconds =
      static_cast<double>(args.get_int("interval", 2000, 1)) * 1e-6;
  cfg.join_warmup_seconds =
      static_cast<double>(args.get_int("warmup", 2000)) * 1e-6;
  cfg.autoscaler.target_backlog_seconds =
      static_cast<double>(args.get_int("target-backlog", 5000, 1)) * 1e-6;
  cfg.cost_per_device_hour = args.get_double("cost-hour", 2.5);
  cfg.faults.seed = static_cast<std::uint64_t>(args.get_int("fault-seed", 1));
  cfg.faults.launch_failure_prob = args.get_double("fail-prob", 0.0, 0.0, 1.0);
  cfg.faults.slowdown_prob = args.get_double("slow-prob", 0.0, 0.0, 1.0);
  cfg.faults.slowdown_factor = args.get_double("slow-factor", 4.0, 1.0);
  cfg.faults.degradations = degradations_from(args);
  cfg.policy = fleet::placement_policy_by_name(args.get("policy", "model"));
  cfg.calibration.enabled = calibration_from(args, cfg.policy);

  // Every trace tenant gets the same contract: an SLO class (--slo, in
  // milliseconds, 0 = none) and a queued-task quota (--quota, 0 = none).
  const double slo_seconds = args.get_double("slo", 20.0) * 1e-3;
  const std::size_t quota =
      static_cast<std::size_t>(args.get_int("quota", 0));
  for (const std::string& name : trace.tenants) {
    serve::TenantConfig tenant;
    tenant.name = name;
    tenant.slo_seconds = slo_seconds;
    tenant.max_queued_tasks = quota;
    cfg.tenants.push_back(std::move(tenant));
  }

  const cluster::ClusterReport report = cluster::run_cluster(ds, trace, cfg);

  std::cout << "Cluster: " << cfg.worker.device.name << " x [";
  std::cout << cfg.autoscaler.min_workers << ".." << cfg.autoscaler.max_workers
            << "], autoscaler " << (cfg.autoscaler.enabled ? "on" : "off")
            << ", " << trace.tenants.size() << " tenants, "
            << trace.events.size() << " arrivals over "
            << format_fixed(trace.duration_seconds * 1e3, 0) << " ms\n";
  wsim::util::Table table({"metric", "value"});
  table.add_row({"completed", std::to_string(report.service.completed()) +
                 " / " + std::to_string(report.service.submitted())});
  table.add_row({"rejected (tenant quota)",
                 std::to_string(report.service.rejected_tenant_quota)});
  table.add_row({"goodput", format_fixed(report.goodput_rps, 0) + " req/s"});
  table.add_row({"SLO violation rate",
                 format_percent(report.slo_violation_rate)});
  table.add_row({"latency p50",
                 format_fixed(report.service.latency.p50 * 1e3, 3) + " ms"});
  table.add_row({"latency p99",
                 format_fixed(report.service.latency.p99 * 1e3, 3) + " ms"});
  table.add_row({"peak workers", std::to_string(report.peak_workers)});
  table.add_row({"joins / drains / retires",
                 std::to_string(report.fleet.joins) + " / " +
                     std::to_string(report.fleet.drains) + " / " +
                     std::to_string(report.fleet.retires)});
  table.add_row({"device-hours", format_fixed(report.device_hours * 3600.0, 3) +
                 " device-s"});
  table.add_row({"cost / 1M requests",
                 format_fixed(report.cost_per_million, 4) + " $"});
  table.add_row({"simulated end time",
                 format_fixed(report.duration_seconds * 1e3, 3) + " ms"});
  table.print(std::cout);

  wsim::util::Table tenants_table({"tenant", "submitted", "completed",
                                   "quota-rejected", "SLO (ms)", "p50 (ms)",
                                   "p99 (ms)", "violations"});
  for (const serve::TenantStats& tenant : report.service.tenants) {
    tenants_table.add_row(
        {tenant.name.empty() ? "(default)" : tenant.name,
         std::to_string(tenant.submitted), std::to_string(tenant.completed),
         std::to_string(tenant.rejected_quota),
         format_fixed(tenant.slo_seconds * 1e3, 1),
         format_fixed(tenant.latency.p50 * 1e3, 3),
         format_fixed(tenant.latency.p99 * 1e3, 3),
         format_percent(tenant.slo_violation_rate())});
  }
  tenants_table.print(std::cout);

  wsim::util::Table devices({"id", "device", "state", "batches", "cells",
                             "busy (ms)", "quarantines", "cal factor", "drift",
                             "joined (ms)"});
  for (const fleet::DeviceStats& d : report.fleet.devices) {
    devices.add_row({std::to_string(d.id), d.name,
                     std::string(fleet::to_string(d.state)),
                     std::to_string(d.batches), std::to_string(d.cells),
                     format_fixed(d.busy_seconds * 1e3, 3),
                     std::to_string(d.quarantines),
                     format_fixed(d.calibration_factor, 2),
                     std::string(fleet::to_string(d.drift_state)),
                     format_fixed(d.joined_at * 1e3, 3)});
  }
  devices.print(std::cout);

  const std::string path = args.get("json", "");
  if (!path.empty()) {
    std::ofstream os(path);
    wsim::util::require(static_cast<bool>(os), "cannot open json file " + path);
    cluster::write_cluster_json(os, report);
    os << '\n';
    std::cout << "report written to " << path << "\n";
  }
  write_obs_outputs(args);
  return 0;
}

/// One cell of the guard-sim sweep: an injection rate crossed with a
/// detection mode, plus what the fleet's guard accounting and the
/// bit-identity comparison against the fault-free baseline observed.
struct GuardCell {
  double flip_prob = 0.0;
  wsim::guard::DetectMode mode = wsim::guard::DetectMode::kNone;
  std::size_t batches = 0;
  std::size_t escaped = 0;       ///< delivered batches differing from baseline
  std::size_t cpu_excluded = 0;  ///< PairHMM CPU fallbacks (accurate, not bit-identical)
  wsim::guard::GuardStats stats;
};

int cmd_guard_sim(const Args& args) {
  namespace fleet = wsim::fleet;
  namespace guard = wsim::guard;
  configure_obs(args);
  const auto ds = dataset_from(args, /*default_regions=*/2);
  const auto batch_size = static_cast<std::size_t>(args.get_int("batch", 64, 1));
  const auto sw_batches = wsim::workload::sw_rebatch(ds, batch_size);
  const auto ph_batches = wsim::workload::ph_rebatch(ds, batch_size);

  std::vector<double> probs;
  {
    const std::string list = args.get("flip-prob", "3e-7,3e-6");
    std::size_t begin = 0;
    while (begin <= list.size()) {
      std::size_t end = list.find(',', begin);
      if (end == std::string::npos) {
        end = list.size();
      }
      const std::string item = list.substr(begin, end - begin);
      if (!item.empty()) {
        probs.push_back(
            wsim::cli::parse_number<double>("flip-prob", item, 0.0, 1.0));
      }
      begin = end + 1;
    }
    wsim::util::require(!probs.empty(), "guard-sim: --flip-prob names no rates");
  }
  std::vector<guard::DetectMode> modes;
  {
    const std::string detect = args.get("detect", "all");
    if (detect == "all") {
      modes = {guard::DetectMode::kNone, guard::DetectMode::kAbft,
               guard::DetectMode::kDual};
    } else {
      modes = {guard::detect_mode_by_name(detect)};
    }
  }
  const auto workers = workers_from(args, "K1200,Titan X");
  const auto sdc_seed = static_cast<std::uint64_t>(args.get_int("sdc-seed", 7));
  wsim::simt::ExecutionEngine engine(engine_options_from(args));

  // Runs every batch through `executor` and either records the delivered
  // fingerprints (baseline pass) or compares them against the baseline's
  // (sweep pass). The comparison is end-to-end bit-identity of everything
  // the fleet delivers, so it also penalizes corruption the ABFT
  // validators cannot see (e.g. traceback cells off the reported path).
  const auto run_all = [&](fleet::FleetExecutor& executor,
                           std::vector<std::uint64_t>* record,
                           const std::vector<std::uint64_t>* baseline,
                           GuardCell* cell) {
    fleet::ExecOptions opt;  // collect_outputs defaults to true
    std::size_t index = 0;
    const auto observe = [&](std::uint64_t print, bool cpu_fallback, bool is_sw) {
      if (record != nullptr) {
        record->push_back(print);
      }
      if (baseline != nullptr) {
        // The SW CPU reference is bit-identical to the kernels, so its
        // fallbacks still must match; the PairHMM one is accurate but
        // differs in low bits from the f32 kernel and is excluded.
        if (!is_sw && cpu_fallback) {
          ++cell->cpu_excluded;
        } else if (print != (*baseline)[index]) {
          ++cell->escaped;
        }
      }
      ++index;
    };
    for (const auto& batch : sw_batches) {
      auto executed = executor.execute_sw(batch, /*now=*/0.0, opt);
      observe(guard::fingerprint_sw(executed.result.outputs),
              executed.exec.cpu_fallback, /*is_sw=*/true);
    }
    for (const auto& batch : ph_batches) {
      auto executed = executor.execute_ph(batch, /*now=*/0.0, opt);
      observe(guard::fingerprint_ph(executed.result.log10),
              executed.exec.cpu_fallback, /*is_sw=*/false);
    }
  };

  std::vector<std::uint64_t> baseline;
  {
    fleet::FleetConfig cfg;
    cfg.workers = workers;
    cfg.engine = &engine;
    fleet::FleetExecutor executor(std::move(cfg));
    run_all(executor, &baseline, nullptr, nullptr);
  }

  std::vector<GuardCell> cells;
  for (const double prob : probs) {
    for (const guard::DetectMode mode : modes) {
      fleet::FleetConfig cfg;
      cfg.workers = workers;
      cfg.engine = &engine;
      cfg.guard.detect = mode;
      cfg.guard.sdc.seed = sdc_seed;
      cfg.guard.sdc.flip_prob = prob;
      fleet::FleetExecutor executor(std::move(cfg));
      GuardCell cell;
      cell.flip_prob = prob;
      cell.mode = mode;
      cell.batches = sw_batches.size() + ph_batches.size();
      run_all(executor, nullptr, &baseline, &cell);
      cell.stats = executor.stats().guard;
      cells.push_back(std::move(cell));
    }
  }

  std::size_t escaped_total = 0;
  wsim::util::Table table({"flip prob", "detect", "batches", "flips", "detected",
                           "corrected", "masked", "re-exec", "cpu", "escaped"});
  for (const GuardCell& cell : cells) {
    escaped_total += cell.escaped;
    table.add_row({format_fixed(cell.flip_prob, 7),
                   std::string(guard::to_string(cell.mode)),
                   std::to_string(cell.batches),
                   std::to_string(cell.stats.sdc_flips),
                   std::to_string(cell.stats.sdc_detected),
                   std::to_string(cell.stats.sdc_corrected),
                   std::to_string(cell.stats.sdc_masked),
                   std::to_string(cell.stats.reexecutions),
                   std::to_string(cell.stats.cpu_fallbacks),
                   std::to_string(cell.escaped)});
  }
  std::cout << "Fleet: " << workers.size() << " devices, "
            << sw_batches.size() + ph_batches.size() << " batches (SW "
            << sw_batches.size() << ", PairHMM " << ph_batches.size()
            << "), SDC seed " << sdc_seed << "\n";
  table.print(std::cout);
  std::cout << "escaped_total " << escaped_total << "\n";

  const std::string path = args.get("json", "");
  if (!path.empty()) {
    std::ofstream os(path);
    wsim::util::require(static_cast<bool>(os), "cannot open json file " + path);
    os << "{\n  \"sweep\": [";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const GuardCell& cell = cells[i];
      os << (i == 0 ? "" : ",") << "\n    {\"flip_prob\": " << cell.flip_prob
         << ", \"detect\": \"" << guard::to_string(cell.mode) << "\""
         << ", \"batches\": " << cell.batches
         << ", \"sdc_flips\": " << cell.stats.sdc_flips
         << ", \"sdc_detected\": " << cell.stats.sdc_detected
         << ", \"sdc_corrected\": " << cell.stats.sdc_corrected
         << ", \"sdc_masked\": " << cell.stats.sdc_masked
         << ", \"reexecutions\": " << cell.stats.reexecutions
         << ", \"cpu_fallbacks\": " << cell.stats.cpu_fallbacks
         << ", \"watchdog_timeouts\": " << cell.stats.watchdog_timeouts
         << ", \"escaped\": " << cell.escaped << "}";
    }
    os << "\n  ],\n  \"escaped_total\": " << escaped_total << "\n}\n";
    std::cout << "sweep written to " << path << "\n";
  }
  write_obs_outputs(args);
  return 0;
}

void print_usage(std::ostream& os) { os << wsim::cli::usage_text(); }

int usage_error() {
  print_usage(std::cerr);
  return 2;
}

}  // namespace

namespace {

using Handler = int (*)(const Args&);

/// Dispatch table, checked one-to-one against wsim::cli::commands() at
/// startup so the registry (and therefore the help text and the drift
/// test) can never silently diverge from what main() actually runs.
const std::map<std::string, Handler>& handlers() {
  static const std::map<std::string, Handler> table = {
      {"devices", [](const Args&) { return cmd_devices(); }},
      {"micro", cmd_micro},
      {"sw", cmd_sw},
      {"nw", cmd_nw},
      {"pairhmm", cmd_pairhmm},
      {"sw-run", cmd_sw_run},
      {"workload", cmd_workload},
      {"sweep", cmd_sweep},
      {"pipeline", cmd_pipeline},
      {"serve-sim", cmd_serve_sim},
      {"fleet-sim", cmd_fleet_sim},
      {"cluster-sim", cmd_cluster_sim},
      {"guard-sim", cmd_guard_sim},
  };
  return table;
}

void check_registry() {
  const auto& table = handlers();
  for (const auto& info : wsim::cli::commands()) {
    wsim::util::require(table.count(std::string(info.name)) == 1,
                        "wsim: registered command '" + std::string(info.name) +
                            "' has no dispatch handler");
  }
  wsim::util::require(table.size() == wsim::cli::commands().size(),
                      "wsim: dispatch table has commands missing from the "
                      "wsim::cli registry");
}

}  // namespace

int main(int argc, char** argv) {
  check_registry();
  if (argc < 2) {
    return usage_error();
  }
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    print_usage(std::cout);
    return 0;
  }
  const Args args = parse(argc, argv);
  // The interpreter knob routes through the WSIM_INTERP environment
  // variable so every launch in the process — including engines built by
  // library code — resolves the same path (simt::resolve_interp_path).
  // An inherited value is validated too: the library treats unknown names
  // as the default, which would silently ignore a typo.
  const std::string interp = args.get("interp", "");
  const char* inherited = std::getenv("WSIM_INTERP");
  std::string interp_err;
  if (!interp.empty()) {
    interp_err = wsim::cli::interp_error(interp);
  } else if (inherited != nullptr && *inherited != '\0') {
    interp_err = wsim::cli::interp_error(inherited, "WSIM_INTERP");
  }
  if (!interp_err.empty()) {
    std::cerr << interp_err << '\n';
    return usage_error();
  }
  if (!interp.empty()) {
    ::setenv("WSIM_INTERP", interp.c_str(), 1);
  }
  try {
    const auto it = handlers().find(command);
    if (it == handlers().end()) {
      std::cerr << "unknown command '" << command << "'\n";
      return usage_error();
    }
    return it->second(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
