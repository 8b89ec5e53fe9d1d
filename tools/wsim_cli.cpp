// wsim — command-line driver for the warpshfl library. Every command, its
// positionals and its flags (kind, default, range) are declared once in
// wsim::cli::commands(), which parses the command line and prints the
// usage; main() checks its dispatch table against that registry at
// startup.

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "wsim/cli/commands.hpp"
#include "wsim/cluster/cluster.hpp"
#include "wsim/fleet/fleet.hpp"
#include "wsim/guard/guard.hpp"
#include "wsim/kernels/nw_kernels.hpp"
#include "wsim/kernels/ph_kernels.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/kernels/wavefront_kernels.hpp"
#include "wsim/micro/microbench.hpp"
#include "wsim/obs/chrome_trace.hpp"
#include "wsim/obs/metrics.hpp"
#include "wsim/obs/obs.hpp"
#include "wsim/pipeline/pipeline.hpp"
#include "wsim/serve/service.hpp"
#include "wsim/simt/device.hpp"
#include "wsim/simt/engine.hpp"
#include "wsim/simt/profile.hpp"
#include "wsim/simt/trace.hpp"
#include "wsim/util/check.hpp"
#include "wsim/util/rng.hpp"
#include "wsim/util/table.hpp"
#include "wsim/workload/batching.hpp"
#include "wsim/workload/dataset_io.hpp"
#include "wsim/workload/generator.hpp"
#include "wsim/workload/trace.hpp"

namespace {

using wsim::cli::Args;
using wsim::kernels::CommMode;
using wsim::util::check_input;
using wsim::util::format_fixed;
using wsim::util::format_percent;

wsim::simt::DeviceSpec device_from(const Args& args) {
  return wsim::simt::device_by_name(args.str("device"));
}

/// Engine configuration from --threads (0: one worker per hardware
/// thread); every kernel-launching command builds one engine from this and
/// routes its launches through it.
wsim::simt::EngineOptions engine_options_from(const Args& args) {
  return wsim::simt::EngineOptions{.threads = static_cast<int>(args.integer("threads"))};
}

CommMode mode_from(const Args& args) {
  const std::string mode = args.str("mode");
  check_input(mode == "shared" || mode == "shuffle",
              "unknown --mode '" + mode + "' (shared|shuffle)");
  return mode == "shared" ? CommMode::kSharedMemory : CommMode::kShuffle;
}

/// --mode shared pins both kernel designs of `cfg` (a worker or the
/// pipeline) to shared memory; shuffle, the default, leaves the designs
/// `cfg` already has.
template <typename Config>
void pin_mode(const Args& args, Config& cfg) {
  if (mode_from(args) == CommMode::kSharedMemory) {
    cfg.sw_design = CommMode::kSharedMemory;
    cfg.ph_design = wsim::kernels::PhDesign::kShared;
  }
}

/// The value of an on|off flag.
bool on_off(const Args& args, const std::string& flag) {
  const std::string value = args.str(flag);
  check_input(value == "on" || value == "off",
              "--" + flag + " '" + value + "' must be 'on' or 'off'");
  return value == "on";
}

/// `text` cut at every `sep`; empty fields are kept, except a last one.
std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> fields;
  std::istringstream in(text);
  for (std::string field; std::getline(in, field, sep);) {
    fields.push_back(field);
  }
  return fields;
}

constexpr std::string_view kTraceHint = " — load in chrome://tracing or Perfetto";

/// Writes the file the path flag `flag` names, when it names one: `write`
/// fills it, then stdout reports "<label> written to <path><tail>".
template <typename Write>
void write_output(const Args& args, const std::string& flag, const std::string& label,
                  Write write, std::string_view tail = {}) {
  const std::string path = args.str(flag);
  if (path.empty()) {
    return;
  }
  std::ofstream os(path);
  check_input(static_cast<bool>(os), "--" + flag + ": cannot open " + path);
  write(os);
  std::cout << label << " written to " << path << tail << "\n";
}

/// The dataset a command runs on: --in loads a file; otherwise one is
/// generated from `cfg` with --regions and --seed, and with --profile (the
/// SW length family) where the command takes it.
wsim::workload::Dataset dataset_from(const Args& args,
                                     wsim::workload::GeneratorConfig cfg = {}) {
  const std::string in = args.str("in");
  if (!in.empty()) {
    return wsim::workload::load_dataset(in);
  }
  const auto seed = static_cast<std::uint64_t>(args.integer("seed"));
  const std::string profile = args.declares("profile") ? args.str("profile") : "";
  if (!profile.empty()) {
    cfg = wsim::workload::profile_config(wsim::workload::length_profile_by_name(profile),
                                         seed);
  }
  cfg.regions = static_cast<int>(args.integer("regions"));
  cfg.seed = seed;
  return wsim::workload::generate_dataset(cfg);
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
  const auto dev = device_from(args);
  const wsim::kernels::SwRunner runner(mode_from(args));
  wsim::simt::ExecutionEngine engine(engine_options_from(args));
  wsim::kernels::SwRunOptions opt;
  opt.collect_outputs = true;
  opt.engine = &engine;
  wsim::simt::Trace trace;
  if (!args.str("trace").empty()) {
    opt.trace_representative = &trace;
  }
  const auto result = runner.run_batch(
      dev, {{args.positional()[0], args.positional()[1]}}, opt);
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
  if (args.given("profile")) {
    const auto profile = wsim::simt::profile_block(
        runner.kernel(), dev, result.run.launch.representative, result.run.cells);
    std::cout << wsim::simt::format_profile(profile);
  }
  write_output(
      args, "trace", "trace (" + std::to_string(trace.size()) + " events)",
      [&](std::ostream& os) { trace.write_chrome_json(os); }, kTraceHint);
  return 0;
}

int cmd_nw(const Args& args) {
  const auto dev = device_from(args);
  const wsim::kernels::NwRunner runner(mode_from(args));
  wsim::simt::ExecutionEngine engine(engine_options_from(args));
  wsim::kernels::NwRunOptions opt;
  opt.collect_outputs = true;
  opt.engine = &engine;
  const auto& seqs = args.positional();
  const auto result = runner.run_batch(dev, {{seqs[0], seqs[1]}}, opt);
  const auto host = wsim::align::nw_align(seqs[0], seqs[1], {});
  std::cout << "kernel: " << runner.kernel().name << " on " << dev.name << '\n'
            << "score:  " << result.scores.front() << '\n'
            << "cigar:  " << host.cigar << " (host backtrace)\n"
            << "cycles: " << result.run.launch.representative.cycles << '\n';
  return 0;
}

int cmd_pairhmm(const Args& args) {
  const auto dev = device_from(args);
  wsim::align::PairHmmTask task;
  task.read = args.positional()[0];
  task.hap = args.positional()[1];
  const auto qual = static_cast<std::uint8_t>(args.integer("qual"));
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
  const wsim::workload::Dataset ds = dataset_from(args);
  const std::string out = args.str("out");
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
  const wsim::workload::Dataset ds = dataset_from(args);
  const auto batch_size = static_cast<std::size_t>(args.integer("batch"));
  const auto sw_batches = wsim::workload::sw_rebatch(ds, batch_size);
  const auto ph_batches = wsim::workload::ph_rebatch(ds, batch_size);

  // One engine for the whole sweep; its persistent cache replaces the
  // per-kernel external caches (entries are keyed by kernel identity, so
  // SW1/SW2 and the PH variants never alias).
  wsim::simt::ExecutionEngine engine(engine_options_from(args));

  // Mean GCUPS of one kernel design over every batch of its kind.
  const auto mean_gcups = [&](const auto& runner, auto opt, const auto& batches) {
    opt.mode = wsim::simt::ExecMode::kCachedByShape;
    opt.engine = &engine;
    double total = 0.0;
    for (const auto& batch : batches) {
      total += runner.run_batch(dev, batch, opt).run.gcups_total();
    }
    return format_fixed(total / static_cast<double>(batches.size()), 2);
  };
  using wsim::kernels::PhRunner;
  using wsim::kernels::SwRunner;
  wsim::util::Table table({"kernel", "avg GCUPS (incl. transfer)"});
  table.add_row({"SW1", mean_gcups(SwRunner(CommMode::kSharedMemory),
                                   wsim::kernels::SwRunOptions{}, sw_batches)});
  table.add_row({"SW2", mean_gcups(SwRunner(CommMode::kShuffle),
                                   wsim::kernels::SwRunOptions{}, sw_batches)});
  table.add_row({"PH1", mean_gcups(PhRunner(CommMode::kSharedMemory),
                                   wsim::kernels::PhRunOptions{}, ph_batches)});
  table.add_row({"PH2", mean_gcups(PhRunner(CommMode::kShuffle),
                                   wsim::kernels::PhRunOptions{}, ph_batches)});
  std::cout << "Device: " << dev.name << ", batch size " << batch_size << "\n";
  table.print(std::cout);
  return 0;
}

int cmd_pipeline(const Args& args) {
  const wsim::workload::Dataset ds =
      dataset_from(args, {.ph_tasks_per_region_mean = 24.0});
  wsim::pipeline::PipelineConfig cfg;
  cfg.device = device_from(args);
  pin_mode(args, cfg);
  cfg.rebatch_size = static_cast<std::size_t>(args.integer("batch"));
  cfg.threads = static_cast<int>(args.integer("threads"));
  cfg.overlap_transfers = args.given("streams");
  cfg.lpt_order = args.given("lpt");
  cfg.validate_sample = args.given("validate");
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

int cmd_sw_run(const Args& args) {
  const auto dev = device_from(args);
  const wsim::kernels::SwKernelChoice choice =
      wsim::kernels::sw_kernel_by_name(args.str("kernel"));
  const auto profile = wsim::workload::length_profile_by_name(args.str("profile"));
  const auto seed = static_cast<std::uint64_t>(args.integer("seed"));
  const auto want = static_cast<std::size_t>(args.integer("tasks"));

  wsim::workload::GeneratorConfig cfg =
      wsim::workload::profile_config(profile, seed);
  cfg.regions = static_cast<int>(want);  // >= one SW task per region
  auto batch =
      wsim::workload::sw_all_tasks(wsim::workload::generate_dataset(cfg));
  if (batch.size() > want) {
    batch.resize(want);
  }

  wsim::simt::ExecutionEngine engine(engine_options_from(args));
  const bool verify = args.given("verify");
  const wsim::align::SwParams params;

  // Both subsystems take the same options and return the same run; only
  // the wavefront one issues more than one launch.
  const auto run_and_report = [&](const auto& runner, auto opt) {
    opt.engine = &engine;
    if (verify) {
      opt.collect_outputs = true;
    } else {
      opt.mode = wsim::simt::ExecMode::kCachedByShape;
    }
    const auto result = runner.run_batch(dev, batch, opt);
    const wsim::kernels::KernelRunResult& run = result.run;
    std::size_t launches = 1;
    std::size_t blocks = batch.size();
    if constexpr (requires { result.launches; }) {
      launches = result.launches;
      blocks = result.blocks;
    }
    wsim::util::Table table({"metric", "value"});
    table.add_row({"kernel", wsim::kernels::sw_kernel_name(choice) + " (" +
                                 runner.kernel().name + ")"});
    table.add_row({"device", dev.name});
    table.add_row({"profile", std::string(wsim::workload::to_string(profile))});
    table.add_row({"tasks", std::to_string(batch.size())});
    table.add_row({"cells", std::to_string(run.cells)});
    table.add_row({"launches", std::to_string(launches)});
    table.add_row({"blocks", std::to_string(blocks)});
    table.add_row(
        {"kernel time", format_fixed(run.launch.kernel_seconds * 1e3, 3) + " ms"});
    table.add_row(
        {"total time", format_fixed(run.launch.total_seconds() * 1e3, 3) + " ms"});
    table.add_row({"GCUPS (kernel)", format_fixed(run.gcups_kernel(), 2)});
    table.add_row({"GCUPS (total)", format_fixed(run.gcups_total(), 2)});
    table.add_row({"occupancy", format_percent(run.launch.occupancy.fraction)});
    table.print(std::cout);
    if (verify) {
      const auto verdict = wsim::guard::validate_sw(batch, result.outputs, params);
      if (verdict.has_value()) {
        std::cout << "verify: FAILED — " << *verdict << "\n";
        return 1;
      }
      std::cout << "verify: OK (" << batch.size()
                << " CIGARs re-scored against the scoring scheme)\n";
    }
    return 0;
  };
  if (choice.intra) {
    return run_and_report(wsim::kernels::WavefrontSwRunner(choice.wf_variant, params),
                          wsim::kernels::WfRunOptions{});
  }
  return run_and_report(wsim::kernels::SwRunner(choice.inter_mode, params),
                        wsim::kernels::SwRunOptions{});
}

/// Arms the obs subsystem for this run when --trace-out / --metrics-out
/// is present: full tracing when a Chrome trace was requested, metrics
/// only when just the flat dump was. Without either flag the default
/// kOff level keeps every instrumentation site a no-op.
void configure_obs(const Args& args) {
  if (!args.str("trace-out").empty()) {
    wsim::obs::set_level(wsim::obs::Level::kTrace);
  } else if (!args.str("metrics-out").empty()) {
    wsim::obs::set_level(wsim::obs::Level::kMetrics);
  }
}

/// Writes the Chrome trace and/or metrics dump the run recorded.
void write_obs_outputs(const Args& args) {
  const std::string events = std::to_string(wsim::obs::collect().size());
  write_output(
      args, "trace-out", "trace (" + events + " events)",
      [](std::ostream& os) { wsim::obs::write_chrome_trace(os); }, kTraceHint);
  write_output(args, "metrics-out", "metrics",
               [](std::ostream& os) { wsim::obs::write_metrics_json(os); });
}

/// What a serve-sim or fleet-sim replay produced.
struct Replay {
  wsim::serve::ServiceStats stats;
  wsim::fleet::FleetStats fleet;
  std::size_t rejected = 0;
  double end = 0.0;  ///< simulated time after drain
};

/// Replays the dataset through the serving layer over the fleet `fleet_cfg`
/// describes, as open-loop Poisson arrivals: flatten both task kinds,
/// shuffle so SW and PairHMM interleave, then submit with exponential
/// interarrival gaps at --rate — the clock advances to each arrival first,
/// so flushes and deliveries happen exactly when the simulated time says.
Replay replay(const Args& args, wsim::fleet::FleetConfig fleet_cfg) {
  namespace serve = wsim::serve;
  const auto ds = dataset_from(args);
  wsim::simt::ExecutionEngine engine(engine_options_from(args));
  fleet_cfg.engine = &engine;
  wsim::fleet::FleetExecutor executor(std::move(fleet_cfg));
  serve::ServiceConfig cfg;
  cfg.policy.max_batch_delay = args.real("delay") * 1e-6;
  if (args.given("target-cells")) {
    cfg.policy.target_batch_cells =
        static_cast<std::size_t>(args.integer("target-cells"));
  }
  if (args.given("max-batch")) {
    cfg.policy.max_batch_tasks = static_cast<std::size_t>(args.integer("max-batch"));
  }
  cfg.max_queue_tasks = static_cast<std::size_t>(args.integer("queue"));
  // Timing-only by default: the load experiment needs latencies, not
  // alignments, and shape-cached execution keeps large replays fast.
  cfg.collect_outputs = args.given("outputs");
  cfg.fleet = &executor;
  serve::AlignmentService service(std::move(cfg));

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
  check_input(!arrivals.empty(), "replay: dataset has no tasks");
  wsim::util::Rng rng(static_cast<std::uint64_t>(args.integer("seed")) ^
                      0x5e27e5e27e5e27e5ULL);
  rng.shuffle(arrivals);

  const double rate = args.real("rate");
  const double deadline_us = args.real("deadline");
  Replay run;
  double t = 0.0;
  for (const Arrival& arrival : arrivals) {
    t += -std::log(1.0 - rng.uniform01()) / rate;
    service.advance_to(t);
    const auto deadline = deadline_us > 0.0
                              ? std::optional<double>(t + deadline_us * 1e-6)
                              : std::nullopt;
    const auto submit = [&](auto request, const auto& tasks) {
      request.task = tasks[arrival.index];
      request.deadline = deadline;
      return service.submit(std::move(request)).admitted();
    };
    const bool admitted = arrival.is_sw ? submit(serve::SwRequest{}, sw_tasks)
                                        : submit(serve::PairHmmRequest{}, ph_tasks);
    run.rejected += admitted ? 0 : 1;
  }
  run.end = service.drain();
  run.stats = service.stats();
  run.fleet = executor.stats();
  return run;
}

/// Prints the ServiceStats table shared by serve-sim and fleet-sim.
void print_service_stats(const Replay& run, double deadline_us) {
  const wsim::serve::ServiceStats& stats = run.stats;
  wsim::util::Table table({"metric", "value"});
  table.add_row({"submitted", std::to_string(stats.submitted())});
  table.add_row({"completed", std::to_string(stats.completed())});
  table.add_row({"rejected (backpressure)", std::to_string(run.rejected)});
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
  table.add_row({"simulated end time", format_fixed(run.end * 1e3, 3) + " ms"});
  table.print(std::cout);
}

/// The replay header's rate and batching delay, shared by serve-sim and
/// fleet-sim.
std::string rate_and_delay(const Args& args) {
  return "rate " + format_fixed(args.real("rate"), 0) + " req/s, batching delay " +
         format_fixed(args.real("delay"), 0) + " us";
}

int cmd_serve_sim(const Args& args) {
  configure_obs(args);
  // One simulated GPU is a one-worker fleet: --mode pins its kernel
  // designs (default shuffle) and SW batches stay task-per-block.
  wsim::fleet::WorkerConfig worker;
  worker.device = device_from(args);
  worker.sw_design = CommMode::kShuffle;
  worker.ph_design = wsim::kernels::PhDesign::kShuffle;
  pin_mode(args, worker);
  wsim::fleet::FleetConfig fleet_cfg;
  fleet_cfg.workers = {worker};
  fleet_cfg.parallelism = wsim::fleet::ParallelismPolicy::kInterTask;
  const Replay run = replay(args, std::move(fleet_cfg));

  const double deadline_us = args.real("deadline");
  std::cout << "Device: " << worker.device.name << ", " << rate_and_delay(args)
            << (deadline_us > 0.0 ? ", deadline " + format_fixed(deadline_us, 0) + " us"
                                  : std::string())
            << "\n";
  print_service_stats(run, deadline_us);
  write_output(args, "json", "stats", [&](std::ostream& os) {
    wsim::serve::write_stats_json(os, run.stats);
    os << '\n';
  });
  write_obs_outputs(args);
  return 0;
}

/// Parses --fleet "K40,K1200,Titan X": comma-separated device names, each
/// one simulated worker. Kernel designs are chosen per device by the
/// performance model unless --mode pins them fleet-wide.
std::vector<wsim::fleet::WorkerConfig> workers_from(const Args& args) {
  std::vector<wsim::fleet::WorkerConfig> workers;
  for (const std::string& name : split(args.str("fleet"), ',')) {
    if (!name.empty()) {
      wsim::fleet::WorkerConfig wc;
      wc.device = wsim::simt::device_by_name(name);
      pin_mode(args, wc);
      workers.push_back(std::move(wc));
    }
  }
  check_input(!workers.empty(), "--fleet names no devices");
  return workers;
}

/// Parses --degrade "DEV@FACTOR[:KIND[:ONSET[:PARAM]]]" (comma-separated
/// for several injections): deterministic silent degradation of device
/// DEV by FACTOR in per-device dispatch-sequence space. KIND is stuck
/// (default), ramp (PARAM = dispatches to full factor), or flap (PARAM =
/// half-period in dispatches); ONSET is the first affected dispatch.
std::vector<wsim::fleet::DegradeSpec> degradations_from(const Args& args) {
  using wsim::cli::parse_number;
  constexpr long kLongMax = std::numeric_limits<long>::max();
  std::vector<wsim::fleet::DegradeSpec> specs;
  for (const std::string& item : split(args.str("degrade"), ',')) {
    if (item.empty()) {
      continue;
    }
    const std::size_t at = item.find('@');
    check_input(at != std::string::npos && at > 0,
                "--degrade expects DEV@FACTOR[:KIND[:ONSET[:PARAM]]], got '" + item +
                    "'");
    wsim::fleet::DegradeSpec spec;
    spec.device =
        static_cast<int>(parse_number<long>("degrade", item.substr(0, at), 0, INT_MAX));
    const std::vector<std::string> fields = split(item.substr(at + 1), ':');
    check_input(!fields.empty() && !fields[0].empty(),
                "--degrade '" + item + "' names no factor");
    spec.factor = parse_number<double>("degrade", fields[0], 0.0, wsim::cli::kUnbounded);
    check_input(spec.factor > 1.0, "--degrade factor must be > 1 (a slowdown)");
    if (fields.size() > 1 && !fields[1].empty()) {
      using wsim::fleet::DegradeKind;
      const auto kinds = {DegradeKind::kStuckSlow, DegradeKind::kProgressive,
                          DegradeKind::kFlapping};
      const auto kind = std::find_if(kinds.begin(), kinds.end(), [&](DegradeKind k) {
        return fields[1] == wsim::fleet::to_string(k);
      });
      check_input(kind != kinds.end(),
                  "unknown --degrade kind '" + fields[1] + "' (stuck|ramp|flap)");
      spec.kind = *kind;
    }
    if (fields.size() > 2 && !fields[2].empty()) {
      spec.onset_seq = static_cast<std::uint64_t>(
          parse_number<long>("degrade", fields[2], 0, kLongMax));
    }
    if (fields.size() > 3 && !fields[3].empty()) {
      const auto param = static_cast<std::uint64_t>(
          parse_number<long>("degrade", fields[3], 1, kLongMax));
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

/// The fault plan of fleet-sim and cluster-sim: launch failures and
/// slowdowns drawn from --fault-seed, plus the --degrade injections.
wsim::fleet::FaultPlan faults_from(const Args& args) {
  wsim::fleet::FaultPlan faults;
  faults.seed = static_cast<std::uint64_t>(args.integer("fault-seed"));
  faults.launch_failure_prob = args.real("fail-prob");
  faults.slowdown_prob = args.real("slow-prob");
  faults.slowdown_factor = args.real("slow-factor");
  faults.degradations = degradations_from(args);
  return faults;
}

/// --calibrate on|off. Defaults to on under the calibrated placement
/// policy (which is built around the factors) and off otherwise.
bool calibration_from(const Args& args, wsim::fleet::PlacementPolicy policy) {
  return args.given("calibrate") ? on_off(args, "calibrate")
                                 : policy == wsim::fleet::PlacementPolicy::kCalibrated;
}

int cmd_fleet_sim(const Args& args) {
  namespace fleet = wsim::fleet;
  configure_obs(args);
  fleet::FleetConfig fleet_cfg;
  fleet_cfg.workers = workers_from(args);
  fleet_cfg.policy = fleet::placement_policy_by_name(args.str("policy"));
  fleet_cfg.parallelism = fleet::parallelism_policy_by_name(args.str("parallelism"));
  // --kernel pins one SW subsystem fleet-wide: wf-* names force every SW
  // batch through that wavefront variant, plain names force task-per-block
  // with that communication design. Unknown names error listing the valid
  // vocabulary (sw_kernel_by_name).
  const std::string kernel = args.str("kernel");
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
  fleet_cfg.faults = faults_from(args);
  // DEV is a position in --fleet here; an index past its end would
  // silently degrade nothing. (cluster-sim takes any index: its device ids
  // grow as the autoscaler joins workers.)
  for (const wsim::fleet::DegradeSpec& spec : fleet_cfg.faults.degradations) {
    const std::size_t size = fleet_cfg.workers.size();
    check_input(static_cast<std::size_t>(spec.device) < size,
                "--degrade device " + std::to_string(spec.device) +
                    " is outside the fleet of " + std::to_string(size) +
                    " devices (DEV is the 0-based position in --fleet)");
  }
  fleet_cfg.calibration.enabled = calibration_from(args, fleet_cfg.policy);
  const Replay run = replay(args, fleet_cfg);
  const fleet::FleetStats& fleet_stats = run.fleet;

  std::cout << "Fleet: " << fleet_cfg.workers.size() << " devices, policy "
            << fleet::to_string(fleet_cfg.policy) << ", " << rate_and_delay(args)
            << (fleet_cfg.faults.enabled()
                    ? ", faults on (seed " + std::to_string(fleet_cfg.faults.seed) + ")"
                    : std::string())
            << "\n";
  print_service_stats(run, args.real("deadline"));

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
  const double duration = run.stats.duration_seconds();
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
  write_output(args, "json", "stats", [&](std::ostream& os) {
    wsim::serve::write_stats_json(os, run.stats, fleet_stats);
    os << '\n';
  });
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
  const std::string trace_in = args.str("trace");
  if (!trace_in.empty()) {
    trace = workload::load_trace(trace_in);
  } else {
    workload::TraceConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(args.integer("seed"));
    cfg.duration_seconds = args.real("duration");
    cfg.shape = workload::trace_shape_by_name(args.str("shape"));
    const long tenants = args.integer("tenants");
    const double rate = args.real("rate");
    for (long i = 0; i < tenants; ++i) {
      workload::TenantTraffic traffic;
      traffic.name = "tenant-" + std::to_string(i);
      traffic.rate_hz = rate / static_cast<double>(tenants);
      cfg.tenants.push_back(std::move(traffic));
    }
    trace = workload::generate_trace(cfg);
  }
  const std::string trace_out = args.str("save-trace");
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
  const auto ds = dataset_from(args);
  const wsim::workload::Trace trace = cluster_trace_from(args);

  cluster::ClusterConfig cfg;
  cfg.worker.device = wsim::simt::device_by_name(args.str("fleet-device"));
  pin_mode(args, cfg.worker);
  cfg.autoscaler.min_workers = static_cast<std::size_t>(args.integer("min"));
  cfg.autoscaler.max_workers = static_cast<std::size_t>(args.integer("max"));
  check_input(cfg.autoscaler.max_workers >= cfg.autoscaler.min_workers,
              "--max must be >= --min");
  cfg.autoscaler.enabled = on_off(args, "autoscaler");
  // With the control law off the fleet is fixed: min workers for the whole
  // run (pass --min = --max to size the fixed fleet).
  cfg.initial_workers = cfg.autoscaler.min_workers;
  cfg.control_interval_seconds = static_cast<double>(args.integer("interval")) * 1e-6;
  cfg.join_warmup_seconds = static_cast<double>(args.integer("warmup")) * 1e-6;
  cfg.autoscaler.target_backlog_seconds =
      static_cast<double>(args.integer("target-backlog")) * 1e-6;
  cfg.cost_per_device_hour = args.real("cost-hour");
  cfg.faults = faults_from(args);
  cfg.policy = fleet::placement_policy_by_name(args.str("policy"));
  cfg.calibration.enabled = calibration_from(args, cfg.policy);

  // Every trace tenant gets the same contract: an SLO class (--slo, in
  // milliseconds, 0 = none) and a queued-task quota (--quota, 0 = none).
  const double slo_seconds = args.real("slo") * 1e-3;
  const auto quota = static_cast<std::size_t>(args.integer("quota"));
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

  write_output(args, "json", "report", [&](std::ostream& os) {
    cluster::write_cluster_json(os, report);
    os << '\n';
  });
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
  const auto ds = dataset_from(args);
  const auto batch_size = static_cast<std::size_t>(args.integer("batch"));
  const auto sw_batches = wsim::workload::sw_rebatch(ds, batch_size);
  const auto ph_batches = wsim::workload::ph_rebatch(ds, batch_size);

  std::vector<double> probs;
  for (const std::string& item : split(args.str("flip-prob"), ',')) {
    if (!item.empty()) {
      probs.push_back(wsim::cli::parse_number<double>("flip-prob", item, 0.0, 1.0));
    }
  }
  check_input(!probs.empty(), "guard-sim: --flip-prob names no rates");
  const std::string detect = args.str("detect");
  std::vector<guard::DetectMode> modes = {
      guard::DetectMode::kNone, guard::DetectMode::kAbft, guard::DetectMode::kDual};
  if (detect != "all") {
    modes = {guard::detect_mode_by_name(detect)};
  }
  const auto workers = workers_from(args);
  const auto sdc_seed = static_cast<std::uint64_t>(args.integer("sdc-seed"));
  wsim::simt::ExecutionEngine engine(engine_options_from(args));

  // Runs every batch on the fleet guarded by `guard_cfg` and either
  // records the delivered fingerprints (baseline pass) or compares them
  // against the baseline's (sweep pass); returns the guard accounting. The
  // comparison is end-to-end bit-identity of everything the fleet
  // delivers, so it also penalizes corruption the ABFT validators cannot
  // see (e.g. traceback cells off the reported path).
  const auto run_all = [&](const guard::GuardConfig& guard_cfg,
                           std::vector<std::uint64_t>* record,
                           const std::vector<std::uint64_t>* baseline, GuardCell* cell) {
    fleet::FleetConfig cfg;
    cfg.workers = workers;
    cfg.engine = &engine;
    cfg.guard = guard_cfg;
    fleet::FleetExecutor executor(std::move(cfg));
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
    return executor.stats().guard;
  };

  std::vector<std::uint64_t> baseline;
  run_all({}, &baseline, nullptr, nullptr);

  std::vector<GuardCell> cells;
  for (const double prob : probs) {
    for (const guard::DetectMode mode : modes) {
      guard::GuardConfig guard_cfg;
      guard_cfg.detect = mode;
      guard_cfg.sdc.seed = sdc_seed;
      guard_cfg.sdc.flip_prob = prob;
      GuardCell cell;
      cell.flip_prob = prob;
      cell.mode = mode;
      cell.batches = sw_batches.size() + ph_batches.size();
      cell.stats = run_all(guard_cfg, nullptr, &baseline, &cell);
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

  write_output(args, "json", "sweep", [&](std::ostream& os) {
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
  });
  write_obs_outputs(args);
  return 0;
}

int usage_error() {
  std::cerr << wsim::cli::usage_text();
  return 2;
}

using Handler = int (*)(const Args&);

/// Dispatch table in wsim::cli::commands() order; main() checks the two
/// agree name for name at startup, so the registry (and therefore the help
/// text and the drift test) can never silently diverge from what runs.
constexpr std::pair<std::string_view, Handler> kHandlers[] = {
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

}  // namespace

int main(int argc, char** argv) {
  const auto& registry = wsim::cli::commands();
  const auto same_name = [](const wsim::cli::CommandInfo& info, const auto& handler) {
    return info.name == handler.first;
  };
  wsim::util::require(std::equal(registry.begin(), registry.end(), std::begin(kHandlers),
                                 std::end(kHandlers), same_name),
                      "wsim: dispatch table and wsim::cli registry differ");
  if (argc < 2) {
    return usage_error();
  }
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    std::cout << wsim::cli::usage_text();
    return 0;
  }
  const auto it = std::find_if(std::begin(kHandlers), std::end(kHandlers),
                               [&](const auto& h) { return h.first == command; });
  if (it == std::end(kHandlers)) {
    std::cerr << "unknown command '" << command << "'\n";
    return usage_error();
  }
  try {
    const Args args = wsim::cli::parse(command, {argv + 2, argv + argc});
    // The interpreter knob routes through the WSIM_INTERP environment
    // variable so every launch in the process — including engines built by
    // library code — resolves the same path (simt::resolve_interp_path).
    // An inherited value is validated too: the library treats unknown names
    // as the default, which would silently ignore a typo.
    const std::string interp = args.str("interp");
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
    return it->second(args);
  } catch (const wsim::cli::UsageError& e) {
    std::cerr << "error: " << e.what() << "\nusage:\n"
              << wsim::cli::command_help(wsim::cli::command(command));
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
