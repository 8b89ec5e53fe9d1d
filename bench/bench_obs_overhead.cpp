// Host-side cost of the observability layer (wsim::obs) at each level:
//
//   * off     — obs disabled; measured twice (off / off2) so the reported
//     "disabled overhead" is the run-to-run delta of the guarded no-op
//     path, i.e. it must sit inside measurement noise;
//   * metrics — counters/gauges/histograms live, no event recording;
//   * trace   — full span/event recording into the sharded rings.
//
// Each case pushes the same SW and PairHMM batches through a single-device
// FleetExecutor (dispatch, guard hooks, engine launch, readback) — the
// instrumented end-to-end path a serving run exercises. Results land in
// BENCH_obs.json. The whole design rests on kOff being a
// branch-predictable no-op, so exit status is non-zero when a kOff pass
// records an event or moves an instrument (checked exactly, per case) or
// when the disabled-mode delta exceeds the noise gate.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "wsim/fleet/fleet.hpp"
#include "wsim/obs/json.hpp"
#include "wsim/obs/metrics.hpp"
#include "wsim/obs/obs.hpp"
#include "wsim/util/table.hpp"
#include "wsim/workload/batching.hpp"
#include "wsim/workload/generator.hpp"

namespace {

namespace obs = wsim::obs;
using wsim::util::format_fixed;

/// Wall time of `reps` calls to `body`.
template <typename F>
double time_once(int reps, F&& body) {
  const auto begin = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    body();
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - begin;
  return elapsed.count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

struct CaseResult {
  std::string name;            ///< "sw" or "pairhmm"
  /// Why a kOff pass was not inert (check_off_pass_inert); empty when it
  /// was.
  std::string off_pass_error;
  double off_seconds = 0.0;    ///< median over trials, level kOff (first)
  double off2_seconds = 0.0;   ///< median over trials, level kOff (second)
  double metrics_seconds = 0.0;
  double trace_seconds = 0.0;
  /// Per-trial paired deltas vs that trial's own off measurement — the
  /// pairing cancels slow drift (thermal, scheduler) that a cross-trial
  /// min/median comparison would mistake for overhead.
  std::vector<double> disabled_deltas_pct;
  std::vector<double> metrics_deltas_pct;
  std::vector<double> trace_deltas_pct;

  /// Disabled-mode delta between two identical runs in the same trial
  /// (noise-floor proxy; clamped at 0 — a faster second run is
  /// trivially within noise).
  double disabled_overhead_pct() const {
    return std::max(0.0, median(disabled_deltas_pct));
  }
  double metrics_overhead_pct() const { return median(metrics_deltas_pct); }
  double trace_overhead_pct() const { return median(trace_deltas_pct); }
};

wsim::fleet::FleetExecutor make_executor() {
  wsim::fleet::FleetConfig cfg;
  wsim::fleet::WorkerConfig wc;
  wc.device = wsim::simt::make_k1200();
  cfg.workers = {wc};
  cfg.engine = &wsim::bench::bench_engine();
  return wsim::fleet::FleetExecutor(std::move(cfg));
}

/// One end-to-end pass: every batch dispatched back-to-back on the
/// executor's simulated timeline. The executor is rebuilt per call so each
/// rep replays the identical dispatch sequence.
double run_sw_pass(const std::vector<wsim::workload::SwBatch>& batches) {
  auto executor = make_executor();
  double t = 0.0;
  double checksum = 0.0;
  for (const auto& batch : batches) {
    obs::set_sim_time(t);
    const auto exec = executor.execute_sw(batch, t, {});
    t = exec.exec.completion_time;
    checksum += exec.exec.service_seconds;
  }
  return checksum;
}

double run_ph_pass(const std::vector<wsim::workload::PhBatch>& batches) {
  auto executor = make_executor();
  double t = 0.0;
  double checksum = 0.0;
  for (const auto& batch : batches) {
    obs::set_sim_time(t);
    const auto exec = executor.execute_ph(batch, t, {});
    t = exec.exec.completion_time;
    checksum += exec.exec.service_seconds;
  }
  return checksum;
}

volatile double g_sink = 0.0;  // defeats whole-pass elision

std::string metrics_dump() {
  std::ostringstream os;
  obs::write_metrics_json(os);
  return os.str();
}

/// Checks exactly what the timed gate stands for: a pass at kOff records
/// no event and moves no instrument, while the same pass at kMetrics moves
/// some, so the comparison could see an update. Call it after a warm-up
/// pass, which registers every instrument the pass reaches. Returns why
/// the check failed, or an empty string.
template <typename F>
std::string check_off_pass_inert(F&& pass) {
  obs::reset();
  const std::string before = metrics_dump();
  obs::set_level(obs::Level::kOff);
  g_sink = pass();
  std::string error;
  if (!obs::collect().empty()) {
    error = "a kOff pass recorded events";
  } else if (metrics_dump() != before) {
    error = "a kOff pass moved an instrument";
  }
  obs::set_level(obs::Level::kMetrics);
  g_sink = pass();
  if (error.empty() && metrics_dump() == before) {
    error = "a kMetrics pass moved no instrument, so the comparison sees nothing";
  }
  obs::set_level(obs::Level::kOff);
  obs::reset();
  return error;
}

template <typename F>
CaseResult run_case(const std::string& name, int trials, int reps, F&& pass) {
  CaseResult result;
  result.name = name;

  // Interleave the four level measurements inside each trial and compare
  // each level against the SAME trial's off measurement: scheduler and
  // frequency drift hits the whole trial equally, so the paired deltas
  // reflect the level, not when it ran. off and off2 are the SAME
  // configuration measured at different loop positions — their delta is
  // the noise floor the gate checks.
  const auto measure = [&](obs::Level level) {
    obs::set_level(level);
    obs::reset();
    const double seconds = time_once(reps, [&] { g_sink = pass(); });
    obs::reset();
    return seconds;
  };

  obs::set_level(obs::Level::kOff);
  g_sink = pass();  // warm-up (arenas, decode cache, page-in)
  result.off_pass_error = check_off_pass_inert(pass);

  std::vector<double> off_all;
  std::vector<double> off2_all;
  std::vector<double> metrics_all;
  std::vector<double> trace_all;
  for (int t = 0; t < trials; ++t) {
    const double off = measure(obs::Level::kOff);
    const double metrics = measure(obs::Level::kMetrics);
    const double trace = measure(obs::Level::kTrace);
    const double off2 = measure(obs::Level::kOff);
    off_all.push_back(off);
    off2_all.push_back(off2);
    metrics_all.push_back(metrics);
    trace_all.push_back(trace);
    result.disabled_deltas_pct.push_back((off2 - off) / off * 100.0);
    result.metrics_deltas_pct.push_back((metrics - off) / off * 100.0);
    result.trace_deltas_pct.push_back((trace - off) / off * 100.0);
  }
  result.off_seconds = median(off_all);
  result.off2_seconds = median(off2_all);
  result.metrics_seconds = median(metrics_all);
  result.trace_seconds = median(trace_all);
  obs::set_level(obs::Level::kOff);
  return result;
}

using wsim::obs::json_number;

void write_json(const std::string& path, const std::vector<CaseResult>& results,
                double disabled_gate_pct, bool smoke) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << '\n';
    return;
  }
  out << "{\n  \"bench\": \"obs_overhead\",\n  \"smoke\": "
      << (smoke ? "true" : "false")
      << ",\n  \"disabled_gate_pct\": " << json_number(disabled_gate_pct)
      << ",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    out << "    {\"case\": \"" << r.name << "\", \"off_pass_inert\": "
        << (r.off_pass_error.empty() ? "true" : "false")
        << ", \"off_seconds\": " << json_number(r.off_seconds)
        << ", \"off2_seconds\": " << json_number(r.off2_seconds)
        << ", \"metrics_seconds\": " << json_number(r.metrics_seconds)
        << ", \"trace_seconds\": " << json_number(r.trace_seconds)
        << ", \"disabled_overhead_pct\": "
        << json_number(r.disabled_overhead_pct())
        << ", \"metrics_overhead_pct\": "
        << json_number(r.metrics_overhead_pct())
        << ", \"trace_overhead_pct\": " << json_number(r.trace_overhead_pct())
        << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  double worst = 0.0;
  for (const CaseResult& r : results) {
    worst = std::max(worst, r.disabled_overhead_pct());
  }
  out << "  ],\n  \"disabled_overhead_pct\": " << json_number(worst)
      << "\n}\n";
  std::cout << "wrote " << path << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    }
  }
  wsim::bench::banner("the observability-overhead gate",
                      "wsim::obs disabled / metrics / trace levels");

  // Smoke runs shrink the work but keep every trial: the gate is a median
  // of per-trial paired deltas, and with fewer trials one host-noise burst
  // decides it.
  const int trials = 7;
  const int reps = smoke ? 1 : 2;

  auto cfg = wsim::bench::standard_dataset_config();
  cfg.regions = smoke ? 2 : 4;
  const auto dataset = wsim::workload::generate_dataset(cfg);
  const auto sw_batches = wsim::workload::sw_rebatch(dataset, smoke ? 4 : 8);
  const auto ph_batches = wsim::workload::ph_rebatch(dataset, smoke ? 8 : 16);

  std::vector<CaseResult> results;
  results.push_back(
      run_case("sw", trials, reps, [&] { return run_sw_pass(sw_batches); }));
  results.push_back(
      run_case("pairhmm", trials, reps, [&] { return run_ph_pass(ph_batches); }));

  wsim::util::Table table({"case", "off (ms)", "off2 (ms)", "metrics (ms)",
                           "trace (ms)", "disabled %", "metrics %", "trace %"});
  for (const CaseResult& r : results) {
    table.add_row({r.name, format_fixed(r.off_seconds * 1e3, 2),
                   format_fixed(r.off2_seconds * 1e3, 2),
                   format_fixed(r.metrics_seconds * 1e3, 2),
                   format_fixed(r.trace_seconds * 1e3, 2),
                   format_fixed(r.disabled_overhead_pct(), 2),
                   format_fixed(r.metrics_overhead_pct(), 2),
                   format_fixed(r.trace_overhead_pct(), 2)});
  }
  table.print(std::cout);
  wsim::bench::maybe_write_csv("obs_overhead", table);

  // Gate: the disabled level must be indistinguishable from not having
  // obs at all. Best-of-N timing still jitters on shared CI runners, so
  // the gate is a small noise band rather than exactly 0.
  const double gate_pct = 3.0;
  write_json("BENCH_obs.json", results, gate_pct, smoke);

  bool ok = true;
  for (const CaseResult& r : results) {
    if (!r.off_pass_error.empty()) {
      std::cerr << "FAIL: " << r.name << ": " << r.off_pass_error << '\n';
      ok = false;
    }
    if (r.disabled_overhead_pct() > gate_pct) {
      std::cerr << "FAIL: " << r.name << ": obs-disabled runs differ by "
                << format_fixed(r.disabled_overhead_pct(), 2) << "% (gate "
                << format_fixed(gate_pct, 1) << "%)\n";
      ok = false;
    }
  }
  std::cout << (ok ? "obs-disabled overhead within noise\n" : "");
  return ok ? 0 : 1;
}
