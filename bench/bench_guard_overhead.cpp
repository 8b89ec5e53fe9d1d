// Resilience-overhead bench: what does screening every delivered batch
// cost? Sweeps the guard's detection modes over the formed SW + PairHMM
// batches of the standard dataset on the heterogeneous two-device fleet:
//
//   * none / abft / dual at flip_prob = 0 — the pure verification tax.
//     ABFT re-reads the outputs on the host (O(output) invariants); dual
//     re-executes every batch, so its simulated device time roughly
//     doubles and the delivered-work GCUPS halves.
//   * dual at flip_prob = 3e-7 — a recovery point: injected corruptions
//     are detected, flagged batches re-execute (escalating across
//     devices), and the extra runs show up as reexecutions/cpu_fallbacks
//     and as added makespan.
//
// Besides the ASCII table (and the WSIM_CSV_DIR mirror), the sweep is
// written to BENCH_guard.json in the working directory. `--smoke` shrinks
// the dataset for CI.

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "wsim/fleet/fleet.hpp"
#include "wsim/guard/guard.hpp"
#include "wsim/obs/json.hpp"
#include "wsim/util/table.hpp"
#include "wsim/workload/batching.hpp"

namespace {

namespace fleet = wsim::fleet;
namespace guard = wsim::guard;
using wsim::util::format_fixed;

struct SweepPoint {
  std::string detect;
  double flip_prob = 0.0;
  std::size_t batches = 0;
  std::size_t cells = 0;
  double makespan_s = 0.0;
  double gcups = 0.0;          ///< delivered cells / simulated makespan
  double overhead = 0.0;       ///< makespan / unguarded makespan
  double host_seconds = 0.0;   ///< wall-clock cost of simulating the point
  guard::GuardStats stats;
};

using wsim::obs::json_number;

void write_json(const std::string& path, const std::vector<SweepPoint>& points) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << '\n';
    return;
  }
  out << "{\n  \"bench\": \"guard_overhead\",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    out << "    {\"detect\": \"" << p.detect
        << "\", \"flip_prob\": " << json_number(p.flip_prob)
        << ", \"batches\": " << p.batches << ", \"cells\": " << p.cells
        << ", \"makespan_s\": " << json_number(p.makespan_s)
        << ", \"gcups\": " << json_number(p.gcups)
        << ", \"overhead\": " << json_number(p.overhead)
        << ", \"host_seconds\": " << json_number(p.host_seconds)
        << ", \"sdc_flips\": " << p.stats.sdc_flips
        << ", \"sdc_detected\": " << p.stats.sdc_detected
        << ", \"sdc_corrected\": " << p.stats.sdc_corrected
        << ", \"sdc_masked\": " << p.stats.sdc_masked
        << ", \"reexecutions\": " << p.stats.reexecutions
        << ", \"cpu_fallbacks\": " << p.stats.cpu_fallbacks
        << ", \"watchdog_timeouts\": " << p.stats.watchdog_timeouts << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "(json written to " << path << ")\n";
}

SweepPoint run_point(guard::DetectMode detect, double flip_prob,
                     const std::vector<wsim::workload::SwBatch>& sw_batches,
                     const std::vector<wsim::workload::PhBatch>& ph_batches) {
  fleet::FleetConfig cfg;
  for (const auto& device : wsim::bench::evaluation_devices()) {
    fleet::WorkerConfig wc;
    wc.device = device;
    wc.max_pending_batches = static_cast<std::size_t>(1) << 20;
    cfg.workers.push_back(std::move(wc));
  }
  cfg.engine = &wsim::bench::bench_engine();
  cfg.guard.detect = detect;
  cfg.guard.sdc.seed = 7;
  cfg.guard.sdc.flip_prob = flip_prob;
  fleet::FleetExecutor executor(std::move(cfg));

  const auto wall_start = std::chrono::steady_clock::now();
  for (const auto& batch : sw_batches) {
    (void)executor.execute_sw(batch, 0.0, {});
  }
  for (const auto& batch : ph_batches) {
    (void)executor.execute_ph(batch, 0.0, {});
  }
  const auto stats = executor.stats();

  SweepPoint point;
  point.detect = std::string(guard::to_string(detect));
  point.flip_prob = flip_prob;
  point.batches = sw_batches.size() + ph_batches.size();
  // Delivered work only: stats.total_cells() also counts re-executions,
  // which are overhead, not throughput.
  point.cells = 0;
  for (const auto& batch : sw_batches) {
    point.cells += wsim::workload::batch_cells(batch);
  }
  for (const auto& batch : ph_batches) {
    point.cells += wsim::workload::batch_cells(batch);
  }
  point.makespan_s = executor.all_free_at();
  point.gcups = point.makespan_s > 0.0
                    ? static_cast<double>(point.cells) / point.makespan_s / 1e9
                    : 0.0;
  point.host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  point.stats = stats.guard;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  wsim::bench::banner("Ablation", "result-verification (guard) overhead");

  auto gen = wsim::bench::standard_dataset_config();
  gen.regions = smoke ? 3 : 24;
  const auto dataset = wsim::workload::generate_dataset(gen);
  const std::size_t batch_size = smoke ? 32 : 96;
  const auto sw_batches = wsim::workload::sw_rebatch(dataset, batch_size);
  const auto ph_batches = wsim::workload::ph_rebatch(dataset, batch_size);

  struct Cell {
    guard::DetectMode detect;
    double flip_prob;
  };
  const std::vector<Cell> cells = {
      {guard::DetectMode::kNone, 0.0},
      {guard::DetectMode::kAbft, 0.0},
      {guard::DetectMode::kDual, 0.0},
      {guard::DetectMode::kDual, 3e-7},  // recovery point
  };

  std::vector<SweepPoint> points;
  for (const auto& cell : cells) {
    points.push_back(run_point(cell.detect, cell.flip_prob, sw_batches, ph_batches));
  }
  const double base_makespan = points.front().makespan_s;
  for (auto& p : points) {
    p.overhead = base_makespan > 0.0 ? p.makespan_s / base_makespan : 0.0;
  }

  wsim::util::Table table({"detect", "flip prob", "makespan", "GCUPS", "overhead",
                           "flips", "detected", "corrected", "re-exec", "cpu"});
  for (const auto& p : points) {
    table.add_row({p.detect, json_number(p.flip_prob),
                   format_fixed(p.makespan_s * 1e3, 2) + " ms",
                   format_fixed(p.gcups, 2), format_fixed(p.overhead, 2) + "x",
                   std::to_string(p.stats.sdc_flips),
                   std::to_string(p.stats.sdc_detected),
                   std::to_string(p.stats.sdc_corrected),
                   std::to_string(p.stats.reexecutions),
                   std::to_string(p.stats.cpu_fallbacks)});
  }
  table.print(std::cout);
  wsim::bench::maybe_write_csv("guard_overhead", table);
  write_json("BENCH_guard.json", points);

  std::cout << "\nExpected shape: abft verification is nearly free (host-side\n"
               "invariant checks); dual execution roughly doubles device time\n"
               "(overhead ~2x, GCUPS ~half); the injected point adds re-runs\n"
               "for flagged batches on top of the dual baseline.\n";
  return 0;
}
