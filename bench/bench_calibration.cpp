// Online-calibration proof bench: the silent-degradation disaster and its
// drift-aware recovery, measured end to end on the heterogeneous
// K40 + K1200 + Titan X fleet.
//
// The production-realistic kCalibrated policy never reads the simulator's
// oracle device-free times — each device's backlog is the sum of its own
// factor-corrected predicted batch seconds. Three calibration modes frame
// the story:
//
//   * off     — raw Eq. 7/8 placement. The per-device model biases spread
//               ~1.8x across this fleet, so even the healthy placement is
//               badly unbalanced: context, not the baseline.
//   * static  — calibrate-once-at-deploy (freeze_after_warmup): factors
//               seed from the warm-up mean and freeze. Healthy placement
//               is good — and a silently degraded card keeps receiving its
//               healthy-rate share to the very end. This is the honest
//               disaster every real deployment with one-shot calibration
//               ships.
//   * online  — the full ladder: EWMA factors track the residuals, the
//               CUSUM/baseline-drift detectors derate the card (snapping
//               its factor to the post-onset evidence and propagating the
//               drift to its other kernel classes), and placement steers
//               work away while probes keep requalification possible.
//
//   recovery = (M_degr_static - M_degr_online) / (M_degr_static - M_healthy_online)
//
// Contracts checked (CI runs --smoke): recovery >= 0.7, zero false
// derates/quarantines on the healthy fleet, and bit-identical SW outputs
// with calibration on vs off. Ramp (kProgressive) and flap (kFlapping)
// points prove the detectors catch step-free drift and that flapping
// devices requalify instead of dying in quarantine. Results land in
// BENCH_calib.json.

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
using wsim::util::format_fixed;

struct CalibPoint {
  std::string scenario;
  std::string policy;
  std::string cal_mode;     ///< "off" | "static" | "online"
  std::string degradation;  ///< "none" | "stuck" | "ramp" | "flap"
  double makespan_s = 0.0;
  double gcups = 0.0;
  std::size_t drift_suspects = 0;
  std::size_t derates = 0;
  std::size_t requalifications = 0;
  std::size_t probes = 0;
  std::size_t quarantines = 0;
  std::vector<double> factors;       ///< per-device dominant factor at end
  std::vector<std::string> states;   ///< per-device drift state at end
  std::vector<double> busy_seconds;  ///< per-device (capacity-share probe)
  std::vector<std::size_t> batches;  ///< per-device dispatch counts
};

using wsim::obs::json_number;

void write_json(const std::string& path, const std::vector<CalibPoint>& points,
                double recovery, std::size_t false_derates,
                std::size_t false_quarantines, bool outputs_identical) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << '\n';
    return;
  }
  out << "{\n  \"bench\": \"calibration\",\n"
      << "  \"recovery\": " << json_number(recovery) << ",\n"
      << "  \"false_derates_healthy\": " << false_derates << ",\n"
      << "  \"false_quarantines_healthy\": " << false_quarantines << ",\n"
      << "  \"outputs_identical_on_vs_off\": "
      << (outputs_identical ? "true" : "false") << ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    out << "    {\"scenario\": \"" << p.scenario << "\", \"policy\": \""
        << p.policy << "\", \"calibration\": \"" << p.cal_mode
        << "\", \"degradation\": \""
        << p.degradation << "\", \"makespan_s\": " << json_number(p.makespan_s)
        << ", \"gcups\": " << json_number(p.gcups)
        << ", \"drift_suspects\": " << p.drift_suspects
        << ", \"derates\": " << p.derates
        << ", \"requalifications\": " << p.requalifications
        << ", \"probes\": " << p.probes
        << ", \"quarantines\": " << p.quarantines << ", \"factors\": [";
    for (std::size_t d = 0; d < p.factors.size(); ++d) {
      out << json_number(p.factors[d]) << (d + 1 < p.factors.size() ? ", " : "");
    }
    out << "], \"drift_states\": [";
    for (std::size_t d = 0; d < p.states.size(); ++d) {
      out << '"' << p.states[d] << '"' << (d + 1 < p.states.size() ? ", " : "");
    }
    out << "]}" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "(json written to " << path << ")\n";
}

/// Calibration modes the scenarios sweep.
enum class CalMode { kOff, kStatic, kOnline };

std::string to_string(CalMode mode) {
  switch (mode) {
    case CalMode::kOff:
      return "off";
    case CalMode::kStatic:
      return "static";
    case CalMode::kOnline:
      return "online";
  }
  return "?";
}

/// One full offline dispatch of the dataset through a fresh fleet.
CalibPoint run_point(const std::string& scenario,
                     fleet::PlacementPolicy policy, CalMode mode,
                     const std::vector<wsim::simt::DeviceSpec>& devices,
                     const std::vector<wsim::workload::SwBatch>& sw_batches,
                     const std::vector<wsim::workload::PhBatch>& ph_batches,
                     const fleet::FaultPlan& faults,
                     const std::string& degradation) {
  fleet::FleetConfig cfg;
  for (const auto& device : devices) {
    fleet::WorkerConfig wc;
    wc.device = device;
    wc.max_pending_batches = static_cast<std::size_t>(1) << 20;
    cfg.workers.push_back(std::move(wc));
  }
  cfg.policy = policy;
  cfg.faults = faults;
  cfg.calibration.enabled = mode != CalMode::kOff;
  cfg.calibration.freeze_after_warmup = mode == CalMode::kStatic;
  cfg.engine = &wsim::bench::bench_engine();
  fleet::FleetExecutor executor(std::move(cfg));

  // Interleave the two kernels (the serving layer's steady state) instead
  // of dispatching all SW first: every device's dispatch sequence then
  // samples both calibration classes throughout the run, and a degradation
  // onset in per-device sequence space hits a representative mix of work.
  fleet::ExecOptions opt;
  opt.collect_outputs = false;
  std::size_t i_sw = 0;
  std::size_t i_ph = 0;
  while (i_sw < sw_batches.size() || i_ph < ph_batches.size()) {
    const bool want_sw =
        i_sw < sw_batches.size() &&
        (i_ph >= ph_batches.size() || (i_sw + i_ph) % 3 == 0);
    if (want_sw) {
      (void)executor.execute_sw(sw_batches[i_sw++], 0.0, opt);
    } else {
      (void)executor.execute_ph(ph_batches[i_ph++], 0.0, opt);
    }
  }

  const auto stats = executor.stats();
  CalibPoint point;
  point.scenario = scenario;
  point.policy = std::string(fleet::to_string(policy));
  point.cal_mode = to_string(mode);
  point.degradation = degradation;
  point.makespan_s = executor.all_free_at();
  point.gcups = point.makespan_s > 0.0
                    ? static_cast<double>(stats.total_cells()) /
                          point.makespan_s / 1e9
                    : 0.0;
  for (const auto& d : stats.devices) {
    point.drift_suspects += d.drift_suspects;
    point.derates += d.derates;
    point.requalifications += d.requalifications;
    point.probes += d.probes;
    point.quarantines += d.quarantines;
    point.factors.push_back(d.calibration_factor);
    point.states.emplace_back(fleet::to_string(d.drift_state));
    point.busy_seconds.push_back(d.busy_seconds);
    point.batches.push_back(d.batches);
  }
  return point;
}

/// Fingerprint of every SW batch's outputs under one configuration — the
/// bit-identity probe. Values must not depend on the calibration switch.
std::uint64_t outputs_fingerprint(
    bool calibration, const std::vector<wsim::simt::DeviceSpec>& devices,
    const std::vector<wsim::workload::SwBatch>& sw_batches) {
  fleet::FleetConfig cfg;
  for (const auto& device : devices) {
    fleet::WorkerConfig wc;
    wc.device = device;
    wc.max_pending_batches = static_cast<std::size_t>(1) << 20;
    cfg.workers.push_back(std::move(wc));
  }
  cfg.policy = fleet::PlacementPolicy::kCalibrated;
  cfg.calibration.enabled = calibration;
  cfg.engine = &wsim::bench::bench_engine();
  fleet::FleetExecutor executor(std::move(cfg));
  fleet::ExecOptions opt;
  opt.collect_outputs = true;
  std::uint64_t print = 0x9e3779b97f4a7c15ULL;
  for (const auto& batch : sw_batches) {
    const auto out = executor.execute_sw(batch, 0.0, opt);
    const std::uint64_t h = wsim::guard::fingerprint_sw(out.result.outputs);
    print ^= h + 0x9e3779b97f4a7c15ULL + (print << 6) + (print >> 2);
  }
  return print;
}

fleet::FaultPlan degrade(int device, fleet::DegradeKind kind, double factor,
                         std::uint64_t onset, std::uint64_t ramp,
                         std::uint64_t period) {
  fleet::FaultPlan plan;
  fleet::DegradeSpec spec;
  spec.device = device;
  spec.kind = kind;
  spec.factor = factor;
  spec.onset_seq = onset;
  spec.ramp_batches = ramp;
  spec.period = period;
  plan.degradations.push_back(spec);
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  wsim::bench::banner("calibration extension",
                      "online model calibration and drift-aware recovery");

  auto gen = wsim::bench::standard_dataset_config();
  // The workload is identical in --smoke (only the bit-identity probe set
  // shrinks): the drift scenarios are phase-sensitive — warm-up, onset,
  // flap periods, and requalification streaks all live in per-device
  // dispatch-sequence space — and a shrunken run would move the contracts.
  gen.regions = 32;
  // Heavier SW share and smaller batches than the fleet bench: calibration
  // needs enough observations per (device, kernel class) to warm up, drift
  // onsets to land mid-run, and windows to confirm.
  gen.sw_tasks_per_region_mean = 96.0;
  gen.sw_query_len_min = 32;
  gen.sw_query_len_max = 512;
  gen.sw_target_len_min = 64;
  gen.sw_target_len_max = 640;
  gen.hap_len_min = 32;
  gen.hap_len_max = 320;
  const auto dataset = wsim::workload::generate_dataset(gen);
  const std::size_t batch_size = 32;
  const auto sw_batches = wsim::workload::sw_rebatch(dataset, batch_size);
  const auto ph_batches = wsim::workload::ph_rebatch(dataset, batch_size);
  std::cout << "dataset: " << sw_batches.size() << " SW + " << ph_batches.size()
            << " PairHMM batches (rebatch " << batch_size << ")\n\n";

  const std::vector<wsim::simt::DeviceSpec> devices = {
      wsim::simt::make_k40(), wsim::simt::make_k1200(),
      wsim::simt::make_titan_x()};
  // The degraded card: the K40. Recovering >= 70% of the lost makespan is
  // only possible when the healthy remainder holds most of the fleet's
  // true capacity — the capacity-share probe below prints the bound. The
  // ramp/flap points reuse the same card.
  const int kSick = 0;
  // Degradation sets in after both per-class warm-ups (min_samples
  // observations each; SW is every third dispatch) so the CUSUM sees a
  // genuine step against a clean baseline, not a biased one.
  const std::uint64_t kOnset = 26;
  // Quarter-speed: the half-clocked card that also dropped a PCIe
  // generation. Harsh enough that blind spec-rate routing is a disaster.
  const double kFactor = 4.0;

  std::vector<CalibPoint> points;
  const auto record = [&](CalibPoint p) {
    points.push_back(std::move(p));
    return points.back();
  };

  // Raw Eq. 7/8 placement: context only. The healthy per-device biases are
  // large enough (about 15x, 8.5x, 10x) that this placement is unbalanced
  // even before anything degrades.
  const auto healthy_off =
      record(run_point("model-only", fleet::PlacementPolicy::kCalibrated,
                       CalMode::kOff, devices, sw_batches, ph_batches, {},
                       "none"));
  const auto healthy_static = record(
      run_point("healthy+static", fleet::PlacementPolicy::kCalibrated,
                CalMode::kStatic, devices, sw_batches, ph_batches, {}, "none"));
  const auto healthy_on = record(
      run_point("healthy+online", fleet::PlacementPolicy::kCalibrated,
                CalMode::kOnline, devices, sw_batches, ph_batches, {}, "none"));
  const fleet::FaultPlan stuck =
      degrade(kSick, fleet::DegradeKind::kStuckSlow, kFactor, kOnset, 0, 0);
  // The disaster baseline: deploy-time calibration routes well until the
  // onset, then keeps feeding the sick card its healthy-rate share forever.
  const auto degraded_static =
      record(run_point("degraded+static", fleet::PlacementPolicy::kCalibrated,
                       CalMode::kStatic, devices, sw_batches, ph_batches, stuck,
                       "stuck"));
  const auto degraded_on =
      record(run_point("degraded+online", fleet::PlacementPolicy::kCalibrated,
                       CalMode::kOnline, devices, sw_batches, ph_batches, stuck,
                       "stuck"));
  // Legacy reference: oracle-feedback model placement under the same
  // degradation — the point PR earlier benches called "model+degraded".
  const auto model_degraded = record(
      run_point("model+degraded", fleet::PlacementPolicy::kModelGuided,
                CalMode::kOff, devices, sw_batches, ph_batches, stuck, "stuck"));
  // Step-free drift: a slow thermal ramp the CUSUM cannot see — only the
  // baseline-drift check catches it.
  const auto ramp_on = record(
      run_point("ramp+online", fleet::PlacementPolicy::kCalibrated,
                CalMode::kOnline, devices, sw_batches, ph_batches,
                degrade(kSick, fleet::DegradeKind::kProgressive, kFactor,
                        kOnset, /*ramp=*/96, 0),
                "ramp"));
  // Flapping: degraded and healthy phases alternate (half-period 20
  // dispatches — the healthy phase must hold a requalification streak);
  // the ladder must derate during the sick phases and requalify during the
  // healthy ones — never hard-quarantine a card that keeps coming back.
  const auto flap_on = record(
      run_point("flap+online", fleet::PlacementPolicy::kCalibrated,
                CalMode::kOnline, devices, sw_batches, ph_batches,
                degrade(kSick, fleet::DegradeKind::kFlapping, 2.0, kOnset, 0,
                        /*period=*/20),
                "flap"));

  wsim::util::Table table({"scenario", "policy", "cal", "degrade",
                           "makespan (ms)", "suspects", "derates", "requal",
                           "quarantines", "factors"});
  for (const auto& p : points) {
    std::string factors;
    for (const double f : p.factors) {
      if (!factors.empty()) {
        factors += ' ';
      }
      factors += format_fixed(f, 2);
    }
    table.add_row({p.scenario, p.policy, p.cal_mode,
                   p.degradation, format_fixed(p.makespan_s * 1e3, 3),
                   std::to_string(p.drift_suspects),
                   std::to_string(p.derates),
                   std::to_string(p.requalifications),
                   std::to_string(p.quarantines), factors});
  }
  table.print(std::cout);

  wsim::util::Table detail(
      {"scenario", "busy (ms)", "batches", "probes", "states"});
  for (const auto& p : points) {
    std::string busy;
    std::string counts;
    std::string states;
    for (std::size_t d = 0; d < p.busy_seconds.size(); ++d) {
      if (d > 0) {
        busy += ' ';
        counts += ' ';
        states += ' ';
      }
      busy += format_fixed(p.busy_seconds[d] * 1e3, 1);
      counts += std::to_string(p.batches[d]);
      states += p.states[d];
    }
    detail.add_row({p.scenario, busy, counts, std::to_string(p.probes), states});
  }
  detail.print(std::cout);

  // Capacity-share probe (healthy, online calibration): how much of the
  // fleet's true throughput the sick card holds — the recovery bound.
  double busy_total = 0.0;
  for (const double b : healthy_on.busy_seconds) {
    busy_total += b;
  }
  std::cout << "\ncapacity shares (healthy, online-calibrated placement):";
  for (std::size_t d = 0; d < devices.size(); ++d) {
    std::cout << ' ' << devices[d].name << ' '
              << format_fixed(100.0 * healthy_on.busy_seconds[d] / busy_total,
                              1)
              << '%';
  }
  std::cout << '\n';

  const double lost = degraded_static.makespan_s - healthy_on.makespan_s;
  const double recovered = degraded_static.makespan_s - degraded_on.makespan_s;
  const double recovery = lost > 0.0 ? recovered / lost : 0.0;
  std::cout << "\nrecovery: degraded+static "
            << format_fixed(degraded_static.makespan_s * 1e3, 3)
            << " ms -> degraded+online "
            << format_fixed(degraded_on.makespan_s * 1e3, 3)
            << " ms (healthy+online "
            << format_fixed(healthy_on.makespan_s * 1e3, 3)
            << " ms): " << format_fixed(recovery * 100.0, 1)
            << "% of the lost makespan\n"
            << "legacy oracle-feedback reference (model+degraded): "
            << format_fixed(model_degraded.makespan_s * 1e3, 3) << " ms\n";

  // Bit-identity: calibration moves placement and time, never values.
  const std::size_t identity_batches = smoke ? 4 : 8;
  const std::vector<wsim::workload::SwBatch> identity_set(
      sw_batches.begin(),
      sw_batches.begin() +
          static_cast<std::ptrdiff_t>(
              std::min(identity_batches, sw_batches.size())));
  const std::uint64_t print_off =
      outputs_fingerprint(false, devices, identity_set);
  const std::uint64_t print_on =
      outputs_fingerprint(true, devices, identity_set);
  const bool outputs_identical = print_off == print_on;
  std::cout << "outputs fingerprint (cal off/on): " << std::hex << print_off
            << " / " << print_on << std::dec
            << (outputs_identical ? " (identical)" : " (MISMATCH)") << '\n';

  wsim::bench::maybe_write_csv("calibration", table);
  write_json("BENCH_calib.json", points, recovery, healthy_on.derates,
             healthy_on.quarantines, outputs_identical);

  std::cout <<
      "\nExpected shape:\n"
      "  * static (deploy-time) calibration + silent degradation: the sick\n"
      "    card keeps its healthy-rate share and the makespan balloons\n"
      "    (the honest disaster one-shot calibration ships);\n"
      "  * online calibration: the drift ladder derates the card onto its\n"
      "    true speed within a confirmation window, and most of the lost\n"
      "    makespan is recovered;\n"
      "  * the healthy fleet never derates or quarantines (no false\n"
      "    positives), and outputs are bit-identical either way;\n"
      "  * the ramp is caught by the baseline-drift check (no step for the\n"
      "    CUSUM), the flapping card requalifies instead of being\n"
      "    quarantined.\n";

  // --- Contracts -----------------------------------------------------------
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "FAIL: " << what << '\n';
      ++failures;
    }
  };
  expect(recovery >= 0.7, "calibrated routing recovers " +
                              format_fixed(recovery * 100.0, 1) +
                              "% of the degraded makespan (need >= 70%)");
  expect(healthy_on.derates == 0 && healthy_on.quarantines == 0,
         "healthy fleet must see zero derates/quarantines (got " +
             std::to_string(healthy_on.derates) + "/" +
             std::to_string(healthy_on.quarantines) + ")");
  expect(outputs_identical, "outputs must be bit-identical on vs off");
  expect(degraded_static.makespan_s > 1.5 * healthy_static.makespan_s,
         "static calibration + degradation must inflate the makespan (got " +
             format_fixed(
                 degraded_static.makespan_s / healthy_static.makespan_s, 2) +
             "x)");
  expect(healthy_static.makespan_s < 0.8 * healthy_off.makespan_s,
         "static calibration must beat raw model placement when healthy");
  expect(degraded_on.derates >= 1,
         "stuck-slow degradation must be derated at least once");
  expect(degraded_on.quarantines == 0,
         "a 2x-slow card keeps serving derated, not quarantined");
  expect(ramp_on.drift_suspects >= 1,
         "the progressive ramp must raise a drift suspect");
  expect(flap_on.derates >= 1 && flap_on.requalifications >= 1,
         "the flapping card must derate and requalify (got " +
             std::to_string(flap_on.derates) + "/" +
             std::to_string(flap_on.requalifications) + ")");
  expect(flap_on.quarantines == 0, "flapping must not hard-quarantine");

  if (failures > 0) {
    return 1;
  }
  std::cout << "\nOK: recovery " << format_fixed(recovery * 100.0, 1)
            << "%, zero false positives, outputs identical\n";
  return 0;
}
