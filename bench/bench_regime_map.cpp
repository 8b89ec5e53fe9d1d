// The 2-D parallelism regime map: task length x batch size, per device.
//
// For every (length, batch) grid point this bench *measures* the simulated
// batch time of the task-per-block (inter-task) SW kernel against both
// pipelined wavefront (intra-task) variants, overlays the Eq. 7/8 regime
// model's predictions, and records which decomposition actually won and
// whether the model-guided router agreed. The headline result mirrors the
// paper's communication analysis applied across decompositions: long reads
// at small batch sizes starve the inter-task grid (batch x 32 threads total)
// and flip to the wavefront subsystem, while short reads at large batch
// sizes keep task-per-block — the wavefront's per-wave launch overhead and
// pipeline fill/drain never pay off there.
//
// One extra point measures the host-synchronized kernel-per-diagonal
// anti-pattern (wf-naive) so the cost of skipping the shuffle pipeline is
// on record next to the variant that beats it.
//
// Output: an ASCII table (and WSIM_CSV_DIR mirror) plus BENCH_regime.json
// in the working directory. `--smoke` shrinks the grid to the two contract
// corners and *enforces* the crossover: the wavefront must win the
// long-read/small-batch point and must never win the short-read/large-batch
// point — a non-zero exit fails CI if either regime boundary drifts.

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "wsim/fleet/router.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/kernels/wavefront_kernels.hpp"
#include "wsim/obs/json.hpp"
#include "wsim/util/table.hpp"
#include "wsim/workload/batching.hpp"

namespace {

namespace fleet = wsim::fleet;
namespace kernels = wsim::kernels;
using wsim::util::format_fixed;

/// One grid point of the regime map. Model-only rows (lengths too large to
/// interpret in bench time) carry measured = false and zeroed timings.
struct RegimePoint {
  std::string device;
  std::size_t m = 0;      ///< query length (DP rows)
  std::size_t n = 0;      ///< target length (DP cols)
  std::size_t batch = 0;  ///< tasks per launch
  bool measured = false;
  double inter_s = 0.0;      ///< task-per-block, best CommMode for the device
  double wf_shared_s = 0.0;  ///< wavefront, shared-memory diagonal
  double wf_shuffle_s = 0.0; ///< wavefront, shuffle-pipelined diagonal
  double model_inter_s = 0.0;
  double model_intra_s = 0.0;
  double cal_inter_s = 0.0;  ///< prediction after calibrate_intra_model
  double cal_intra_s = 0.0;
  std::string winner;  ///< "inter" | "intra" from measurement (empty if not)
  std::string router;  ///< "inter" | "intra" from pick_parallelism
  std::string cal_router;  ///< routing under the calibrated model
  bool router_agrees = false;
  bool cal_router_agrees = false;
};

/// The measured wf-naive anti-pattern point (one per run).
struct NaivePoint {
  std::string device;
  std::size_t m = 0;
  std::size_t n = 0;
  double naive_s = 0.0;
  double wf_shuffle_s = 0.0;
  std::size_t naive_launches = 0;
  std::size_t wf_launches = 0;
};

/// Deterministic base generator (splitmix-style) so every grid point uses
/// the same sequences across runs and machines without a Dataset round trip.
std::string make_seq(std::size_t len, std::uint64_t seed) {
  static constexpr char kBases[4] = {'A', 'C', 'G', 'T'};
  std::string s(len, 'A');
  std::uint64_t x = seed;
  for (char& c : s) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    c = kBases[(z ^ (z >> 31)) & 3U];
  }
  return s;
}

wsim::workload::SwBatch make_batch(std::size_t m, std::size_t n,
                                   std::size_t batch) {
  wsim::workload::SwBatch tasks;
  tasks.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    const std::uint64_t seed = (m * 1315423911ULL) ^ (n << 20U) ^ i;
    tasks.push_back({make_seq(m, seed), make_seq(n, seed ^ 0xabcdefULL)});
  }
  return tasks;
}

double run_inter(const wsim::simt::DeviceSpec& device,
                 const kernels::SwRunner& runner,
                 const wsim::workload::SwBatch& batch) {
  kernels::SwRunOptions opt;
  opt.mode = wsim::simt::ExecMode::kCachedByShape;
  opt.engine = &wsim::bench::bench_engine();
  return runner.run_batch(device, batch, opt).run.launch.total_seconds();
}

kernels::WfSwBatchResult run_wf(const wsim::simt::DeviceSpec& device,
                                const kernels::WavefrontSwRunner& runner,
                                const wsim::workload::SwBatch& batch) {
  kernels::WfRunOptions opt;
  opt.mode = wsim::simt::ExecMode::kCachedByShape;
  opt.engine = &wsim::bench::bench_engine();
  return runner.run_batch(device, batch, opt);
}

using wsim::obs::json_number;

/// The scales calibrate_intra_model fitted for one device.
struct FitRecord {
  std::string device;
  double inter_cell_scale = 1.0;
  double intra_cell_scale = 1.0;
  double wave_overhead_scale = 1.0;
  double inter_fill_scale = 1.0;
  double intra_fill_scale = 1.0;
};

void write_json(const std::string& path, const std::vector<RegimePoint>& points,
                const std::vector<NaivePoint>& naive,
                const std::vector<FitRecord>& fits) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << '\n';
    return;
  }
  out << "{\n  \"bench\": \"regime_map\",\n  \"schema_version\": 2,\n"
      << "  \"calibration\": [\n";
  for (std::size_t i = 0; i < fits.size(); ++i) {
    const auto& f = fits[i];
    out << "    {\"device\": \"" << f.device
        << "\", \"inter_cell_scale\": " << json_number(f.inter_cell_scale)
        << ", \"intra_cell_scale\": " << json_number(f.intra_cell_scale)
        << ", \"wave_overhead_scale\": " << json_number(f.wave_overhead_scale)
        << ", \"inter_fill_scale\": " << json_number(f.inter_fill_scale)
        << ", \"intra_fill_scale\": " << json_number(f.intra_fill_scale)
        << "}" << (i + 1 < fits.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"naive_points\": [\n";
  for (std::size_t i = 0; i < naive.size(); ++i) {
    const auto& p = naive[i];
    out << "    {\"device\": \"" << p.device << "\", \"m\": " << p.m
        << ", \"n\": " << p.n
        << ", \"naive_s\": " << json_number(p.naive_s)
        << ", \"wf_shuffle_s\": " << json_number(p.wf_shuffle_s)
        << ", \"naive_launches\": " << p.naive_launches
        << ", \"wf_launches\": " << p.wf_launches << "}"
        << (i + 1 < naive.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    out << "    {\"device\": \"" << p.device << "\", \"m\": " << p.m
        << ", \"n\": " << p.n << ", \"batch\": " << p.batch
        << ", \"measured\": " << (p.measured ? "true" : "false")
        << ", \"inter_s\": " << json_number(p.inter_s)
        << ", \"wf_shared_s\": " << json_number(p.wf_shared_s)
        << ", \"wf_shuffle_s\": " << json_number(p.wf_shuffle_s)
        << ", \"model_inter_s\": " << json_number(p.model_inter_s)
        << ", \"model_intra_s\": " << json_number(p.model_intra_s)
        << ", \"cal_model_inter_s\": " << json_number(p.cal_inter_s)
        << ", \"cal_model_intra_s\": " << json_number(p.cal_intra_s)
        << ", \"winner\": \"" << p.winner << "\""
        << ", \"router\": \"" << p.router << "\""
        << ", \"cal_router\": \"" << p.cal_router << "\""
        << ", \"router_agrees\": " << (p.router_agrees ? "true" : "false")
        << ", \"cal_router_agrees\": "
        << (p.cal_router_agrees ? "true" : "false")
        << "}" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "(json written to " << path << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  wsim::bench::banner(
      "regime map (wavefront extension)",
      "inter- vs intra-task SW across task length x batch size");

  std::vector<wsim::simt::DeviceSpec> devices;
  if (smoke) {
    devices.push_back(wsim::simt::make_k1200());
  } else {
    devices.push_back(wsim::simt::make_k40());
    devices.push_back(wsim::simt::make_k1200());
    devices.push_back(wsim::simt::make_titan_x());
  }
  // The measured grid. 8192 stays model-only: a single task-per-block DP of
  // 8192 x 9216 cells is one interpreted block — minutes of host time for a
  // point the model already covers.
  // 512 stays in the smoke grid: it is the corner the static model
  // over-charges (partial tiles pipeline better than whole-tile derating
  // predicts) and the calibrated-model contract below re-checks it.
  const std::vector<std::size_t> lengths =
      smoke ? std::vector<std::size_t>{256, 512, 2048}
            : std::vector<std::size_t>{256, 512, 1024, 2048, 4096};
  const std::vector<std::size_t> batches =
      smoke ? std::vector<std::size_t>{1, 256}
            : std::vector<std::size_t>{1, 4, 16, 64, 256};
  const std::size_t model_only_length = 8192;

  std::vector<RegimePoint> points;
  std::vector<NaivePoint> naive_points;
  std::vector<FitRecord> fits;

  for (const auto& device : devices) {
    const std::size_t device_points_begin = points.size();
    std::vector<fleet::RegimeSample> samples;
    const auto model = fleet::build_intra_task_model(device);
    const kernels::SwRunner inter_runner(model.sw_design);
    const kernels::WavefrontSwRunner wf_shared(kernels::WfVariant::kSharedMemory);
    const kernels::WavefrontSwRunner wf_shuffle(kernels::WfVariant::kShuffle);
    std::cout << device.name << ": inter=" << kernels::to_string(model.sw_design)
              << " wf=" << kernels::to_string(model.wf_variant)
              << " (sw latency " << format_fixed(model.sw_latency, 1)
              << " cyc/diag, wf latency " << format_fixed(model.wf_latency, 1)
              << ")\n";

    for (std::size_t m : lengths) {
      const std::size_t n = m + m / 8;  // targets ~12% longer, as in HC windows
      for (std::size_t batch : batches) {
        RegimePoint p;
        p.device = device.name;
        p.m = m;
        p.n = n;
        p.batch = batch;
        p.measured = true;
        const auto tasks = make_batch(m, n, batch);
        p.inter_s = run_inter(device, inter_runner, tasks);
        p.wf_shared_s = run_wf(device, wf_shared, tasks).run.launch.total_seconds();
        p.wf_shuffle_s =
            run_wf(device, wf_shuffle, tasks).run.launch.total_seconds();
        p.model_inter_s = fleet::predicted_inter_batch_seconds(device, model, m,
                                                               n, batch);
        p.model_intra_s = fleet::predicted_intra_batch_seconds(device, model, m,
                                                               n, batch);
        const double wf_best = std::min(p.wf_shared_s, p.wf_shuffle_s);
        p.winner = wf_best < p.inter_s ? "intra" : "inter";
        p.router = fleet::pick_parallelism(device, model, m, n, batch) ==
                           fleet::ParallelMode::kIntraTask
                       ? "intra"
                       : "inter";
        p.router_agrees = p.winner == p.router;
        samples.push_back({m, n, batch, p.inter_s, wf_best});
        points.push_back(std::move(p));
      }
    }

    // Model-only extension to contig scale: 8192 bp per batch size.
    for (std::size_t batch : batches) {
      RegimePoint p;
      p.device = device.name;
      p.m = model_only_length;
      p.n = model_only_length + model_only_length / 8;
      p.batch = batch;
      p.measured = false;
      p.model_inter_s = fleet::predicted_inter_batch_seconds(device, model, p.m,
                                                             p.n, batch);
      p.model_intra_s = fleet::predicted_intra_batch_seconds(device, model, p.m,
                                                             p.n, batch);
      p.router = fleet::pick_parallelism(device, model, p.m, p.n, batch) ==
                         fleet::ParallelMode::kIntraTask
                     ? "intra"
                     : "inter";
      p.router_agrees = true;  // nothing measured to disagree with
      points.push_back(std::move(p));
    }

    // Offline calibration: fit the model's per-regime scales to the
    // measured grid and re-evaluate every prediction and routing decision
    // under the calibrated model — the regime-map counterpart of the
    // fleet's online Calibrator.
    const auto calibrated = fleet::calibrate_intra_model(device, model, samples);
    fits.push_back({device.name, calibrated.inter_cell_scale,
                    calibrated.intra_cell_scale,
                    calibrated.wave_overhead_scale,
                    calibrated.inter_fill_scale,
                    calibrated.intra_fill_scale});
    std::cout << "  calibrated scales: inter-cell "
              << format_fixed(calibrated.inter_cell_scale, 3) << " (fill "
              << format_fixed(calibrated.inter_fill_scale, 3)
              << "), intra-cell "
              << format_fixed(calibrated.intra_cell_scale, 3) << " (fill "
              << format_fixed(calibrated.intra_fill_scale, 3)
              << "), wave-overhead "
              << format_fixed(calibrated.wave_overhead_scale, 3) << "\n";
    for (std::size_t i = device_points_begin; i < points.size(); ++i) {
      RegimePoint& p = points[i];
      p.cal_inter_s = fleet::predicted_inter_batch_seconds(device, calibrated,
                                                           p.m, p.n, p.batch);
      p.cal_intra_s = fleet::predicted_intra_batch_seconds(device, calibrated,
                                                           p.m, p.n, p.batch);
      p.cal_router = fleet::pick_parallelism(device, calibrated, p.m, p.n,
                                             p.batch) ==
                             fleet::ParallelMode::kIntraTask
                         ? "intra"
                         : "inter";
      p.cal_router_agrees = p.measured ? p.winner == p.cal_router : true;
    }

    // The anti-pattern on record: kernel-per-diagonal with all state in
    // global memory, one host sync per anti-diagonal.
    {
      const kernels::WavefrontSwRunner wf_naive(kernels::WfVariant::kHostSyncNaive);
      const auto tasks = make_batch(1024, 1152, 1);
      NaivePoint np;
      np.device = device.name;
      np.m = 1024;
      np.n = 1152;
      const auto naive = run_wf(device, wf_naive, tasks);
      const auto pipelined = run_wf(device, wf_shuffle, tasks);
      np.naive_s = naive.run.launch.total_seconds();
      np.wf_shuffle_s = pipelined.run.launch.total_seconds();
      np.naive_launches = naive.launches;
      np.wf_launches = pipelined.launches;
      naive_points.push_back(np);
    }
  }

  wsim::util::Table table({"device", "len", "batch", "inter (ms)",
                           "wf-shared (ms)", "wf-shuffle (ms)", "model inter",
                           "model intra", "cal intra", "winner", "router",
                           "agree", "cal agree"});
  for (const auto& p : points) {
    table.add_row({p.device, std::to_string(p.m), std::to_string(p.batch),
                   p.measured ? format_fixed(p.inter_s * 1e3, 3) : "-",
                   p.measured ? format_fixed(p.wf_shared_s * 1e3, 3) : "-",
                   p.measured ? format_fixed(p.wf_shuffle_s * 1e3, 3) : "-",
                   format_fixed(p.model_inter_s * 1e3, 3),
                   format_fixed(p.model_intra_s * 1e3, 3),
                   format_fixed(p.cal_intra_s * 1e3, 3),
                   p.measured ? p.winner : "-", p.router,
                   p.measured ? (p.router_agrees ? "yes" : "NO") : "-",
                   p.measured ? (p.cal_router_agrees ? "yes" : "NO") : "-"});
  }
  table.print(std::cout);
  wsim::bench::maybe_write_csv("regime_map", table);

  std::cout << "\nwf-naive anti-pattern (1024 x 1152, batch 1):\n";
  for (const auto& np : naive_points) {
    std::cout << "  " << np.device << ": naive "
              << format_fixed(np.naive_s * 1e3, 3) << " ms ("
              << np.naive_launches << " launches) vs wf-shuffle "
              << format_fixed(np.wf_shuffle_s * 1e3, 3) << " ms ("
              << np.wf_launches << " launches) — "
              << format_fixed(np.naive_s / np.wf_shuffle_s, 1) << "x slower\n";
  }

  write_json("BENCH_regime.json", points, naive_points, fits);

  // Contract checks — these gate CI in --smoke mode and also hold on the
  // full grid. The two corners come straight from the issue: the wavefront
  // must win long-read/small-batch and must never win short-read/large-batch.
  std::size_t failures = 0;
  const std::size_t long_len = lengths.back();
  const std::size_t short_len = lengths.front();
  const std::size_t small_batch = batches.front();
  const std::size_t large_batch = batches.back();
  for (const auto& p : points) {
    if (!p.measured) {
      continue;
    }
    const bool long_small = p.m == long_len && p.batch == small_batch;
    const bool short_large = p.m == short_len && p.batch == large_batch;
    if (long_small && p.winner != "intra") {
      std::cerr << "FAIL: wavefront lost the long-read/small-batch point on "
                << p.device << " (" << p.m << " x batch " << p.batch << ")\n";
      ++failures;
    }
    if (long_small && p.router != "intra") {
      std::cerr << "FAIL: router kept inter-task on the long-read/small-batch "
                << "point on " << p.device << "\n";
      ++failures;
    }
    if (short_large && p.winner != "inter") {
      std::cerr << "FAIL: wavefront won the short-read/large-batch point on "
                << p.device << " (" << p.m << " x batch " << p.batch << ")\n";
      ++failures;
    }
    if (short_large && p.router != "inter") {
      std::cerr << "FAIL: router flipped to intra-task on the short-read/"
                << "large-batch point on " << p.device << "\n";
      ++failures;
    }
  }
  for (const auto& np : naive_points) {
    if (np.naive_s <= np.wf_shuffle_s) {
      std::cerr << "FAIL: wf-naive was not slower than wf-shuffle on "
                << np.device << "\n";
      ++failures;
    }
  }
  // The calibrated model must not lose routing accuracy anywhere, and it
  // must fix the 512 bp / small-batch corner: there the raw model's
  // per-wave overhead and fill/drain terms over-charge the wavefront so
  // the router keeps task-per-block even though the measurement says the
  // wavefront wins. Routing rides the inter/intra *ratio*, which the
  // fitted scales correct even where a global 2-parameter fit cannot pin
  // every absolute time.
  std::size_t raw_agree = 0;
  std::size_t cal_agree = 0;
  for (const auto& p : points) {
    if (!p.measured) {
      continue;
    }
    raw_agree += p.router_agrees ? 1 : 0;
    cal_agree += p.cal_router_agrees ? 1 : 0;
    if (p.m == 512 && p.batch == small_batch && !p.cal_router_agrees) {
      std::cerr << "FAIL: calibrated router still mis-routes the 512 bp/"
                << "small-batch corner on " << p.device << " (measured "
                << p.winner << ", routed " << p.cal_router << ")\n";
      ++failures;
    }
  }
  if (cal_agree < raw_agree) {
    std::cerr << "FAIL: calibrated routing agreement dropped (" << cal_agree
              << " < " << raw_agree << " of the measured grid)\n";
    ++failures;
  }
  std::cout << "router agreement: raw " << raw_agree << ", calibrated "
            << cal_agree << " of "
            << std::count_if(points.begin(), points.end(),
                             [](const RegimePoint& p) { return p.measured; })
            << " measured points\n";
  if (failures > 0) {
    std::cerr << failures << " regime contract violation(s)\n";
    return 1;
  }
  std::cout << "regime contract holds: intra wins long-read/small-batch, "
            << "inter keeps short-read/large-batch, naive loses\n";
  return 0;
}
