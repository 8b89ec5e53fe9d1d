// Regenerates Figure 9: average and peak GCUPS of the four kernels
// (SW1/SW2 shared-memory vs shuffle Smith-Waterman, PH1/PH2 PairHMM) on
// K1200 and Titan X under the original per-region batching, including
// host-device transfer time — the paper's Fig. 9 convention.

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "wsim/kernels/ph_kernels.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/simt/engine.hpp"
#include "wsim/util/stats.hpp"
#include "wsim/util/table.hpp"
#include "wsim/workload/batching.hpp"

namespace {

using wsim::kernels::CommMode;
using wsim::util::format_fixed;

struct Series {
  double avg = 0.0;
  double peak = 0.0;
};

Series summarize(const std::vector<double>& gcups) {
  const auto s = wsim::util::summarize(gcups);
  return {s.mean, s.max};
}

Series run_sw(const wsim::simt::DeviceSpec& dev, CommMode mode,
              const std::vector<wsim::workload::SwBatch>& batches) {
  const wsim::kernels::SwRunner runner(mode);
  // A cost cache scoped to this (kernel, device) series.
  wsim::simt::ExecutionEngine engine(wsim::bench::series_engine_options());
  wsim::kernels::SwRunOptions opt;
  opt.mode = wsim::simt::ExecMode::kCachedByShape;
  opt.engine = &engine;
  std::vector<double> gcups;
  gcups.reserve(batches.size());
  for (const auto& batch : batches) {
    gcups.push_back(runner.run_batch(dev, batch, opt).run.gcups_total());
  }
  return summarize(gcups);
}

Series run_ph(const wsim::simt::DeviceSpec& dev, CommMode mode,
              const std::vector<wsim::workload::PhBatch>& batches) {
  const wsim::kernels::PhRunner runner(mode);
  wsim::simt::ExecutionEngine engine(wsim::bench::series_engine_options());
  wsim::kernels::PhRunOptions opt;
  opt.mode = wsim::simt::ExecMode::kCachedByShape;
  opt.engine = &engine;
  std::vector<double> gcups;
  gcups.reserve(batches.size());
  for (const auto& batch : batches) {
    gcups.push_back(runner.run_batch(dev, batch, opt).run.gcups_total());
  }
  return summarize(gcups);
}

}  // namespace

int main() {
  wsim::bench::banner("Figure 9", "kernel performance overview (region batching)");

  const auto dataset = wsim::workload::generate_dataset(
      wsim::bench::standard_dataset_config());
  const auto stats = wsim::workload::compute_stats(dataset);
  std::cout << "Dataset: " << stats.regions << " regions, avg "
            << format_fixed(stats.avg_sw_tasks_per_region, 1) << " SW and "
            << format_fixed(stats.avg_ph_tasks_per_region, 1)
            << " PairHMM tasks per batch (paper: 4 and 189).\n"
            << "GCUPS include host-device transfer and launch overheads.\n\n";

  const auto sw_batches = wsim::workload::sw_region_batches(dataset);
  const auto ph_batches = wsim::workload::ph_region_batches(dataset);

  wsim::util::Table table({"kernel", "device", "avg GCUPS", "peak GCUPS"});
  for (const auto& dev : wsim::bench::evaluation_devices()) {
    for (const auto mode : {CommMode::kSharedMemory, CommMode::kShuffle}) {
      const Series s = run_sw(dev, mode, sw_batches);
      table.add_row({mode == CommMode::kSharedMemory ? "SW1" : "SW2", dev.name,
                     format_fixed(s.avg, 2), format_fixed(s.peak, 2)});
    }
  }
  for (const auto& dev : wsim::bench::evaluation_devices()) {
    for (const auto mode : {CommMode::kSharedMemory, CommMode::kShuffle}) {
      const Series s = run_ph(dev, mode, ph_batches);
      table.add_row({mode == CommMode::kSharedMemory ? "PH1" : "PH2", dev.name,
                     format_fixed(s.avg, 2), format_fixed(s.peak, 2)});
    }
  }
  table.print(std::cout);
  wsim::bench::maybe_write_csv("fig9_overview", table);

  std::cout <<
      "\nExpected shape (paper Fig. 9):\n"
      "  * shuffle designs beat shared-memory designs for both algorithms\n"
      "    on both devices;\n"
      "  * SW numbers are low because the original batches average only 4\n"
      "    tasks, far too few to occupy the device (see Fig. 10 re-batching);\n"
      "  * PairHMM benefits from its ~189-task batches; paper peaks at\n"
      "    34.8 GCUPS (PH2, Titan X) with a 6.0 GCUPS average.\n";
  return 0;
}
