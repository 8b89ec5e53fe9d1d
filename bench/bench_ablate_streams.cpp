// Ablation: two optimizations beyond the paper — CUDA-streams-style
// transfer overlap and LPT (longest-first) batch ordering — applied to
// the Fig. 9 PairHMM configuration where transfer time is a visible
// fraction of the total.

#include <iostream>

#include "bench_common.hpp"
#include "wsim/kernels/ph_kernels.hpp"
#include "wsim/simt/engine.hpp"
#include "wsim/util/stats.hpp"
#include "wsim/util/table.hpp"
#include "wsim/workload/batching.hpp"

namespace {

using wsim::kernels::CommMode;
using wsim::util::format_fixed;

double avg_gcups(const wsim::kernels::PhRunner& runner,
                 const wsim::simt::DeviceSpec& dev,
                 const std::vector<wsim::workload::PhBatch>& batches,
                 bool overlap, bool lpt, wsim::simt::ExecutionEngine& engine) {
  std::vector<double> gcups;
  gcups.reserve(batches.size());
  for (auto batch : batches) {
    if (lpt) {
      wsim::workload::sort_by_cells_desc(batch);
    }
    wsim::kernels::PhRunOptions opt;
    opt.mode = wsim::simt::ExecMode::kCachedByShape;
    opt.engine = &engine;
    opt.overlap_transfers = overlap;
    gcups.push_back(runner.run_batch(dev, batch, opt).run.gcups_total());
  }
  return wsim::util::summarize(gcups).mean;
}

}  // namespace

int main() {
  wsim::bench::banner("Ablation", "transfer overlap + LPT ordering (PairHMM)");
  const auto dataset = wsim::workload::generate_dataset(
      wsim::bench::standard_dataset_config());
  const auto batches = wsim::workload::ph_region_batches(dataset);

  for (const auto& dev : wsim::bench::evaluation_devices()) {
    std::cout << "--- " << dev.name << " (PH2, region batches, avg GCUPS incl. "
                 "transfer) ---\n";
    const wsim::kernels::PhRunner runner(CommMode::kShuffle);
    // One cost cache per device, shared by the four configurations.
    wsim::simt::ExecutionEngine engine(wsim::bench::series_engine_options());
    wsim::util::Table table({"configuration", "avg GCUPS", "vs baseline"});
    const double base = avg_gcups(runner, dev, batches, false, false, engine);
    table.add_row({"baseline (paper setup)", format_fixed(base, 2), "1.00x"});
    const double lpt = avg_gcups(runner, dev, batches, false, true, engine);
    table.add_row({"+ LPT batch order", format_fixed(lpt, 2),
                   format_fixed(lpt / base, 2) + "x"});
    const double streams = avg_gcups(runner, dev, batches, true, false, engine);
    table.add_row({"+ transfer overlap", format_fixed(streams, 2),
                   format_fixed(streams / base, 2) + "x"});
    const double both = avg_gcups(runner, dev, batches, true, true, engine);
    table.add_row({"+ both", format_fixed(both, 2),
                   format_fixed(both / base, 2) + "x"});
    table.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "Transfer overlap reclaims the PCIe time the paper's GCUPS\n"
               "definition charges to every batch; LPT helps when task sizes\n"
               "within a batch are skewed.\n";
  return 0;
}
