#include "wsim/pipeline/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "wsim/align/pairhmm.hpp"
#include "wsim/fleet/fleet.hpp"
#include "wsim/simt/energy.hpp"
#include "wsim/simt/engine.hpp"
#include "wsim/util/check.hpp"

namespace wsim::pipeline {

namespace {

/// Index-preserving batching: batches are lists of indices into the
/// flattened task vector, so re-batching and LPT ordering never lose the
/// dataset order of the outputs.
template <typename CellsOf>
std::vector<std::vector<std::size_t>> plan_batches(
    const std::vector<std::size_t>& region_sizes, std::size_t rebatch_size, bool lpt,
    CellsOf cells_of) {
  std::vector<std::vector<std::size_t>> batches;
  const std::size_t total =
      std::accumulate(region_sizes.begin(), region_sizes.end(), std::size_t{0});
  if (rebatch_size == 0) {
    std::size_t base = 0;
    for (const std::size_t size : region_sizes) {
      if (size > 0) {
        std::vector<std::size_t> batch(size);
        std::iota(batch.begin(), batch.end(), base);
        batches.push_back(std::move(batch));
      }
      base += size;
    }
  } else {
    for (std::size_t begin = 0; begin < total; begin += rebatch_size) {
      const std::size_t end = std::min(begin + rebatch_size, total);
      std::vector<std::size_t> batch(end - begin);
      std::iota(batch.begin(), batch.end(), begin);
      batches.push_back(std::move(batch));
    }
  }
  if (lpt) {
    for (auto& batch : batches) {
      std::stable_sort(batch.begin(), batch.end(),
                       [&](std::size_t x, std::size_t y) {
                         return cells_of(x) > cells_of(y);
                       });
    }
  }
  return batches;
}

/// One stage, written once over the fleet's kind traits: plan the batches,
/// run each on the one-worker fleet, keep the outputs in dataset order,
/// and check a sample against the host reference.
template <typename Kind>
void run_stage(const workload::Dataset& dataset, const PipelineConfig& config,
               fleet::FleetExecutor& fleet, PipelineReport& report) {
  constexpr bool kIsSw = Kind::kIsSw;
  const auto region_tasks = [](const workload::Region& region) -> const auto& {
    if constexpr (kIsSw) {
      return region.sw_tasks;
    } else {
      return region.ph_tasks;
    }
  };
  typename Kind::Batch tasks;
  std::vector<std::size_t> region_sizes;
  for (const auto& region : dataset.regions) {
    const auto& part = region_tasks(region);
    region_sizes.push_back(part.size());
    tasks.insert(tasks.end(), part.begin(), part.end());
  }
  util::require(!tasks.empty(), kIsSw ? "run_pipeline: dataset has no SW tasks"
                                      : "run_pipeline: dataset has no PairHMM tasks");
  const auto batches =
      plan_batches(region_sizes, config.rebatch_size, config.lpt_order,
                   [&](std::size_t i) { return workload::cells(tasks[i]); });

  StageReport& stage = kIsSw ? report.sw : report.ph;
  auto& outputs = [&]() -> auto& {
    if constexpr (kIsSw) {
      return report.sw_alignments;
    } else {
      return report.ph_log10;
    }
  }();
  fleet::ExecOptions options;
  options.overlap_transfers = config.overlap_transfers;
  options.double_fallback = config.double_fallback;

  outputs.resize(tasks.size());
  for (const auto& batch_indices : batches) {
    typename Kind::Batch batch;
    batch.reserve(batch_indices.size());
    for (const std::size_t i : batch_indices) {
      batch.push_back(tasks[i]);
    }
    const auto run = fleet.execute<Kind>(batch, fleet.all_free_at(), options);
    const simt::LaunchResult& launch = run.result.run.launch;
    stage.seconds += run.exec.service_seconds;
    stage.cells += run.result.run.cells;
    stage.joules += simt::launch_energy(launch.representative, batch.size(),
                                        launch.kernel_seconds, config.device)
                        .total_joules();
    for (std::size_t b = 0; b < batch_indices.size(); ++b) {
      if constexpr (kIsSw) {
        outputs[batch_indices[b]] = run.result.outputs[b].alignment;
      } else {
        outputs[batch_indices[b]] = run.result.log10[b];
      }
    }
  }
  stage.tasks = tasks.size();
  stage.batches = batches.size();
  stage.gcups =
      stage.seconds > 0.0 ? static_cast<double>(stage.cells) / stage.seconds / 1e9 : 0.0;

  if (config.validate_sample) {
    util::require(config.validate_every > 0, "run_pipeline: validate_every must be > 0");
    for (std::size_t i = 0; i < tasks.size(); i += config.validate_every) {
      ++report.validated;
      bool mismatch = false;
      if constexpr (kIsSw) {
        const auto ref = align::sw_align(tasks[i].query, tasks[i].target, {});
        mismatch = ref.score != outputs[i].score || ref.cigar != outputs[i].cigar;
      } else {
        const double ref = align::pairhmm_log10_safe(tasks[i]);
        mismatch = std::abs(ref - outputs[i]) > 5e-3 + std::abs(ref) * 1e-3;
      }
      if (mismatch) {
        ++report.mismatches;
      }
    }
  }
}

}  // namespace

PipelineReport run_pipeline(const workload::Dataset& dataset,
                            const PipelineConfig& config) {
  util::require(!dataset.regions.empty(), "run_pipeline: dataset has no regions");

  PipelineReport report;

  // One engine serves both stages, so its worker pool is shared across
  // every batch. The default thread count uses the process-wide engine —
  // pipeline, serving layer, and CLI then share one worker pool and one
  // cost cache; an explicit positive count builds a private engine for
  // this run only.
  std::optional<simt::ExecutionEngine> private_engine;
  if (config.threads > 0) {
    private_engine.emplace(simt::EngineOptions{.threads = config.threads});
  }
  simt::ExecutionEngine* engine =
      private_engine ? &*private_engine : &simt::shared_engine();
  report.engine_used = engine;

  // The device is a one-worker fleet with the pipeline's designs pinned
  // and every SW batch task-per-block, as serve-sim runs it.
  fleet::WorkerConfig worker;
  worker.device = config.device;
  worker.sw_design = config.sw_design;
  worker.ph_design = config.ph_design;
  fleet::FleetConfig fleet_config;
  fleet_config.workers = {worker};
  fleet_config.parallelism = fleet::ParallelismPolicy::kInterTask;
  fleet_config.engine = engine;
  fleet::FleetExecutor fleet(std::move(fleet_config));

  run_stage<fleet::SwKind>(dataset, config, fleet, report);
  run_stage<fleet::PhKind>(dataset, config, fleet, report);
  return report;
}

}  // namespace wsim::pipeline
