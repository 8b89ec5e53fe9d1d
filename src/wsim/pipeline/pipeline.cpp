#include "wsim/pipeline/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "wsim/align/pairhmm.hpp"
#include "wsim/simt/energy.hpp"
#include "wsim/simt/engine.hpp"
#include "wsim/util/check.hpp"

namespace wsim::pipeline {

namespace {

/// Index-preserving batching: batches are lists of indices into the
/// flattened task vector, so re-batching and LPT ordering never lose the
/// dataset order of the outputs.
template <typename Task, typename CellsOf>
std::vector<std::vector<std::size_t>> plan_batches(
    const std::vector<std::vector<Task>>& per_region, std::size_t rebatch_size,
    bool lpt, CellsOf cells_of) {
  std::vector<std::vector<std::size_t>> batches;
  std::size_t base = 0;
  if (rebatch_size == 0) {
    for (const auto& region : per_region) {
      if (!region.empty()) {
        std::vector<std::size_t> batch(region.size());
        std::iota(batch.begin(), batch.end(), base);
        batches.push_back(std::move(batch));
      }
      base += region.size();
    }
  } else {
    std::size_t total = 0;
    for (const auto& region : per_region) {
      total += region.size();
    }
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

}  // namespace

PipelineReport run_pipeline(const workload::Dataset& dataset,
                            const PipelineConfig& config) {
  util::require(!dataset.regions.empty(), "run_pipeline: dataset has no regions");

  PipelineReport report;

  // One engine serves both stages, so its worker pool is shared across
  // every batch. The
  // default thread count uses the process-wide engine — pipeline, serving
  // layer, and CLI then share one worker pool and one cost cache; an
  // explicit positive count builds a private engine for this run only.
  std::optional<simt::ExecutionEngine> private_engine;
  simt::ExecutionEngine* engine = nullptr;
  if (config.threads <= 0) {
    engine = &simt::shared_engine();
  } else {
    private_engine.emplace(simt::EngineOptions{.threads = config.threads});
    engine = &*private_engine;
  }
  report.engine_used = engine;

  // ---------------- stage 1: Smith-Waterman -------------------------------
  {
    std::vector<workload::SwTask> tasks;
    std::vector<std::vector<workload::SwTask>> per_region;
    per_region.reserve(dataset.regions.size());
    for (const auto& region : dataset.regions) {
      per_region.push_back(region.sw_tasks);
      tasks.insert(tasks.end(), region.sw_tasks.begin(), region.sw_tasks.end());
    }
    util::require(!tasks.empty(), "run_pipeline: dataset has no SW tasks");
    const auto batches = plan_batches(
        per_region, config.rebatch_size, config.lpt_order,
        [&](std::size_t i) { return tasks[i].cells(); });

    const kernels::SwRunner runner(config.sw_design);
    kernels::SwRunOptions options;
    options.collect_outputs = true;
    options.overlap_transfers = config.overlap_transfers;
    options.engine = engine;

    report.sw_alignments.resize(tasks.size());
    for (const auto& batch_indices : batches) {
      workload::SwBatch batch;
      batch.reserve(batch_indices.size());
      for (const std::size_t i : batch_indices) {
        batch.push_back(tasks[i]);
      }
      const auto result = runner.run_batch(config.device, batch, options);
      report.sw.seconds += result.run.launch.total_seconds();
      report.sw.cells += result.run.cells;
      report.sw.joules += simt::launch_energy(result.run.launch.representative,
                                              batch.size(),
                                              result.run.launch.kernel_seconds,
                                              config.device)
                              .total_joules();
      for (std::size_t b = 0; b < batch_indices.size(); ++b) {
        report.sw_alignments[batch_indices[b]] = result.outputs[b].alignment;
      }
    }
    report.sw.tasks = tasks.size();
    report.sw.batches = batches.size();
    report.sw.gcups = report.sw.seconds > 0.0
                          ? static_cast<double>(report.sw.cells) / report.sw.seconds / 1e9
                          : 0.0;

    if (config.validate_sample) {
      util::require(config.validate_every > 0, "run_pipeline: validate_every must be > 0");
      for (std::size_t i = 0; i < tasks.size(); i += config.validate_every) {
        const auto ref = align::sw_align(tasks[i].query, tasks[i].target, {});
        ++report.validated;
        if (ref.score != report.sw_alignments[i].score ||
            ref.cigar != report.sw_alignments[i].cigar) {
          ++report.mismatches;
        }
      }
    }
  }

  // ---------------- stage 2: PairHMM --------------------------------------
  {
    std::vector<align::PairHmmTask> tasks;
    std::vector<std::vector<align::PairHmmTask>> per_region;
    per_region.reserve(dataset.regions.size());
    for (const auto& region : dataset.regions) {
      per_region.push_back(region.ph_tasks);
      tasks.insert(tasks.end(), region.ph_tasks.begin(), region.ph_tasks.end());
    }
    util::require(!tasks.empty(), "run_pipeline: dataset has no PairHMM tasks");
    const auto batches = plan_batches(
        per_region, config.rebatch_size, config.lpt_order,
        [&](std::size_t i) { return workload::cells(tasks[i]); });

    const kernels::PhRunner runner(config.ph_design);
    kernels::PhRunOptions options;
    options.collect_outputs = true;
    options.overlap_transfers = config.overlap_transfers;
    options.double_fallback = config.double_fallback;
    options.engine = engine;

    report.ph_log10.resize(tasks.size());
    for (const auto& batch_indices : batches) {
      workload::PhBatch batch;
      batch.reserve(batch_indices.size());
      for (const std::size_t i : batch_indices) {
        batch.push_back(tasks[i]);
      }
      const auto result = runner.run_batch(config.device, batch, options);
      report.ph.seconds += result.run.launch.total_seconds();
      report.ph.cells += result.run.cells;
      report.ph.joules += simt::launch_energy(result.run.launch.representative,
                                              batch.size(),
                                              result.run.launch.kernel_seconds,
                                              config.device)
                              .total_joules();
      for (std::size_t b = 0; b < batch_indices.size(); ++b) {
        report.ph_log10[batch_indices[b]] = result.log10[b];
      }
    }
    report.ph.tasks = tasks.size();
    report.ph.batches = batches.size();
    report.ph.gcups = report.ph.seconds > 0.0
                          ? static_cast<double>(report.ph.cells) / report.ph.seconds / 1e9
                          : 0.0;

    if (config.validate_sample) {
      for (std::size_t i = 0; i < tasks.size(); i += config.validate_every) {
        const double ref = align::pairhmm_log10_safe(tasks[i]);
        ++report.validated;
        if (std::abs(ref - report.ph_log10[i]) > 5e-3 + std::abs(ref) * 1e-3) {
          ++report.mismatches;
        }
      }
    }
  }

  return report;
}

}  // namespace wsim::pipeline
