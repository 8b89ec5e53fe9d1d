#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "wsim/align/pairhmm.hpp"

namespace wsim::workload {

/// One Smith-Waterman alignment task (a pair of sequences). In
/// HaplotypeCaller this is a candidate haplotype aligned against the
/// reference window of the active region.
struct SwTask {
  std::string query;   ///< rows of the DP matrix
  std::string target;  ///< columns of the DP matrix

  std::size_t cells() const noexcept { return query.size() * target.size(); }
};

/// One active region's worth of work: HaplotypeCaller emits a small batch
/// of SW tasks and a large batch of PairHMM tasks per region (the paper
/// measures averages of 4 and 189 tasks per batch respectively).
struct Region {
  std::vector<SwTask> sw_tasks;
  std::vector<align::PairHmmTask> ph_tasks;
};

/// A full synthetic dataset standing in for the HCC1954 HaplotypeCaller
/// dump.
struct Dataset {
  std::vector<Region> regions;
};

/// Number of DP cells in a PairHMM task (one "cell update" covers all
/// three matrices, the paper's CUPS convention).
std::size_t cells(const align::PairHmmTask& task) noexcept;
inline std::size_t cells(const SwTask& task) noexcept { return task.cells(); }

/// Aggregate shape statistics used by benches and EXPERIMENTS.md.
struct DatasetStats {
  std::size_t regions = 0;
  std::size_t sw_tasks = 0;
  std::size_t ph_tasks = 0;
  double avg_sw_tasks_per_region = 0.0;
  double avg_ph_tasks_per_region = 0.0;
  std::size_t max_read_len = 0;
  std::size_t max_hap_len = 0;
  std::size_t max_sw_query_len = 0;
  std::size_t max_sw_target_len = 0;
  std::size_t total_sw_cells = 0;
  std::size_t total_ph_cells = 0;
};

DatasetStats compute_stats(const Dataset& dataset) noexcept;

}  // namespace wsim::workload
