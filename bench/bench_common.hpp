#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "wsim/simt/device.hpp"
#include "wsim/simt/engine.hpp"
#include "wsim/util/table.hpp"
#include "wsim/workload/generator.hpp"

namespace wsim::bench {

/// The engine every benchmark shares: the process-wide one, so the thread
/// count honors WSIM_THREADS and the worker pool is built once. Pass as
/// SwRunOptions/PhRunOptions::engine or call launch() on it directly.
inline simt::ExecutionEngine& bench_engine() { return simt::shared_engine(); }

/// Options for a dedicated engine whose cost cache spans one series of a
/// sweep (the shared engine's would carry costs across series): the same
/// thread count as bench_engine().
inline simt::EngineOptions series_engine_options() {
  return simt::EngineOptions{.threads = bench_engine().threads()};
}

/// Prints the standard experiment banner so every bench's output states
/// which paper artifact it regenerates.
inline void banner(std::string_view experiment, std::string_view description) {
  std::cout << "==============================================================\n"
            << "Reproduction of " << experiment << " — " << description << "\n"
            << "Paper: Communication Optimization on GPU: A Case Study of\n"
            << "       Sequence Alignment Algorithms (IPDPS 2017)\n"
            << "==============================================================\n";
}

/// The two evaluation devices of the paper's Section V.
inline std::vector<simt::DeviceSpec> evaluation_devices() {
  return {simt::make_k1200(), simt::make_titan_x()};
}

/// The standard synthetic stand-in for the paper's HCC1954 dump
/// (DESIGN.md documents the substitution). 48 regions keeps every bench
/// within interactive runtimes while preserving the batch statistics.
inline workload::GeneratorConfig standard_dataset_config() {
  workload::GeneratorConfig cfg;
  cfg.seed = 42;
  cfg.regions = 48;
  return cfg;
}

/// When WSIM_CSV_DIR is set, mirrors a result table to
/// $WSIM_CSV_DIR/<name>.csv so sweeps can be replotted without parsing
/// the ASCII output.
inline void maybe_write_csv(const std::string& name, const util::Table& table) {
  const char* dir = std::getenv("WSIM_CSV_DIR");
  if (dir == nullptr || *dir == '\0') {
    return;
  }
  const std::string path = std::string(dir) + "/" + name + ".csv";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << '\n';
    return;
  }
  table.write_csv(out);
  std::cout << "(csv written to " << path << ")\n";
}

}  // namespace wsim::bench
