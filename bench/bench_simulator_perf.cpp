// Host-side performance of the simulation infrastructure itself: the
// committed interpreter-throughput trajectory of the predecoded engines.
// Every case runs the SAME work through all three interpreters
// (InterpPath::kLegacy vs kFast vs kVector) and reports the speedups.
// kFast is the scalar predecoded engine — one handler call per decoded
// instruction — and the reference the vector engine's bounds below are
// measured against:
//
//   * micro — the paper's Listing-1 dependence-chain kernels executed as
//     single blocks via run_block. Kernels are built once and predecoded
//     once OUTSIDE the timed region, so the loop measures interpreter
//     throughput and nothing else (an earlier revision mixed kernel
//     build time into these loops, flattening every reported ratio).
//     Trials interleave across the engines so thermal / scheduler drift
//     cannot systematically favor whichever column ran last.
//   * e2e — SW and PairHMM batches through the real runners (packing,
//     launch, readback): the block-throughput number a sweep actually
//     experiences.
//   * compile — kernel build + predecode cost, timed separately so the
//     one-time cost the predecoded paths add is visible and bounded.
//
// Results land in BENCH_simperf.json in the working directory. `--smoke`
// shrinks repetitions for CI. Exit status is non-zero when any case runs
// the fast path slower than legacy, or the vector path slower than fast
// on any micro chain (the CI sanity floors — by construction neither
// should ever lose). Full runs additionally enforce the committed
// vector-vs-fast micro geomean target (>= 3x).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "wsim/kernels/ph_kernels.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/micro/microbench.hpp"
#include "wsim/obs/json.hpp"
#include "wsim/simt/decode.hpp"
#include "wsim/simt/interpreter.hpp"
#include "wsim/simt/memory.hpp"
#include "wsim/util/rng.hpp"
#include "wsim/util/table.hpp"
#include "wsim/workload/batching.hpp"
#include "wsim/workload/generator.hpp"

namespace {

namespace simt = wsim::simt;
using wsim::util::format_fixed;

struct CaseResult {
  std::string section;  ///< "micro" or "e2e"
  std::string name;
  std::string device;
  double legacy_seconds = 0.0;
  double fast_seconds = 0.0;
  double vector_seconds = 0.0;
  double work = 0.0;  ///< instructions (micro) or blocks (e2e) per rep

  double speedup() const { return legacy_seconds / fast_seconds; }
  double vector_speedup() const { return legacy_seconds / vector_seconds; }
  double vector_vs_fast() const { return fast_seconds / vector_seconds; }
  double legacy_rate() const { return work / legacy_seconds; }
  double fast_rate() const { return work / fast_seconds; }
  double vector_rate() const { return work / vector_seconds; }
};

/// Wall time of `reps` calls to `body` (one trial).
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

/// Best-of-`trials` wall time — the min damps scheduler noise, which
/// matters because the CI floor compares ratios.
template <typename F>
double time_best(int trials, int reps, F&& body) {
  double best = 1e300;
  for (int t = 0; t < trials; ++t) {
    best = std::min(best, time_once(reps, body));
  }
  return best;
}

/// Best-of-`trials` for the three engines with the trials interleaved
/// (legacy, fast, vector, legacy, ...), so slow machine-state drift hits
/// every column equally instead of whichever ran last.
template <typename L, typename F, typename V>
void time_interleaved(int trials, int reps, CaseResult& result, L&& legacy,
                      F&& fast, V&& vec) {
  result.legacy_seconds = 1e300;
  result.fast_seconds = 1e300;
  result.vector_seconds = 1e300;
  for (int t = 0; t < trials; ++t) {
    result.legacy_seconds = std::min(result.legacy_seconds, time_once(reps, legacy));
    result.fast_seconds = std::min(result.fast_seconds, time_once(reps, fast));
    result.vector_seconds = std::min(result.vector_seconds, time_once(reps, vec));
  }
}

/// One micro chain: a prebuilt arena and a prebuilt (and predecoded)
/// kernel, run_block timed under each interpreter.
CaseResult run_micro_case(wsim::micro::MicroKernel which,
                          const simt::DeviceSpec& device, int iterations,
                          int trials, int reps) {
  const simt::Kernel kernel = wsim::micro::build_micro_kernel(which);

  simt::GlobalMemory gmem;
  const auto buf = gmem.alloc(32 * 4);
  gmem.write_f32(buf, std::vector<float>(32, 1.0F));
  const auto table = gmem.alloc(32 * 4);
  std::vector<std::int32_t> chase(32);
  for (int i = 0; i < 32; ++i) {
    chase[static_cast<std::size_t>(i)] = ((i * 5 + 7) % 32) * 4;
  }
  gmem.write_i32(table, chase);
  const std::vector<std::uint64_t> args = {
      static_cast<std::uint64_t>(buf), static_cast<std::uint64_t>(iterations),
      static_cast<std::uint64_t>(table)};

  // Predecode outside the timed region: steady-state throughput is the
  // claim, and every production path hits the cache.
  const auto decoded = simt::shared_decoded_cache().get(kernel, device);

  simt::BlockRunOptions legacy_opt;
  legacy_opt.interp = simt::InterpPath::kLegacy;
  simt::BlockRunOptions fast_opt;
  fast_opt.interp = simt::InterpPath::kFast;
  fast_opt.decoded = decoded.get();
  simt::BlockRunOptions vector_opt;
  vector_opt.interp = simt::InterpPath::kVector;
  vector_opt.decoded = decoded.get();

  const simt::BlockResult probe = run_block(kernel, device, gmem, args, legacy_opt);
  run_block(kernel, device, gmem, args, fast_opt);    // warm-up
  run_block(kernel, device, gmem, args, vector_opt);  // warm-up

  CaseResult result;
  result.section = "micro";
  result.name = std::string(wsim::micro::to_string(which));
  result.device = device.name;
  result.work = static_cast<double>(probe.instructions) * reps;
  time_interleaved(
      trials, reps, result,
      [&] { run_block(kernel, device, gmem, args, legacy_opt); },
      [&] { run_block(kernel, device, gmem, args, fast_opt); },
      [&] { run_block(kernel, device, gmem, args, vector_opt); });
  return result;
}

/// End-to-end block throughput through a runner (packing + launch +
/// readback), the number a reproduction sweep experiences.
template <typename Runner, typename Options, typename Batch>
CaseResult run_e2e_case(const std::string& name, const Runner& runner,
                        const simt::DeviceSpec& device, const Batch& batch,
                        Options options, int trials, int reps) {
  options.engine = &wsim::bench::bench_engine();
  Options legacy_opt = options;
  legacy_opt.interp = simt::InterpPath::kLegacy;
  Options fast_opt = options;
  fast_opt.interp = simt::InterpPath::kFast;
  Options vector_opt = options;
  vector_opt.interp = simt::InterpPath::kVector;

  runner.run_batch(device, batch, fast_opt);    // warm-up (arenas + decode)
  runner.run_batch(device, batch, vector_opt);  // warm-up

  CaseResult result;
  result.section = "e2e";
  result.name = name;
  result.device = device.name;
  result.work = static_cast<double>(batch.size()) * reps;
  time_interleaved(
      trials, reps, result,
      [&] { runner.run_batch(device, batch, legacy_opt); },
      [&] { runner.run_batch(device, batch, fast_opt); },
      [&] { runner.run_batch(device, batch, vector_opt); });
  return result;
}

double geomean(const std::vector<CaseResult>& results, const std::string& section,
               double (CaseResult::*ratio)() const) {
  double log_sum = 0.0;
  std::size_t n = 0;
  for (const CaseResult& r : results) {
    if (r.section == section) {
      log_sum += std::log((r.*ratio)());
      ++n;
    }
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

using wsim::obs::json_number;

void write_json(const std::string& path, const std::vector<CaseResult>& results,
                double micro_geomean, double e2e_geomean,
                double micro_vector_geomean, double e2e_vector_geomean,
                double micro_vector_vs_fast, double compile_seconds,
                double decode_seconds, bool smoke) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << '\n';
    return;
  }
  out << "{\n  \"bench\": \"simulator_perf\",\n  \"smoke\": "
      << (smoke ? "true" : "false") << ",\n  \"vector_isa\": \""
      << simt::vector_isa_name() << "\",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    out << "    {\"section\": \"" << r.section << "\", \"case\": \"" << r.name
        << "\", \"device\": \"" << r.device
        << "\", \"legacy_per_sec\": " << json_number(r.legacy_rate())
        << ", \"fast_per_sec\": " << json_number(r.fast_rate())
        << ", \"vector_per_sec\": " << json_number(r.vector_rate())
        << ", \"speedup\": " << json_number(r.speedup())
        << ", \"vector_speedup\": " << json_number(r.vector_speedup())
        << ", \"vector_vs_fast\": " << json_number(r.vector_vs_fast()) << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"micro_geomean_speedup\": " << json_number(micro_geomean)
      << ",\n  \"e2e_geomean_speedup\": " << json_number(e2e_geomean)
      << ",\n  \"micro_geomean_vector_speedup\": "
      << json_number(micro_vector_geomean)
      << ",\n  \"e2e_geomean_vector_speedup\": "
      << json_number(e2e_vector_geomean)
      << ",\n  \"micro_geomean_vector_vs_fast\": "
      << json_number(micro_vector_vs_fast)
      << ",\n  \"sw_kernel_build_seconds\": " << json_number(compile_seconds)
      << ",\n  \"sw_kernel_decode_seconds\": " << json_number(decode_seconds)
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
  wsim::bench::banner("the simulator-perf trajectory",
                      "legacy vs predecoded fast path vs lane-vector engine");
  std::cout << "lane-vector SIMD tier: " << simt::vector_isa_name() << "\n";

  const int micro_iters = smoke ? 256 : 512;
  const int micro_trials = smoke ? 3 : 5;
  const int micro_reps = smoke ? 20 : 60;
  const int e2e_trials = smoke ? 2 : 3;
  const int e2e_reps = smoke ? 1 : 2;

  const auto devices = wsim::simt::all_devices();
  std::vector<CaseResult> results;

  // --- micro: interpreter-only dependence chains -----------------------
  const wsim::micro::MicroKernel chains[] = {
      wsim::micro::MicroKernel::kRegister, wsim::micro::MicroKernel::kShfl,
      wsim::micro::MicroKernel::kShflDown, wsim::micro::MicroKernel::kShflXor,
      wsim::micro::MicroKernel::kSharedMem,
      wsim::micro::MicroKernel::kSharedMemSync,
  };
  for (const auto& device : devices) {
    for (const auto which : chains) {
      results.push_back(
          run_micro_case(which, device, micro_iters, micro_trials, micro_reps));
    }
  }

  // --- e2e: SW and PairHMM batches through the runners -----------------
  auto cfg = wsim::bench::standard_dataset_config();
  cfg.regions = smoke ? 2 : 4;
  const auto dataset = wsim::workload::generate_dataset(cfg);
  const auto sw_batches = wsim::workload::sw_rebatch(dataset, smoke ? 4 : 8);
  const auto ph_batches = wsim::workload::ph_rebatch(dataset, smoke ? 8 : 16);

  const wsim::kernels::SwRunner sw_runner(wsim::kernels::CommMode::kShuffle);
  const wsim::kernels::PhRunner ph_runner(wsim::kernels::CommMode::kShuffle);
  for (const auto& device : devices) {
    results.push_back(run_e2e_case("sw_shuffle", sw_runner, device,
                                   sw_batches.front(),
                                   wsim::kernels::SwRunOptions{}, e2e_trials,
                                   e2e_reps));
    results.push_back(run_e2e_case("pairhmm_shuffle", ph_runner, device,
                                   ph_batches.front(),
                                   wsim::kernels::PhRunOptions{}, e2e_trials,
                                   e2e_reps));
  }

  // --- compile: one-time costs, measured apart from the throughput loops
  const double compile_seconds = time_best(3, 1, [] {
    const auto kernel =
        wsim::kernels::build_sw_kernel(wsim::kernels::CommMode::kShuffle, {});
    if (kernel.code.empty()) {
      std::abort();  // defeats whole-build elision
    }
  });
  const auto sw_kernel =
      wsim::kernels::build_sw_kernel(wsim::kernels::CommMode::kShuffle, {});
  const double decode_seconds = time_best(3, 1, [&] {
    const auto program = simt::decode_program(sw_kernel, devices.front());
    if (program->code.empty()) {
      std::abort();
    }
  });

  // --- report ----------------------------------------------------------
  wsim::util::Table table({"section", "case", "device", "legacy/s", "fast/s",
                           "vector/s", "fast", "vector", "vec/fast"});
  for (const CaseResult& r : results) {
    table.add_row({r.section, r.name, r.device,
                   format_fixed(r.legacy_rate(), 0),
                   format_fixed(r.fast_rate(), 0),
                   format_fixed(r.vector_rate(), 0),
                   format_fixed(r.speedup(), 2) + "x",
                   format_fixed(r.vector_speedup(), 2) + "x",
                   format_fixed(r.vector_vs_fast(), 2) + "x"});
  }
  table.print(std::cout);
  wsim::bench::maybe_write_csv("simulator_perf", table);

  const double micro_geomean = geomean(results, "micro", &CaseResult::speedup);
  const double e2e_geomean = geomean(results, "e2e", &CaseResult::speedup);
  const double micro_vector_geomean =
      geomean(results, "micro", &CaseResult::vector_speedup);
  const double e2e_vector_geomean =
      geomean(results, "e2e", &CaseResult::vector_speedup);
  const double micro_vector_vs_fast =
      geomean(results, "micro", &CaseResult::vector_vs_fast);
  std::cout << "micro geomean speedup:  fast " << format_fixed(micro_geomean, 2)
            << "x, vector " << format_fixed(micro_vector_geomean, 2)
            << "x over legacy (vector/fast "
            << format_fixed(micro_vector_vs_fast, 2)
            << "x)   (micro rates are warp-instructions/s; e2e rates are "
               "blocks/s)\n"
            << "e2e geomean speedup:    fast " << format_fixed(e2e_geomean, 2)
            << "x, vector " << format_fixed(e2e_vector_geomean, 2) << "x\n"
            << "SW kernel build: " << format_fixed(compile_seconds * 1e3, 2)
            << " ms, predecode: " << format_fixed(decode_seconds * 1e3, 3)
            << " ms (one-time, cached per (kernel, device))\n";

  write_json("BENCH_simperf.json", results, micro_geomean, e2e_geomean,
             micro_vector_geomean, e2e_vector_geomean, micro_vector_vs_fast,
             compile_seconds, decode_seconds, smoke);

  // CI sanity floors: the fast path must never lose to legacy, and the
  // vector path must never lose to fast on the micro chains it exists to
  // accelerate.
  bool ok = true;
  for (const CaseResult& r : results) {
    if (r.speedup() < 1.0) {
      std::cerr << "FAIL: " << r.section << "/" << r.name << " on " << r.device
                << ": fast path slower than legacy (" << format_fixed(r.speedup(), 2)
                << "x)\n";
      ok = false;
    }
    if (r.section == "micro" && r.vector_vs_fast() < 1.0) {
      std::cerr << "FAIL: " << r.section << "/" << r.name << " on " << r.device
                << ": vector path slower than fast ("
                << format_fixed(r.vector_vs_fast(), 2) << "x)\n";
      ok = false;
    }
  }
  // Full runs also hold the committed vector-vs-fast micro target; smoke
  // runs skip it (short loops are too noisy for a tight ratio gate).
  if (!smoke && micro_vector_vs_fast < 3.0) {
    std::cerr << "FAIL: micro vector-vs-fast geomean "
              << format_fixed(micro_vector_vs_fast, 2) << "x < 3.00x target\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
