// Latency/throughput trade-off of the online serving layer: replays the
// standard dataset as an open-loop Poisson arrival process through
// wsim::serve::AlignmentService, sweeping arrival rate x batching delay.
// This is the paper's Fig. 10 re-batching result operated online — longer
// batching delays form larger launches (higher GCUPS, better device
// utilization) at the cost of per-request latency.
//
// Besides the ASCII table (and the WSIM_CSV_DIR mirror), the sweep is
// written to BENCH_serve.json in the working directory so tooling can
// track the trade-off without parsing the table.

#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_common.hpp"
#include "wsim/fleet/fleet.hpp"
#include "wsim/serve/service.hpp"
#include "wsim/util/rng.hpp"
#include "wsim/util/table.hpp"
#include "wsim/workload/batching.hpp"

namespace {

using wsim::util::format_fixed;

struct Arrival {
  bool is_sw = false;
  std::size_t index = 0;
};

struct SweepPoint {
  double rate = 0.0;      ///< offered arrival rate, requests/simulated-second
  double delay_us = 0.0;  ///< BatchPolicy::max_batch_delay, microseconds
  wsim::serve::ServiceStats stats;
};

std::string json_escape_free_number(double value) {
  // JSON has no NaN/Inf; the sweep never produces them, but guard anyway.
  if (!std::isfinite(value)) {
    return "0";
  }
  std::ostringstream os;
  os << value;
  return os.str();
}

void write_json(const std::string& path, const std::vector<SweepPoint>& points) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << '\n';
    return;
  }
  out << "{\n  \"bench\": \"serve_latency\",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    const auto& s = p.stats;
    out << "    {\"arrival_rate\": " << json_escape_free_number(p.rate)
        << ", \"batch_delay_us\": " << json_escape_free_number(p.delay_us)
        << ", \"submitted\": " << s.submitted()
        << ", \"completed\": " << s.completed()
        << ", \"rejected\": " << s.rejected()
        << ", \"throughput_tasks_per_s\": "
        << json_escape_free_number(s.throughput_tasks_per_second())
        << ", \"gcups\": " << json_escape_free_number(s.gcups())
        << ", \"mean_batch_size\": "
        << json_escape_free_number(s.batch_sizes.mean_size())
        << ", \"latency_p50_s\": " << json_escape_free_number(s.latency.p50)
        << ", \"latency_p95_s\": " << json_escape_free_number(s.latency.p95)
        << ", \"latency_p99_s\": " << json_escape_free_number(s.latency.p99)
        << ", \"device_utilization\": "
        << json_escape_free_number(s.device_utilization()) << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "(json written to " << path << ")\n";
}

}  // namespace

int main() {
  wsim::bench::banner("serving extension",
                      "online re-batching: arrival rate x batching delay");

  auto gen = wsim::bench::standard_dataset_config();
  gen.regions = 24;  // keep the sweep interactive
  const auto dataset = wsim::workload::generate_dataset(gen);
  const auto sw_tasks = wsim::workload::sw_all_tasks(dataset);
  const auto ph_tasks = wsim::workload::ph_all_tasks(dataset);

  // Interleaved request stream, fixed across every sweep point.
  std::vector<Arrival> arrivals;
  arrivals.reserve(sw_tasks.size() + ph_tasks.size());
  for (std::size_t i = 0; i < sw_tasks.size(); ++i) {
    arrivals.push_back({true, i});
  }
  for (std::size_t i = 0; i < ph_tasks.size(); ++i) {
    arrivals.push_back({false, i});
  }
  wsim::util::Rng shuffle_rng(7);
  shuffle_rng.shuffle(arrivals);
  std::cout << "request stream: " << sw_tasks.size() << " SW + "
            << ph_tasks.size() << " PairHMM tasks\n\n";

  const std::vector<double> rates = {5e3, 2e4, 8e4};       // requests/s
  const std::vector<double> delays_us = {50, 200, 1000};   // max batch delay

  const auto device = wsim::simt::make_k1200();
  std::vector<SweepPoint> points;
  wsim::util::Table table({"rate (req/s)", "delay (us)", "batches",
                           "mean batch", "p50 (ms)", "p95 (ms)", "p99 (ms)",
                           "tput (req/s)", "GCUPS", "device util"});
  for (const double rate : rates) {
    for (const double delay_us : delays_us) {
      // One K1200 with the shuffle designs: a one-worker fleet.
      wsim::fleet::FleetConfig fleet_cfg;
      fleet_cfg.workers = {{device,
                            wsim::kernels::CommMode::kShuffle,
                            wsim::kernels::PhDesign::kShuffle,
                            {},
                            8}};
      fleet_cfg.parallelism = wsim::fleet::ParallelismPolicy::kInterTask;
      fleet_cfg.engine = &wsim::bench::bench_engine();
      wsim::fleet::FleetExecutor executor(std::move(fleet_cfg));
      wsim::serve::ServiceConfig cfg;
      cfg.collect_outputs = false;  // timing-only: shape-cached execution
      cfg.policy.max_batch_delay = delay_us * 1e-6;
      cfg.fleet = &executor;
      wsim::serve::AlignmentService service(cfg);

      wsim::util::Rng rng(1234);  // identical interarrival draws per point
      double t = 0.0;
      for (const Arrival& arrival : arrivals) {
        t += -std::log(1.0 - rng.uniform01()) / rate;
        service.advance_to(t);
        if (arrival.is_sw) {
          (void)service.submit(
              wsim::serve::SwRequest{sw_tasks[arrival.index], {}, {}, {}, {}});
        } else {
          (void)service.submit(
              wsim::serve::PairHmmRequest{ph_tasks[arrival.index], {}, {}, {}, {}});
        }
      }
      service.drain();
      const auto stats = service.stats();
      points.push_back({rate, delay_us, stats});
      table.add_row({format_fixed(rate, 0), format_fixed(delay_us, 0),
                     std::to_string(stats.batch_sizes.batches),
                     format_fixed(stats.batch_sizes.mean_size(), 2),
                     format_fixed(stats.latency.p50 * 1e3, 3),
                     format_fixed(stats.latency.p95 * 1e3, 3),
                     format_fixed(stats.latency.p99 * 1e3, 3),
                     format_fixed(stats.throughput_tasks_per_second(), 0),
                     format_fixed(stats.gcups(), 2),
                     format_fixed(stats.device_utilization() * 100.0, 1) + "%"});
    }
  }
  std::cout << "--- " << device.name << " ---\n";
  table.print(std::cout);
  wsim::bench::maybe_write_csv("serve_latency", table);
  write_json("BENCH_serve.json", points);

  std::cout <<
      "\nExpected shape (Fig. 10 trade-off, operated online):\n"
      "  * at a fixed rate, longer batching delays form larger batches and\n"
      "    raise GCUPS/utilization while p50 latency grows roughly by the\n"
      "    added delay;\n"
      "  * at a fixed delay, higher arrival rates fill batches faster, so\n"
      "    the latency cost of batching shrinks as load grows.\n";
  return 0;
}
