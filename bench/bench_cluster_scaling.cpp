// Cluster elasticity sweep: replays generated traffic traces through
// wsim::cluster::run_cluster, crossing tenant count x trace shape x
// autoscaler on/off, and records tail latency, goodput, SLO violation
// rate, device-hours, and cost per million requests. The headline result:
// on a bursty trace the queue-depth autoscaler holds p99 within the SLO
// while billing fewer device-hours than a fixed fleet provisioned for the
// peak (the fixed-max baseline) — elasticity buys the peak's tail latency
// at closer to the mean's cost.
//
// Besides the ASCII table (and the WSIM_CSV_DIR mirror), the sweep is
// written to BENCH_cluster.json in the working directory. `--smoke`
// shrinks the grid and trace length for CI and still enforces the
// headline contract.

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "wsim/cluster/cluster.hpp"
#include "wsim/obs/json.hpp"
#include "wsim/util/table.hpp"
#include "wsim/workload/trace.hpp"

namespace {

namespace cluster = wsim::cluster;
namespace workload = wsim::workload;
using wsim::util::format_fixed;
using wsim::util::format_percent;

constexpr double kSloSeconds = 20e-3;
constexpr double kRateHz = 20000.0;
constexpr std::size_t kMaxWorkers = 4;

struct SweepPoint {
  std::size_t tenants = 0;
  std::string shape;
  bool autoscaled = false;
  std::size_t completed = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double goodput_rps = 0.0;
  double slo_violation_rate = 0.0;
  double device_hours = 0.0;
  std::size_t peak_workers = 0;
  std::size_t joins = 0;
  std::size_t drains = 0;
  double cost_per_million = 0.0;
};

using wsim::obs::json_number;

void write_json(const std::string& path, const std::vector<SweepPoint>& points) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << '\n';
    return;
  }
  out << "{\n  \"bench\": \"cluster_scaling\",\n  \"slo_ms\": "
      << json_number(kSloSeconds * 1e3) << ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    out << "    {\"tenants\": " << p.tenants << ", \"shape\": \"" << p.shape
        << "\", \"autoscaler\": " << (p.autoscaled ? "true" : "false")
        << ", \"completed\": " << p.completed
        << ", \"latency_p50_ms\": " << json_number(p.p50_ms)
        << ", \"latency_p95_ms\": " << json_number(p.p95_ms)
        << ", \"latency_p99_ms\": " << json_number(p.p99_ms)
        << ", \"goodput_rps\": " << json_number(p.goodput_rps)
        << ", \"slo_violation_rate\": " << json_number(p.slo_violation_rate)
        << ", \"device_hours\": " << json_number(p.device_hours)
        << ", \"peak_workers\": " << p.peak_workers
        << ", \"joins\": " << p.joins << ", \"drains\": " << p.drains
        << ", \"cost_per_million_requests\": "
        << json_number(p.cost_per_million) << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "(json written to " << path << ")\n";
}

workload::Trace make_trace(std::size_t tenants, workload::TraceShape shape,
                           double duration) {
  workload::TraceConfig cfg;
  cfg.seed = 42;
  cfg.duration_seconds = duration;
  cfg.shape = shape;
  for (std::size_t i = 0; i < tenants; ++i) {
    workload::TenantTraffic traffic;
    traffic.name = "tenant-" + std::to_string(i);
    traffic.rate_hz = kRateHz / static_cast<double>(tenants);
    cfg.tenants.push_back(std::move(traffic));
  }
  return workload::generate_trace(cfg);
}

SweepPoint run_point(const workload::Dataset& dataset,
                     const workload::Trace& trace, bool autoscaled) {
  cluster::ClusterConfig cfg;
  cfg.worker.device = wsim::simt::make_k1200();
  cfg.autoscaler.enabled = autoscaled;
  cfg.autoscaler.min_workers = 1;
  cfg.autoscaler.max_workers = kMaxWorkers;
  // The fixed baseline provisions for the peak: max workers all run long.
  cfg.initial_workers = autoscaled ? 1 : kMaxWorkers;
  for (const std::string& name : trace.tenants) {
    wsim::serve::TenantConfig tenant;
    tenant.name = name;
    tenant.slo_seconds = kSloSeconds;
    cfg.tenants.push_back(std::move(tenant));
  }

  const cluster::ClusterReport report =
      cluster::run_cluster(dataset, trace, cfg);
  SweepPoint point;
  point.tenants = trace.tenants.size();
  point.autoscaled = autoscaled;
  point.completed = report.service.completed();
  point.p50_ms = report.service.latency.p50 * 1e3;
  point.p95_ms = report.service.latency.p95 * 1e3;
  point.p99_ms = report.service.latency.p99 * 1e3;
  point.goodput_rps = report.goodput_rps;
  point.slo_violation_rate = report.slo_violation_rate;
  point.device_hours = report.device_hours;
  point.peak_workers = report.peak_workers;
  point.joins = report.fleet.joins;
  point.drains = report.fleet.drains;
  point.cost_per_million = report.cost_per_million;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  wsim::bench::banner("cluster extension",
                      "autoscaled multi-tenant serving vs fixed fleets");

  auto gen = wsim::bench::standard_dataset_config();
  gen.regions = smoke ? 2 : 8;
  const auto dataset = wsim::workload::generate_dataset(gen);
  const double duration = smoke ? 0.2 : 0.5;

  const std::vector<std::size_t> tenant_counts =
      smoke ? std::vector<std::size_t>{2} : std::vector<std::size_t>{1, 3};
  const std::vector<workload::TraceShape> shapes =
      smoke ? std::vector<workload::TraceShape>{workload::TraceShape::kBursty}
            : std::vector<workload::TraceShape>{workload::TraceShape::kSteady,
                                                workload::TraceShape::kDiurnal,
                                                workload::TraceShape::kBursty};

  std::cout << "K1200 scale unit x [1.." << kMaxWorkers << "], "
            << format_fixed(kRateHz, 0) << " req/s aggregate, SLO "
            << format_fixed(kSloSeconds * 1e3, 0) << " ms, "
            << format_fixed(duration * 1e3, 0) << " ms traces\n\n";

  std::vector<SweepPoint> points;
  wsim::util::Table table({"tenants", "shape", "autoscaler", "p99 (ms)",
                           "goodput (req/s)", "SLO viol.", "device-s",
                           "peak", "joins/drains"});
  // The bursty x autoscaled point and its fixed-max twin back the
  // headline contract below.
  double bursty_auto_p99 = 0.0, bursty_auto_hours = 0.0;
  double bursty_auto_viol = 1.0, bursty_fixed_hours = 0.0;
  for (const std::size_t tenants : tenant_counts) {
    for (const workload::TraceShape shape : shapes) {
      const workload::Trace trace = make_trace(tenants, shape, duration);
      for (const bool autoscaled : {false, true}) {
        SweepPoint point = run_point(dataset, trace, autoscaled);
        point.shape = std::string(workload::to_string(shape));
        table.add_row({std::to_string(point.tenants), point.shape,
                       autoscaled ? "on" : "off (max)",
                       format_fixed(point.p99_ms, 3),
                       format_fixed(point.goodput_rps, 0),
                       format_percent(point.slo_violation_rate),
                       format_fixed(point.device_hours * 3600.0, 3),
                       std::to_string(point.peak_workers),
                       std::to_string(point.joins) + "/" +
                           std::to_string(point.drains)});
        if (shape == workload::TraceShape::kBursty &&
            tenants == tenant_counts.back()) {
          if (autoscaled) {
            bursty_auto_p99 = point.p99_ms;
            bursty_auto_hours = point.device_hours;
            bursty_auto_viol = point.slo_violation_rate;
          } else {
            bursty_fixed_hours = point.device_hours;
          }
        }
        points.push_back(std::move(point));
      }
    }
  }
  table.print(std::cout);

  wsim::bench::maybe_write_csv("cluster_scaling", table);
  write_json("BENCH_cluster.json", points);

  std::cout <<
      "\nExpected shape:\n"
      "  * the fixed-max fleet buys the best tail latency at full price:\n"
      "    max workers bill for the whole run even in the valleys;\n"
      "  * the autoscaler tracks the load curve — joins on the bursts,\n"
      "    drains in the valleys — holding p99 within the SLO on the\n"
      "    bursty trace for fewer device-hours;\n"
      "  * steady traces give the autoscaler nothing to exploit, so the\n"
      "    two columns converge there.\n";

  // Headline contract, enforced in CI via --smoke: elasticity must hold
  // the SLO on the bursty trace and undercut peak provisioning.
  if (!(bursty_auto_p99 > 0.0) || bursty_auto_p99 > kSloSeconds * 1e3) {
    std::cerr << "FAIL: autoscaled bursty p99 " << bursty_auto_p99
              << " ms exceeds the " << kSloSeconds * 1e3 << " ms SLO\n";
    return 1;
  }
  if (!(bursty_auto_hours < bursty_fixed_hours)) {
    std::cerr << "FAIL: autoscaled bursty run billed " << bursty_auto_hours
              << " device-hours, not less than the fixed-max fleet's "
              << bursty_fixed_hours << "\n";
    return 1;
  }
  std::cout << "\nOK: autoscaler held bursty p99 at "
            << format_fixed(bursty_auto_p99, 3) << " ms ("
            << format_percent(bursty_auto_viol) << " SLO violations) with "
            << format_fixed(bursty_auto_hours / bursty_fixed_hours * 100.0, 1)
            << "% of the fixed-max fleet's device-hours\n";
  return 0;
}
