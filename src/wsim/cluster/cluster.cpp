#include "wsim/cluster/cluster.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

#include "wsim/fleet/router.hpp"
#include "wsim/obs/json.hpp"
#include "wsim/obs/metrics.hpp"
#include "wsim/obs/obs.hpp"
#include "wsim/util/check.hpp"

namespace wsim::cluster {

namespace {

/// Flattened task pools the trace's task_index draws from.
struct TaskPools {
  std::vector<const workload::SwTask*> sw;
  std::vector<const align::PairHmmTask*> ph;
};

TaskPools flatten(const workload::Dataset& dataset) {
  TaskPools pools;
  for (const workload::Region& region : dataset.regions) {
    for (const workload::SwTask& task : region.sw_tasks) {
      pools.sw.push_back(&task);
    }
    for (const align::PairHmmTask& task : region.ph_tasks) {
      pools.ph.push_back(&task);
    }
  }
  return pools;
}

using obs::json_number;

}  // namespace

ClusterReport run_cluster(const workload::Dataset& dataset,
                          const workload::Trace& trace,
                          const ClusterConfig& config) {
  util::require(config.initial_workers >= 1,
                "run_cluster: initial_workers must be >= 1");
  util::require(config.control_interval_seconds > 0.0,
                "run_cluster: control_interval_seconds must be > 0");
  const TaskPools pools = flatten(dataset);
  util::require(!pools.sw.empty() && !pools.ph.empty(),
                "run_cluster: dataset needs SW and PairHMM tasks");

  fleet::FleetConfig fleet_config;
  fleet_config.workers.assign(config.initial_workers, config.worker);
  fleet_config.policy = config.policy;
  fleet_config.faults = config.faults;
  fleet_config.retry = config.retry;
  fleet_config.calibration = config.calibration;
  fleet_config.join_warmup_seconds = config.join_warmup_seconds;
  fleet::FleetExecutor fleet(fleet_config);

  serve::ServiceConfig service_config;
  service_config.policy = config.batch;
  service_config.max_queue_tasks = config.max_queue_tasks;
  service_config.max_queue_cells = config.max_queue_cells;
  service_config.collect_outputs = config.collect_outputs;
  service_config.fleet = &fleet;
  service_config.tenants = config.tenants;
  serve::AlignmentService service(service_config);

  // Eq. 7/8 capacity of one scale-unit device on the dominant kernel
  // (PairHMM carries ~98% of HaplotypeCaller's cells) converts queue
  // depth into backlog seconds and sizes join steps. Every member runs
  // config.worker, so member 0's PairHMM design is the scale unit's.
  const double device_gcups =
      fleet::predicted_ph_gcups(config.worker.device, fleet.ph_design(0));
  Autoscaler autoscaler(config.autoscaler, device_gcups);

  ClusterReport report;
  report.members.reserve(config.initial_workers);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    MemberRecord member;
    member.id = static_cast<fleet::DeviceId>(i);
    report.members.push_back(member);
  }
  report.peak_workers = fleet.size();

  const auto serving_count = [&](double t) {
    std::size_t serving = 0;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      const fleet::WorkerState s =
          fleet.state(static_cast<fleet::DeviceId>(i), t);
      if (s != fleet::WorkerState::kDraining &&
          s != fleet::WorkerState::kRetired) {
        ++serving;
      }
    }
    return serving;
  };

  const auto control_tick = [&](double t) {
    obs::set_sim_time(t);
    obs::Span tick_span(obs::Layer::kCluster, "cluster.tick");
    static obs::Counter c_ticks("cluster.ticks");
    c_ticks.add();
    // Retire draining members whose timelines have drained: nothing is
    // queued on them (dispatches resolve against the timeline, so
    // free_at <= t means every batch placed there has completed).
    for (MemberRecord& member : report.members) {
      if (member.retired ||
          fleet.state(member.id, t) != fleet::WorkerState::kDraining) {
        continue;
      }
      if (fleet.free_at(member.id) <= t) {
        fleet.retire(member.id, t);
        member.retired = true;
        member.retired_at = t;
      }
    }
    const serve::QueueSnapshot queue = service.queue_snapshot();
    const std::size_t serving = serving_count(t);
    // The control signal counts *outstanding* work: cells still in the
    // admission queues plus the in-flight backlog already placed on
    // device timelines (residual busy seconds converted back to cells at
    // predicted capacity). Queue depth alone misses saturation — the
    // batch former drains the queue into device timelines within one
    // batching delay, so a hopelessly backlogged single worker can show
    // an empty queue at every tick.
    double outstanding = static_cast<double>(queue.queued_cells);
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      const fleet::DeviceId id = static_cast<fleet::DeviceId>(i);
      const double residual = fleet.free_at(id) - t;
      if (residual > 0.0) {
        outstanding += residual * device_gcups * 1e9;
      }
    }
    static obs::Gauge g_workers("cluster.serving_workers");
    static obs::Gauge g_backlog("cluster.outstanding_cells");
    g_workers.set(static_cast<double>(serving));
    g_backlog.set(outstanding);
    obs::counter(t, obs::Layer::kCluster, "cluster.serving_workers",
                 static_cast<double>(serving));
    obs::counter(t, obs::Layer::kCluster, "cluster.outstanding_cells",
                 outstanding);
    const ScaleDecision decision =
        autoscaler.decide(t, static_cast<std::size_t>(outstanding), serving,
                          fleet.calibrated_capacity_scale(t));
    if (decision.delta > 0) {
      static obs::Counter c_up("cluster.scale_ups");
      c_up.add();
      obs::instant(t, obs::Layer::kCluster, "cluster.scale_up", -1, 0,
                   static_cast<double>(decision.delta));
      for (int i = 0; i < decision.delta; ++i) {
        MemberRecord member;
        member.id = fleet.join(config.worker, t);
        member.joined_at = t;
        report.members.push_back(member);
      }
      report.peak_workers = std::max(report.peak_workers, serving_count(t));
    } else if (decision.delta < 0) {
      static obs::Counter c_down("cluster.scale_downs");
      c_down.add();
      obs::instant(t, obs::Layer::kCluster, "cluster.scale_down", -1, 0,
                   static_cast<double>(-decision.delta));
      // Drain newest-first so the longest-lived members stay — their
      // dispatch history (and so the fault plan's draws) is stable.
      int to_drain = -decision.delta;
      for (auto it = report.members.rbegin();
           it != report.members.rend() && to_drain > 0; ++it) {
        const fleet::WorkerState s = fleet.state(it->id, t);
        if (s == fleet::WorkerState::kDraining ||
            s == fleet::WorkerState::kRetired) {
          continue;
        }
        fleet.drain(it->id, t);
        --to_drain;
      }
    }
  };

  // Replay: interleave control ticks with trace arrivals in time order
  // (tick first on ties), all on the service's simulated clock.
  double next_tick = 0.0;
  for (const workload::TraceEvent& event : trace.events) {
    while (next_tick <= event.time) {
      service.advance_to(next_tick);
      control_tick(next_tick);
      next_tick += config.control_interval_seconds;
    }
    service.advance_to(event.time);
    const std::string& tenant = trace.tenants[event.tenant];
    if (event.is_sw) {
      serve::SwRequest request;
      request.task = *pools.sw[event.task_index % pools.sw.size()];
      request.tenant = tenant;
      service.submit(std::move(request));
    } else {
      serve::PairHmmRequest request;
      request.task = *pools.ph[event.task_index % pools.ph.size()];
      request.tenant = tenant;
      service.submit(std::move(request));
    }
  }
  // Arrivals are over; keep ticking until the queues and in-flight work
  // drain, then let the service deliver the tail.
  for (;;) {
    service.advance_to(next_tick);
    control_tick(next_tick);
    const serve::QueueSnapshot queue = service.queue_snapshot();
    if (queue.queued_tasks == 0 && queue.in_flight_batches == 0) {
      break;
    }
    next_tick += config.control_interval_seconds;
  }
  const double end = std::max(service.drain(), trace.duration_seconds);

  report.service = service.stats();
  report.fleet = fleet.stats();
  report.duration_seconds =
      std::max(end, report.service.last_completion_time);
  double member_seconds = 0.0;
  for (MemberRecord& member : report.members) {
    if (!member.retired) {
      member.retired_at = report.duration_seconds;
    }
    member_seconds += member.retired_at - member.joined_at;
  }
  report.device_hours = member_seconds / 3600.0;
  const double duration = report.duration_seconds;
  const std::size_t good =
      report.service.completed() >= report.service.deadlines_missed
          ? report.service.completed() - report.service.deadlines_missed
          : 0;
  report.goodput_rps =
      duration > 0.0 ? static_cast<double>(good) / duration : 0.0;
  const std::size_t judged =
      report.service.deadlines_met + report.service.deadlines_missed;
  report.slo_violation_rate =
      judged > 0 ? static_cast<double>(report.service.deadlines_missed) /
                       static_cast<double>(judged)
                 : 0.0;
  report.cost_per_million =
      report.service.completed() > 0
          ? report.device_hours * config.cost_per_device_hour /
                static_cast<double>(report.service.completed()) * 1e6
          : 0.0;
  return report;
}

void write_cluster_json(std::ostream& os, const ClusterReport& report) {
  os << "{\n  \"schema_version\": " << obs::kStatsSchemaVersion
     << ",\n  \"cluster\": {"
     << "\"duration_s\": " << json_number(report.duration_seconds)
     << ", \"device_hours\": " << json_number(report.device_hours)
     << ", \"peak_workers\": " << report.peak_workers
     << ", \"members\": " << report.members.size()
     << ", \"goodput_rps\": " << json_number(report.goodput_rps)
     << ", \"slo_violation_rate\": " << json_number(report.slo_violation_rate)
     << ", \"cost_per_million_requests\": "
     << json_number(report.cost_per_million) << "},\n  \"service\": ";
  serve::write_stats_json(os, report.service, report.fleet);
  os << "\n}";
}

}  // namespace wsim::cluster
