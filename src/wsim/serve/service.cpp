#include "wsim/serve/service.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "wsim/obs/metrics.hpp"
#include "wsim/obs/obs.hpp"
#include "wsim/util/check.hpp"
#include "wsim/workload/batching.hpp"

namespace wsim::serve {

namespace {

constexpr SimTime kForever = std::numeric_limits<SimTime>::infinity();

void note_reject(SimTime ts, RejectReason reason) {
  static obs::Counter c_rejected("serve.rejected");
  c_rejected.add();
  obs::instant(ts, obs::Layer::kServe, "serve.reject", -1, 0,
               static_cast<double>(static_cast<int>(reason)));
}

/// A batch the fleet could not complete: every retry attempt failed, or
/// verification never passed with the CPU fallback disabled.
void note_batch_failure(SimTime formed, std::uint64_t order, const char* what) {
  static obs::Counter c_failed("serve.batch_failures");
  c_failed.add();
  obs::instant(formed, obs::Layer::kServe, "serve.batch_failure", -1, order);
  obs::dump_flight(std::string("serve ticket failure: ") + what, -1, order,
                   formed);
}

/// Per-kind serve instruments. Each kind's set is defined once, in a
/// non-template function: a function-local static inside the templated
/// submit/flush would register once per instantiation, and the metrics
/// dump would repeat its key.
struct KindMetrics {
  template <typename Kind>
  explicit KindMetrics(Kind)
      : submitted(Kind::kSubmittedMetric),
        batches(Kind::kBatchesMetric),
        batch_cells(Kind::kBatchCellsMetric) {}

  obs::Counter submitted;
  obs::Counter batches;
  obs::Histogram batch_cells;
};

KindMetrics& metrics(fleet::SwKind kind) {
  static KindMetrics m(kind);
  return m;
}

KindMetrics& metrics(fleet::PhKind kind) {
  static KindMetrics m(kind);
  return m;
}

void set_output(SwResponse& response, const kernels::SwBatchResult& result,
                std::size_t i) {
  response.alignment = result.outputs[i].alignment;
}

void set_output(PairHmmResponse& response, const kernels::PhBatchResult& result,
                std::size_t i) {
  response.log10 = result.log10[i];
}

}  // namespace

AlignmentService::AlignmentService(ServiceConfig config)
    : config_(std::move(config)),
      fleet_(config_.fleet),
      sw_queue_(config_.max_queue_tasks, config_.max_queue_cells),
      ph_queue_(config_.max_queue_tasks, config_.max_queue_cells) {
  util::require(fleet_ != nullptr,
                "AlignmentService: ServiceConfig::fleet is required (a "
                "single-device service is a one-worker FleetExecutor)");
  util::require(config_.policy.max_batch_tasks >= 1,
                "AlignmentService: max_batch_tasks must be >= 1");
  util::require(config_.policy.target_batch_cells >= 1,
                "AlignmentService: target_batch_cells must be >= 1");
  util::require(config_.policy.max_batch_delay >= 0.0,
                "AlignmentService: max_batch_delay must be >= 0");
  util::require(config_.length_granularity >= 1,
                "AlignmentService: length_granularity must be >= 1");
  // Tenant 0 is the permissive default every unnamed (or unknown)
  // submission lands in; configured tenants follow in config order.
  tenants_.emplace_back();
  for (const TenantConfig& tenant : config_.tenants) {
    util::require(!tenant.name.empty(),
                  "AlignmentService: configured tenants need a name");
    TenantState state;
    state.cfg = tenant;
    tenants_.push_back(std::move(state));
  }
}

std::uint32_t AlignmentService::tenant_index(const std::string& name) {
  if (name.empty()) {
    return 0;
  }
  for (std::size_t i = 1; i < tenants_.size(); ++i) {
    if (tenants_[i].cfg.name == name) {
      return static_cast<std::uint32_t>(i);
    }
  }
  // Unknown tenant: admit permissively but keep its own accounting row.
  TenantState state;
  state.cfg.name = name;
  tenants_.push_back(std::move(state));
  return static_cast<std::uint32_t>(tenants_.size() - 1);
}

template <typename E>
RejectReason AlignmentService::admit_tenant(const std::string& name, E& entry) {
  entry.tenant = tenant_index(name);
  TenantState& tenant = tenants_[entry.tenant];
  if (tenant.cfg.max_queued_tasks != 0 &&
      tenant.queued_tasks + 1 > tenant.cfg.max_queued_tasks) {
    ++tenant.rejected_quota;
    ++totals_.rejected_tenant_quota;
    return RejectReason::kTenantTasksQuota;
  }
  if (tenant.cfg.max_queued_cells != 0 &&
      tenant.queued_cells + entry.cells > tenant.cfg.max_queued_cells) {
    ++tenant.rejected_quota;
    ++totals_.rejected_tenant_quota;
    return RejectReason::kTenantCellsQuota;
  }
  // SLO class: derive the deadline and lane the tenant contracted for
  // unless the request pinned its own.
  if (tenant.cfg.slo_seconds > 0.0 && !entry.deadline.has_value()) {
    entry.deadline = clock_ + tenant.cfg.slo_seconds;
  }
  if (tenant.cfg.priority.has_value() || tenant.cfg.slo_seconds > 0.0) {
    entry.priority = tenant.cfg.effective_priority();
  }
  return RejectReason::kNone;
}

SwSubmit AlignmentService::submit(SwRequest request) {
  return admit<fleet::SwKind>(std::move(request));
}

PairHmmSubmit AlignmentService::submit(PairHmmRequest request) {
  return admit<fleet::PhKind>(std::move(request));
}

template <typename Kind>
AdmissionQueue<AlignmentService::KindEntry<Kind>>& AlignmentService::queue_of() {
  if constexpr (Kind::kIsSw) {
    return sw_queue_;
  } else {
    return ph_queue_;
  }
}

template <typename Kind, typename Request>
Submit<typename Kind::Response> AlignmentService::admit(Request request) {
  Kind::check_task(request.task);
  Submit<typename Kind::Response> result;
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_) {
    ++totals_.rejected_stopped;
    note_reject(clock_, RejectReason::kStopped);
    result.rejected = RejectReason::kStopped;
    return result;
  }
  KindEntry<Kind> entry;
  entry.cells = workload::cells(request.task);
  entry.task = std::move(request.task);
  entry.priority = request.priority;
  entry.deadline = request.deadline;
  entry.submit_time = clock_;
  const RejectReason quota = admit_tenant(request.tenant, entry);
  if (quota != RejectReason::kNone) {
    note_reject(clock_, quota);
    result.rejected = quota;
    return result;
  }
  entry.slot = std::make_shared<detail::ResponseSlot<typename Kind::Response>>();
  entry.slot->callback = std::move(request.callback);
  Ticket<typename Kind::Response> ticket(entry.slot);
  const std::uint32_t tenant_idx = entry.tenant;
  const std::size_t cells = entry.cells;
  const RejectReason reason = queue_of<Kind>().try_push(std::move(entry));
  if (reason != RejectReason::kNone) {
    reason == RejectReason::kQueueTasksFull ? ++totals_.rejected_tasks_full
                                            : ++totals_.rejected_cells_full;
    note_reject(clock_, reason);
    result.rejected = reason;
    return result;
  }
  if (totals_.submitted() == 0) {
    totals_.first_submit_time = clock_;
  }
  ++(Kind::kIsSw ? totals_.sw_submitted : totals_.ph_submitted);
  metrics(Kind{}).submitted.add();
  obs::instant(clock_, obs::Layer::kServe, Kind::kSubmitEvent, -1, 0,
               static_cast<double>(tenant_idx), static_cast<double>(cells));
  TenantState& tenant = tenants_[tenant_idx];
  ++tenant.submitted;
  ++tenant.queued_tasks;
  tenant.queued_cells += cells;
  result.ticket = std::move(ticket);
  flush_while_over_target();
  return result;
}

SimTime AlignmentService::now() const {
  std::lock_guard<std::mutex> lock(mu_);
  return clock_;
}

void AlignmentService::advance_to(SimTime t) {
  Callbacks callbacks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    process_until(t, callbacks);
    clock_ = std::max(clock_, t);
    obs::set_sim_time(clock_);
  }
  for (auto& callback : callbacks) {
    callback();
  }
}

SimTime AlignmentService::drain() {
  Callbacks callbacks;
  SimTime end = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    process_until(kForever, callbacks);
    end = clock_;
  }
  for (auto& callback : callbacks) {
    callback();
  }
  return end;
}

void AlignmentService::stop() {
  std::lock_guard<std::mutex> lock(mu_);
  stopped_ = true;
}

ServiceStats AlignmentService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats snapshot = totals_;
  snapshot.queue_depth = sw_queue_.size() + ph_queue_.size();
  snapshot.queued_cells = sw_queue_.cells() + ph_queue_.cells();
  snapshot.in_flight_batches = in_flight_.size();
  // The fleet runs the guard ladder for batches we dispatch to it; its
  // lifetime accounting is the service's resilience view.
  const guard::GuardStats fleet_guard = fleet_->stats().guard;
  snapshot.sdc_flips = fleet_guard.sdc_flips;
  snapshot.sdc_detected = fleet_guard.sdc_detected;
  snapshot.sdc_corrected = fleet_guard.sdc_corrected;
  snapshot.cpu_fallbacks = fleet_guard.cpu_fallbacks;
  snapshot.watchdog_timeouts = fleet_guard.watchdog_timeouts;
  snapshot.latency = summarize_latency(latency_samples_);
  snapshot.queue_wait = summarize_latency(queue_wait_samples_);
  for (const TenantState& tenant : tenants_) {
    // The default tenant only reports when it actually carried traffic.
    if (tenant.cfg.name.empty() && tenant.submitted == 0) {
      continue;
    }
    TenantStats row;
    row.name = tenant.cfg.name;
    row.submitted = tenant.submitted;
    row.completed = tenant.completed;
    row.rejected_quota = tenant.rejected_quota;
    row.queued_tasks = tenant.queued_tasks;
    row.queued_cells = tenant.queued_cells;
    row.deadlines_met = tenant.deadlines_met;
    row.deadlines_missed = tenant.deadlines_missed;
    row.slo_seconds = tenant.cfg.slo_seconds;
    row.latency = summarize_latency(tenant.latency_samples);
    snapshot.tenants.push_back(std::move(row));
  }
  return snapshot;
}

QueueSnapshot AlignmentService::queue_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  QueueSnapshot snapshot;
  snapshot.queued_tasks = sw_queue_.size() + ph_queue_.size();
  snapshot.queued_cells = sw_queue_.cells() + ph_queue_.cells();
  snapshot.in_flight_batches = in_flight_.size();
  snapshot.oldest_submit_time = sw_queue_.oldest_submit_time();
  const std::optional<SimTime> ph_oldest = ph_queue_.oldest_submit_time();
  if (ph_oldest.has_value() && (!snapshot.oldest_submit_time.has_value() ||
                                *ph_oldest < *snapshot.oldest_submit_time)) {
    snapshot.oldest_submit_time = ph_oldest;
  }
  return snapshot;
}

/// Deterministic event loop: repeatedly picks the earliest due event —
/// an in-flight completion, an SW flush, or a PH flush, in that order on
/// ties — clamps overdue events to the current clock, and processes it,
/// until nothing is due at or before `limit`.
void AlignmentService::process_until(SimTime limit, Callbacks& callbacks) {
  for (;;) {
    int kind = -1;  // 0 deliver, 1 flush SW, 2 flush PH
    SimTime when = kForever;
    std::size_t flight_index = 0;
    for (std::size_t i = 0; i < in_flight_.size(); ++i) {
      const InFlight& flight = in_flight_[i];
      if (kind != 0 || flight.completion_time < when ||
          (flight.completion_time == when &&
           flight.order < in_flight_[flight_index].order)) {
        kind = 0;
        when = flight.completion_time;
        flight_index = i;
      }
    }
    const auto consider = [&](std::optional<SimTime> due, int flush_kind) {
      if (due.has_value() && std::max(*due, clock_) < std::max(when, clock_)) {
        kind = flush_kind;
        when = *due;
      }
    };
    consider(next_flush_time(sw_queue_, config_.policy, estimator_), 1);
    consider(next_flush_time(ph_queue_, config_.policy, estimator_), 2);
    if (kind < 0) {
      return;
    }
    const SimTime effective = std::max(when, clock_);
    if (effective > limit) {
      return;
    }
    clock_ = effective;
    obs::set_sim_time(clock_);
    switch (kind) {
      case 0: deliver_in_flight(flight_index, callbacks); break;
      case 1: flush<fleet::SwKind>(); break;
      default: flush<fleet::PhKind>(); break;
    }
  }
}

void AlignmentService::deliver_in_flight(std::size_t index, Callbacks& callbacks) {
  obs::instant(clock_, obs::Layer::kServe, "serve.deliver", -1,
               in_flight_[index].order);
  auto ready = in_flight_[index].deliver();
  callbacks.insert(callbacks.end(), std::make_move_iterator(ready.begin()),
                   std::make_move_iterator(ready.end()));
  in_flight_.erase(in_flight_.begin() + static_cast<std::ptrdiff_t>(index));
}

/// The cell-target and task-cap triggers fire at submit time: a queue
/// that already holds a full batch has nothing left to wait for.
void AlignmentService::flush_while_over_target() {
  const auto over_target = [&](const auto& queue) {
    return queue.cells() >= config_.policy.target_batch_cells ||
           queue.size() >= config_.policy.max_batch_tasks;
  };
  while (over_target(sw_queue_)) {
    flush<fleet::SwKind>();
  }
  while (over_target(ph_queue_)) {
    flush<fleet::PhKind>();
  }
}

template <typename Kind>
void AlignmentService::flush() {
  using Response = typename Kind::Response;
  auto entries = queue_of<Kind>().pop_batch(config_.policy.max_batch_tasks,
                                            config_.policy.target_batch_cells);
  if (entries.empty()) {
    return;
  }
  for (const auto& entry : entries) {
    --tenants_[entry.tenant].queued_tasks;
    tenants_[entry.tenant].queued_cells -= entry.cells;
  }
  // gpuPairHMM-style grouping: similar-length tasks adjacent, so blocks
  // scheduled together have similar cost.
  std::stable_sort(entries.begin(), entries.end(),
                   [&](const auto& x, const auto& y) {
                     return workload::length_bucket(x.task, config_.length_granularity) <
                            workload::length_bucket(y.task, config_.length_granularity);
                   });
  typename Kind::Batch batch;
  batch.reserve(entries.size());
  std::size_t batch_cells = 0;
  for (auto& entry : entries) {
    batch.push_back(std::move(entry.task));
    batch_cells += entry.cells;
  }

  const SimTime formed = clock_;
  KindMetrics& m = metrics(Kind{});
  m.batches.add();
  m.batch_cells.observe(static_cast<double>(batch_cells));
  obs::instant(formed, obs::Layer::kServe, Kind::kFlushEvent, -1, batch_order_,
               static_cast<double>(entries.size()),
               static_cast<double>(batch_cells));
  fleet::ExecOptions exec_options;
  exec_options.collect_outputs = config_.collect_outputs;
  exec_options.overlap_transfers = config_.overlap_transfers;
  exec_options.double_fallback = config_.double_fallback;
  typename Kind::Execution executed;
  try {
    executed = fleet_->execute<Kind>(batch, formed, exec_options);
  } catch (const util::CheckError& e) {
    note_batch_failure(formed, batch_order_, e.what());
    // No callbacks fire: they take a Response, which never came to exist.
    for (auto& entry : entries) {
      entry.slot->error = e.what();
    }
    totals_.failed += entries.size();
    return;
  }
  const fleet::Execution& exec = executed.exec;
  estimator_.observe(batch_cells, exec.busy_seconds);
  totals_.batch_sizes.record(entries.size());
  totals_.device_busy_seconds += exec.busy_seconds;

  std::vector<Response> responses(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    Response& response = responses[i];
    if (config_.collect_outputs) {
      set_output(response, executed.result, i);
    }
    response.latency = {entries[i].submit_time, formed, exec.start_time,
                        exec.completion_time};
    response.batch_tasks = entries.size();
    response.deadline_met = !entries[i].deadline.has_value() ||
                            exec.completion_time <= *entries[i].deadline;
  }
  // The responses wait here for the batch's simulated completion time.
  InFlight flight;
  flight.completion_time = exec.completion_time;
  flight.order = batch_order_++;
  flight.deliver = [this, entries = std::move(entries),
                    responses = std::move(responses)]() mutable {
    Callbacks ready;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const auto& entry = entries[i];
      Response& response = responses[i];
      latency_samples_.push_back(response.latency.total_seconds());
      queue_wait_samples_.push_back(response.latency.queue_seconds());
      TenantState& tenant = tenants_[entry.tenant];
      ++tenant.completed;
      tenant.latency_samples.push_back(response.latency.total_seconds());
      if (entry.deadline.has_value()) {
        response.deadline_met ? ++totals_.deadlines_met : ++totals_.deadlines_missed;
        response.deadline_met ? ++tenant.deadlines_met : ++tenant.deadlines_missed;
      }
      totals_.completed_cells += entry.cells;
      ++(Kind::kIsSw ? totals_.sw_completed : totals_.ph_completed);
      totals_.last_completion_time =
          std::max(totals_.last_completion_time, response.latency.completion_time);
      auto slot = entry.slot;
      slot->response = std::move(response);
      if (slot->callback) {
        ready.push_back([slot]() { slot->callback(*slot->response); });
      }
    }
    return ready;
  };
  in_flight_.push_back(std::move(flight));
}

}  // namespace wsim::serve
