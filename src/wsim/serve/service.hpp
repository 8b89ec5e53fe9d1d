#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "wsim/fleet/fleet.hpp"
#include "wsim/serve/batch_former.hpp"
#include "wsim/serve/queue.hpp"
#include "wsim/serve/request.hpp"
#include "wsim/serve/stats.hpp"
#include "wsim/serve/tenant.hpp"

namespace wsim::serve {

struct ServiceConfig {
  /// Flush triggers and batch capacity (see BatchPolicy).
  BatchPolicy policy;

  /// Admission bounds, per request kind (SW and PairHMM queue
  /// independently since they launch different kernels).
  std::size_t max_queue_tasks = 4096;
  std::size_t max_queue_cells = 0;  ///< 0 = unbounded

  /// Quantization of the gpuPairHMM-style length grouping applied to each
  /// formed batch (workload::length_bucket).
  std::size_t length_granularity = 32;

  bool overlap_transfers = false;
  /// GATK-style double-precision rescue of underflowed PairHMM tasks
  /// (full-output mode only).
  bool double_fallback = true;

  /// Collect real per-task outputs (alignments / log10 likelihoods).
  /// When false the service runs timing-only — shape-cached execution
  /// through the engine's cost cache — so load experiments stay cheap;
  /// responses then carry latencies but default payloads.
  bool collect_outputs = true;

  /// The executor formed batches are dispatched to (non-owning, required;
  /// the constructor rejects null). It brings the devices and their
  /// kernel variants, the engine, placement, fault injection,
  /// retry-with-backoff, and the guard ladder (FleetConfig::guard) — a
  /// single-device service is a one-worker fleet. Placement and faults
  /// move time, not values. ServiceStats::device_busy_seconds sums every
  /// device run (re-executions included) across devices, so
  /// device_utilization() reads as busy device-seconds per wall second (it
  /// can exceed 1); per-device utilization comes from
  /// fleet::FleetExecutor::stats().
  fleet::FleetExecutor* fleet = nullptr;

  /// Known tenants with quotas and SLO classes. Requests naming a tenant
  /// not listed here (or naming none) fall back to a permissive default
  /// tenant — no quota, no SLO — created on first use, so single-tenant
  /// callers need no configuration.
  std::vector<TenantConfig> tenants;
};

/// Cheap queue-pressure readout for control loops (the cluster
/// autoscaler polls this every tick; unlike stats() it sorts no latency
/// samples).
struct QueueSnapshot {
  std::size_t queued_tasks = 0;
  std::size_t queued_cells = 0;
  std::size_t in_flight_batches = 0;
  /// Earliest submit time still queued (either kind); unset when idle.
  std::optional<SimTime> oldest_submit_time;
};

/// An asynchronous alignment service over the simulator: accepts
/// SwRequest/PairHmmRequest submissions, queues them through a bounded
/// admission queue (reject-with-reason when full, never block), forms
/// batches dynamically — flush at the cell target, when the oldest
/// request's batching delay expires, or when a deadline is at risk —
/// groups each batch by similar task length, and dispatches it to the
/// configured fleet::FleetExecutor. This is the paper's Fig. 10
/// re-batching result operated online: many small submissions are merged
/// into launches large enough to occupy the device. One templated path
/// serves both request kinds (fleet::SwKind / fleet::PhKind).
///
/// Time model: the service owns a simulated clock. Submissions are
/// stamped with the current clock; `advance_to(t)` processes every flush
/// and delivery due up to `t` in deterministic event order. A batch starts
/// when the fleet's chosen device frees up, and responses become ready
/// when the clock reaches their batch's completion time. Results are
/// bit-identical to running the same tasks directly through the runners —
/// batching moves time, not values.
///
/// Thread safety: all public methods lock the service; callbacks run on
/// the advancing thread after the lock is released. Ticket state is
/// written while advancing, so polling a ticket from another thread needs
/// external synchronization with the advancer.
class AlignmentService {
 public:
  /// Throws util::CheckError when `config.fleet` is null or a batch
  /// policy bound is invalid.
  explicit AlignmentService(ServiceConfig config);

  AlignmentService(const AlignmentService&) = delete;
  AlignmentService& operator=(const AlignmentService&) = delete;

  const ServiceConfig& config() const noexcept { return config_; }

  /// Admit a request at the current simulated time, or reject with a
  /// backpressure reason. Never blocks.
  SwSubmit submit(SwRequest request);
  PairHmmSubmit submit(PairHmmRequest request);

  /// Current simulated time.
  SimTime now() const;

  /// Advances the clock to `t`, forming/executing every batch that comes
  /// due and delivering every response that completes on the way. Moving
  /// backwards is a no-op.
  void advance_to(SimTime t);

  /// Runs the clock forward until all queued and in-flight work is
  /// delivered; returns the final simulated time.
  SimTime drain();

  /// Stops admission: subsequent submissions are rejected with kStopped.
  /// Already-admitted work still drains.
  void stop();

  ServiceStats stats() const;

  /// Queue-pressure snapshot without percentile work; see QueueSnapshot.
  QueueSnapshot queue_snapshot() const;

 private:
  template <typename Task, typename Response>
  struct Entry {
    Task task;
    Priority priority = Priority::kNormal;
    std::optional<SimTime> deadline;
    SimTime submit_time = 0.0;
    std::size_t cells = 0;
    std::shared_ptr<detail::ResponseSlot<Response>> slot;
    std::uint32_t tenant = 0;  ///< index into tenants_; 0 = default
  };
  /// The queue entry of one request kind (fleet::SwKind / fleet::PhKind).
  template <typename Kind>
  using KindEntry = Entry<typename Kind::Task, typename Kind::Response>;

  /// A batch that was formed and executed but whose simulated completion
  /// time has not been reached yet. `deliver` writes the responses into
  /// their slots, updates stats, and returns the user callbacks to invoke
  /// once the service lock is dropped.
  struct InFlight {
    SimTime completion_time = 0.0;
    std::uint64_t order = 0;  ///< formation order, for deterministic ties
    std::function<std::vector<std::function<void()>>()> deliver;
  };

  using Callbacks = std::vector<std::function<void()>>;

  /// Lifetime accounting of one tenant (index 0 is the default tenant).
  /// `queued_*` track work currently in the admission queues and enforce
  /// the tenant's quota.
  struct TenantState {
    TenantConfig cfg;
    std::size_t queued_tasks = 0;
    std::size_t queued_cells = 0;
    std::size_t submitted = 0;
    std::size_t completed = 0;
    std::size_t rejected_quota = 0;
    std::size_t deadlines_met = 0;
    std::size_t deadlines_missed = 0;
    std::vector<double> latency_samples;
  };

  /// Index of the tenant named `name`, creating a permissive record for
  /// unknown names (so per-tenant stats exist even without configuration).
  std::uint32_t tenant_index(const std::string& name);

  /// Shared admission logic: quota check, SLO deadline/priority mapping.
  /// Returns kNone and fills the entry's tenant/priority/deadline on
  /// admission.
  template <typename E>
  RejectReason admit_tenant(const std::string& name, E& entry);

  /// Admission of one request of kind `Kind`: task validation, the stop
  /// and quota checks, and the push into the kind's queue.
  template <typename Kind, typename Request>
  Submit<typename Kind::Response> admit(Request request);

  template <typename Kind>
  AdmissionQueue<KindEntry<Kind>>& queue_of();

  void process_until(SimTime limit, Callbacks& callbacks);
  /// Forms one batch from the kind's queue, dispatches it to the fleet,
  /// and schedules its delivery.
  template <typename Kind>
  void flush();
  void flush_while_over_target();
  void deliver_in_flight(std::size_t index, Callbacks& callbacks);

  ServiceConfig config_;
  fleet::FleetExecutor* fleet_;  ///< non-null after construction

  mutable std::mutex mu_;
  SimTime clock_ = 0.0;
  bool stopped_ = false;
  std::uint64_t batch_order_ = 0;

  AdmissionQueue<KindEntry<fleet::SwKind>> sw_queue_;
  AdmissionQueue<KindEntry<fleet::PhKind>> ph_queue_;
  ServiceTimeEstimator estimator_;
  std::vector<InFlight> in_flight_;
  std::vector<TenantState> tenants_;  ///< [0] = default; config order after

  ServiceStats totals_;  ///< counters only; queue depths filled by stats()
  std::vector<double> latency_samples_;
  std::vector<double> queue_wait_samples_;
};

}  // namespace wsim::serve
