#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "wsim/fleet/calibrator.hpp"
#include "wsim/fleet/fault.hpp"
#include "wsim/fleet/router.hpp"
#include "wsim/guard/guard.hpp"
#include "wsim/kernels/ph_kernels.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/simt/device.hpp"
#include "wsim/util/check.hpp"
#include "wsim/workload/batching.hpp"

namespace wsim::simt {
class ExecutionEngine;
}  // namespace wsim::simt

namespace wsim::serve {
struct SwResponse;
struct PairHmmResponse;
}  // namespace wsim::serve

namespace wsim::fleet {

/// Stable identity of a fleet member. Ids are assigned densely in join
/// order and are never reused: a retired worker keeps its id (and its
/// lifetime counters) forever, so stats rows and placement decisions can
/// be correlated across membership churn.
using DeviceId = std::uint32_t;

/// Lifecycle of one fleet member. The state is *derived* at a given
/// simulated time from the worker's membership flags, its warmup deadline,
/// and its health record — quarantine is a lifecycle state like any other,
/// not a side-channel flag.
///
///   kJoining ──(warmup elapses)──► kActive ◄──(quarantine expires)──┐
///                                   │  │                            │
///                                   │  └──(health trips)──► kQuarantined
///                                   ▼                               │
///                               kDraining ◄─────────────────────────┘
///                                   │          (drain() in any state)
///                                   ▼
///                                kRetired      (retire(); terminal)
enum class WorkerState {
  kJoining,      ///< joined but still warming up; no fresh placements
  kActive,       ///< serving: eligible for every placement round
  kQuarantined,  ///< health-tripped; skipped while alternatives exist
  kDraining,     ///< finishes queued batches, receives no new placements
  kRetired,      ///< terminal: never placed again, counters frozen
};

std::string_view to_string(WorkerState state) noexcept;

/// How the executor picks the device for a formed batch.
enum class PlacementPolicy {
  /// Cycle over eligible devices regardless of speed or load — the
  /// baseline every other policy is benchmarked against.
  kRoundRobin,
  /// Pick the device with the fewest DP cells still outstanding (queued
  /// or executing) — load-aware but speed-blind, SaLoBa's workload-balance
  /// idea lifted to the fleet level.
  kLeastOutstandingCells,
  /// Pick the device with the earliest predicted finish time: the known
  /// device-free time plus the Eq. 7/8 predicted service seconds of this
  /// batch on that device's chosen kernel variant. Speed- and load-aware;
  /// on a heterogeneous fleet this is what routes proportionally more
  /// work to a Titan X than to a K1200.
  kModelGuided,
  /// Like kModelGuided, but *production-realistic*: the finish estimate is
  /// built entirely from the model — each device's backlog is the sum of
  /// its still-predicted-outstanding batch times, not the simulator's
  /// oracle free_at — and both the backlog and this batch's prediction are
  /// multiplied by the Calibrator's per-(device, kernel-class) correction
  /// factor. With calibration off this reproduces the silent-degradation
  /// disaster honestly (a half-speed device keeps receiving its spec-rate
  /// share to the end); with calibration on the learned factors steer work
  /// away at the device's true speed. Derated devices are still probed.
  kCalibrated,
};

std::string_view to_string(PlacementPolicy policy) noexcept;

/// Lookup by CLI name: "rr" | "least-cells" | "model" | "calibrated".
/// Throws util::CheckError listing the valid names on anything else.
PlacementPolicy placement_policy_by_name(std::string_view name);

/// One simulated device in the fleet. Kernel designs may be pinned
/// explicitly; by default each is chosen by the performance model for
/// this device's architecture (router::pick_variants — the Table II
/// decision, made per device).
struct WorkerConfig {
  simt::DeviceSpec device;
  std::optional<kernels::CommMode> sw_design;
  std::optional<kernels::PhDesign> ph_design;
  /// Pinned wavefront (intra-task) variant; by default the model picks the
  /// faster of wf-shuffle / wf-shared for this device. Only consulted when
  /// a batch is routed intra-task.
  std::optional<kernels::WfVariant> wf_variant;
  /// Bound on batches waiting behind the executing one. A device whose
  /// queue is full is skipped by placement while any other device has
  /// room; when every queue is full the dispatch stalls until the
  /// earliest slot frees (the fleet never drops admitted work — admission
  /// backpressure lives in the serving layer).
  std::size_t max_pending_batches = 8;
  /// Per-device watchdog budget overriding GuardConfig::max_block_cycles
  /// when positive (a slow K1200 may deserve a bigger budget than a
  /// Titan X).
  long long max_block_cycles = 0;
};

struct FleetConfig {
  std::vector<WorkerConfig> workers;
  PlacementPolicy policy = PlacementPolicy::kModelGuided;
  /// Inter- vs intra-task routing of SW batches: kAuto asks
  /// pick_parallelism per (mean length, batch size, device) — the 2-D
  /// regime decision — while kInterTask / kIntraTask pin the subsystem.
  /// PairHMM batches always run inter-task (reads are < 128 bp).
  ParallelismPolicy parallelism = ParallelismPolicy::kAuto;
  FaultPlan faults;
  RetryPolicy retry;
  /// SDC injection, detection mode, watchdog budget, and escalation knobs
  /// (see guard::GuardConfig). Injection and verification apply to
  /// output-collecting dispatches only; timing-only dispatches reuse
  /// cached per-shape costs and must stay clean.
  guard::GuardConfig guard;
  /// Engine executing every worker's launches; null means the
  /// process-wide simt::shared_engine(). Workers share the pool — a
  /// DeviceWorker is a simulated-device timeline, not an OS thread.
  simt::ExecutionEngine* engine = nullptr;
  /// Simulated seconds a worker joined via join() spends in kJoining
  /// before it becomes placeable (driver load, clock ramp, cache warm).
  /// The initial fleet from `workers` is active at t=0 regardless.
  double join_warmup_seconds = 0.0;
  /// Online model calibration + drift detection (see calibrator.hpp).
  /// kCalibrated placement consults the factors whenever enabled; the
  /// other policies still run the detectors, so drift surfaces in the
  /// stats and the health channel regardless of routing.
  CalibrationConfig calibration;
};

/// Execution knobs of one dispatch, mirroring the single-device runners.
struct ExecOptions {
  bool collect_outputs = true;
  bool overlap_transfers = false;
  bool double_fallback = true;  ///< PairHMM underflow rescue (outputs only)
};

/// Lifetime counters of one device, snapshot by stats().
struct DeviceStats {
  std::string name;
  kernels::CommMode sw_design = kernels::CommMode::kShuffle;
  kernels::PhDesign ph_design = kernels::PhDesign::kShuffle;
  kernels::WfVariant wf_variant = kernels::WfVariant::kShuffle;
  std::size_t batches = 0;
  std::size_t intra_batches = 0;  ///< SW batches routed to the wavefront path
  std::size_t tasks = 0;
  std::size_t cells = 0;
  double busy_seconds = 0.0;
  std::size_t launch_failures = 0;  ///< injected transient failures seen
  std::size_t slowdowns = 0;        ///< batches run under a slowdown fault
  std::size_t sdc_detected = 0;     ///< verifications that flagged this device
  std::size_t timeouts = 0;         ///< watchdog LaunchTimeout errors here
  SimTime free_at = 0.0;            ///< device-timeline end
  DeviceId id = 0;                  ///< stable registry id
  WorkerState state = WorkerState::kActive;  ///< lifecycle at snapshot time
  std::size_t quarantines = 0;      ///< times this device entered quarantine
  SimTime joined_at = 0.0;          ///< when the worker joined the fleet
  /// Calibration/drift snapshot (defaults when calibration is disabled):
  /// the dominant-class correction factor, the drift-state machine's
  /// position, and the recovery-ladder counters.
  double calibration_factor = 1.0;
  DriftState drift_state = DriftState::kNominal;
  bool derated = false;
  std::size_t drift_suspects = 0;      ///< kNominal -> kDriftSuspect raises
  std::size_t derates = 0;             ///< confirmed derate transitions
  std::size_t probes = 0;              ///< forced placements while derated
  std::size_t requalifications = 0;    ///< derated -> nominal recoveries
};

/// Fleet-wide snapshot: per-device counters plus dispatch/retry and
/// membership accounting. `busy_skew` is the imbalance measure the
/// benches record.
struct FleetStats {
  std::vector<DeviceStats> devices;
  std::size_t dispatches = 0;  ///< successful batch executions
  std::size_t retries = 0;     ///< failed attempts that were retried
  std::size_t requeues = 0;    ///< retries that landed on a different device
  std::size_t joins = 0;       ///< dynamic join() calls (initial fleet excluded)
  std::size_t drains = 0;      ///< drain() calls
  std::size_t retires = 0;     ///< retire() calls
  guard::GuardStats guard;     ///< corruption/watchdog/verification accounting

  std::size_t total_cells() const noexcept;
  double total_busy_seconds() const noexcept;
  /// (max - min) / mean of per-device busy seconds; 0 for an idle or
  /// single-device fleet. Round-robin on a heterogeneous fleet leaves the
  /// slow devices busy long after the fast ones drained — a large skew.
  double busy_skew() const noexcept;
  /// Per-device busy fraction of `duration` seconds.
  double utilization(std::size_t device_index, double duration) const;
};

/// Where and when one batch actually ran.
struct Execution {
  SimTime start_time = 0.0;       ///< batch reached its device
  SimTime completion_time = 0.0;  ///< kernel + transfers done
  double service_seconds = 0.0;   ///< simulated seconds, incl. slowdown
  /// Device-seconds of every run of the batch: verification re-executions
  /// and the crash-rescue dispatch included, so it equals what the batch
  /// added to the devices' busy_seconds.
  double busy_seconds = 0.0;
  int device_index = 0;           ///< worker that executed it
  int attempts = 1;               ///< 1 = no retries
  int reexecutions = 0;           ///< extra runs for verification/recovery
  bool cpu_fallback = false;      ///< outputs replaced by the CPU reference
};

struct SwExecution {
  Execution exec;
  kernels::SwBatchResult result;
};

struct PhExecution {
  Execution exec;
  kernels::PhBatchResult result;
};

/// What placement, regime routing, and calibration read about one batch.
struct BatchShape {
  bool is_sw = false;  ///< from the kind trait
  std::size_t tasks = 0;
  std::size_t cells = 0;
  /// Mean task shape (query x target), the SW regime decision's input;
  /// PairHMM batches always run inter-task and report 1 x 1.
  std::size_t mean_m = 1;
  std::size_t mean_n = 1;
};

/// Kind traits: everything the batch path needs that differs between
/// Smith-Waterman and PairHMM. The serving layer's submit/flush and the
/// fleet's execute/guard ladder are written once over a trait and
/// specialized at compile time per kind — AnySeq/GPU's specialization of
/// one generic alignment routine into concrete kernels, applied to the
/// batch path. A new kernel kind plugs in by adding a trait.
struct SwKind {
  using Task = workload::SwTask;
  using Batch = workload::SwBatch;
  using Result = kernels::SwBatchResult;
  using Execution = SwExecution;
  using Response = serve::SwResponse;
  using RunOptions = kernels::SwRunOptions;
  static constexpr bool kIsSw = true;

  // Obs names of the serving layer's per-kind events and instruments.
  static constexpr const char* kSubmitEvent = "serve.submit_sw";
  static constexpr const char* kFlushEvent = "serve.flush_sw";
  static constexpr const char* kSubmittedMetric = "serve.sw_submitted";
  static constexpr const char* kBatchesMetric = "serve.sw_batches";
  static constexpr const char* kBatchCellsMetric = "serve.sw_batch_cells";

  /// Throws util::CheckError unless the kernels accept the task.
  static void check_task(const Task& task) {
    util::require(!task.query.empty() && !task.target.empty(),
                  "SW task needs non-empty sequences");
  }
  static BatchShape shape(const Batch& batch);
  template <typename Worker>
  static const kernels::SwRunner& runner(const Worker& worker) {
    return worker.model->sw_runner;
  }
  static std::optional<std::string> validate(const Batch& batch, const Result& result,
                                             const align::SwParams& params) {
    return guard::validate_sw(batch, result.outputs, params);
  }
  static std::uint64_t fingerprint(const Result& result) noexcept {
    return guard::fingerprint_sw(result.outputs);
  }
  static void cpu_substitute(const Batch& batch, Result& result,
                             const align::SwParams& params) {
    result.outputs = guard::cpu_sw(batch, params);
  }
};

/// PairHMM needs no scoring scheme: its `params` arguments are unused.
struct PhKind {
  using Task = align::PairHmmTask;
  using Batch = workload::PhBatch;
  using Result = kernels::PhBatchResult;
  using Execution = PhExecution;
  using Response = serve::PairHmmResponse;
  using RunOptions = kernels::PhRunOptions;
  static constexpr bool kIsSw = false;

  static constexpr const char* kSubmitEvent = "serve.submit_ph";
  static constexpr const char* kFlushEvent = "serve.flush_ph";
  static constexpr const char* kSubmittedMetric = "serve.ph_submitted";
  static constexpr const char* kBatchesMetric = "serve.ph_batches";
  static constexpr const char* kBatchCellsMetric = "serve.ph_batch_cells";

  /// Also checks the quality tracks and the kPhMaxReadLen bound.
  static void check_task(const Task& task);
  static BatchShape shape(const Batch& batch) {
    return {kIsSw, batch.size(), workload::batch_cells(batch)};
  }
  template <typename Worker>
  static const kernels::PhRunner& runner(const Worker& worker) {
    return worker.model->ph_runner;
  }
  static std::optional<std::string> validate(const Batch& batch, const Result& result,
                                             const align::SwParams& /*params*/) {
    return guard::validate_ph(batch, result.log10);
  }
  static std::uint64_t fingerprint(const Result& result) noexcept {
    return guard::fingerprint_ph(result.log10);
  }
  static void cpu_substitute(const Batch& batch, Result& result,
                             const align::SwParams& /*params*/) {
    result.log10 = guard::cpu_ph(batch);
  }
};

/// Heterogeneous multi-device executor: owns an id-keyed registry of
/// DeviceWorkers (one simulated GPU each, with its own bounded batch queue
/// and device timeline, all sharing one simt::ExecutionEngine worker pool)
/// and dispatches formed batches by the configured placement policy, with
/// deterministic fault injection, per-device health tracking,
/// retry-with-backoff, and requeue-on-another-device.
///
/// Membership is dynamic: join() adds a worker mid-run (placeable after
/// its warmup), drain() stops new placements while queued batches finish,
/// retire() removes the worker from every placement round permanently.
/// Ids are stable — the registry only grows, so DeviceId == registry
/// index forever and references held across join() stay valid.
///
/// Time model: like serve::AlignmentService, the executor lives in
/// simulated time. `execute_sw`/`execute_ph` resolve a dispatch
/// immediately — placement, retries, and the device timeline are pure
/// simulated-time bookkeeping — and report when the batch starts and
/// completes; the caller's clock decides when the results become visible.
///
/// Guarantee: results are bit-identical to running the same batch through
/// a single-device runner — placement, retries, slowdowns, and membership
/// churn move time, not values (both communication designs compute
/// identical outputs, and DeviceSpec latencies affect timing only).
///
/// Thread safety: none — the executor mutates device timelines per call.
/// The serving layer serializes access under its own lock.
class FleetExecutor {
 public:
  explicit FleetExecutor(FleetConfig config);

  FleetExecutor(const FleetExecutor&) = delete;
  FleetExecutor& operator=(const FleetExecutor&) = delete;

  const FleetConfig& config() const noexcept { return config_; }
  /// Registry size: every worker that ever joined, retired ones included.
  std::size_t size() const noexcept { return workers_.size(); }

  const simt::DeviceSpec& device(std::size_t index) const;
  kernels::CommMode sw_design(std::size_t index) const;
  kernels::PhDesign ph_design(std::size_t index) const;
  kernels::WfVariant wf_variant(std::size_t index) const;

  /// Adds a worker to the running fleet at simulated time `now`. The
  /// worker is kJoining until now + join_warmup_seconds, then kActive.
  /// Returns its stable id.
  DeviceId join(const WorkerConfig& worker, SimTime now);

  /// Marks the worker kDraining at `now`: batches already on its timeline
  /// finish normally, but placement never picks it again unless every
  /// non-draining member is retired. No-op if already draining.
  void drain(DeviceId id, SimTime now);

  /// Permanently removes the worker from placement at `now` (terminal).
  /// Because dispatches resolve against the device timeline immediately,
  /// nothing is ever in limbo: retiring a worker — even a quarantined one
  /// — requeues nothing and drops nothing.
  void retire(DeviceId id, SimTime now);

  /// Lifecycle state of the worker as of simulated time `now`.
  WorkerState state(DeviceId id, SimTime now) const;

  /// Device-timeline end of one worker (when its queued work finishes).
  SimTime free_at(DeviceId id) const;

  /// Simulated time when the last device frees up (the fleet makespan so
  /// far).
  SimTime all_free_at() const noexcept;

  FleetStats stats() const;

  /// Dispatches one formed batch of kind `Kind` (SwKind or PhKind) at
  /// simulated time `now`, screened by the configured guard. Throws
  /// util::CheckError if the batch is empty, every retry attempt fails,
  /// or every worker is retired.
  template <typename Kind>
  typename Kind::Execution execute(const typename Kind::Batch& batch,
                                   SimTime now, const ExecOptions& options = {});
  SwExecution execute_sw(const workload::SwBatch& batch, SimTime now,
                         const ExecOptions& options = {}) {
    return execute<SwKind>(batch, now, options);
  }
  PhExecution execute_ph(const workload::PhBatch& batch, SimTime now,
                         const ExecOptions& options = {}) {
    return execute<PhKind>(batch, now, options);
  }

  /// The online calibration store (always constructed; inert unless
  /// config().calibration.enabled).
  const Calibrator& calibrator() const noexcept { return calibrator_; }

  /// Mean calibrated-capacity scale of the serving (non-draining,
  /// non-retired) members: 1.0 when calibration is off, < 1.0 when the
  /// fleet is running slower than spec. The autoscaler multiplies its
  /// Eq. 7/8 capacity model by this, so a silently degraded fleet scales
  /// out instead of blowing its SLO.
  double calibrated_capacity_scale(SimTime now) const;

 private:
  /// Everything a worker derives from its device and pinned designs.
  /// Deriving one builds 21 kernels and hashes 6, so it is done once per
  /// distinct configuration and shared, immutable, by every worker with
  /// that configuration (runners are const once built).
  struct WorkerModel {
    kernels::CommMode sw_design;
    kernels::PhDesign ph_design;
    kernels::WfVariant wf_variant;
    double sw_gcups = 0.0;  ///< model prediction for the chosen SW design
    double ph_gcups = 0.0;  ///< model prediction for the chosen PH design
    double wf_gcups = 0.0;  ///< model prediction for the chosen wavefront variant
    /// Per-device regime model: occupancies and latencies of both SW
    /// subsystems, precomputed once so pick_parallelism per batch is cheap.
    IntraTaskModel intra;
    kernels::SwRunner sw_runner;
    kernels::PhRunner ph_runner;
    kernels::WavefrontSwRunner wf_runner;
  };

  static std::shared_ptr<const WorkerModel> derive_model(const WorkerConfig& wc);

  /// One registry entry: a simulated device plus its timeline, health,
  /// lifecycle flags, and lifetime counters. Never erased — `retired`
  /// freezes it in place so ids stay dense and stable.
  struct DeviceWorker {
    WorkerConfig cfg;
    std::shared_ptr<const WorkerModel> model;
    SimTime joined_at = 0.0;
    SimTime active_at = 0.0;  ///< warmup end; placeable from here
    bool draining = false;
    bool retired = false;
    SimTime free_at = 0.0;
    /// Batches not yet complete at the last observed time:
    /// (completion_time, cells).
    std::deque<std::pair<SimTime, std::size_t>> pending;
    std::size_t pending_cells = 0;
    DeviceHealth health;
    DeviceStats stats;
    std::uint64_t dispatch_seq = 0;  ///< feeds the FaultPlan hash
    /// Model-predicted backlog end, maintained by kCalibrated placement:
    /// what the dispatcher *believes* about this device's timeline, built
    /// only from calibrated predictions — never from the oracle free_at.
    SimTime model_busy_until = 0.0;
  };

  /// Registry append shared by the constructor (no warmup, no join count)
  /// and join().
  DeviceId add_worker(const WorkerConfig& wc, SimTime now, SimTime active_at);

  /// Derives the lifecycle state of one registry entry at time `t`.
  WorkerState worker_state(const DeviceWorker& w, SimTime t) const noexcept;

  /// Quarantines the worker at `t` (entering counts once; extending an
  /// active quarantine does not).
  void quarantine(DeviceWorker& w, SimTime t);

  /// Drops pending entries completed by `t` from every worker.
  void prune_pending(SimTime t);

  /// Whether an SW batch of this shape runs on the wavefront subsystem on
  /// this worker — the 2-D regime decision, made with calibrated
  /// per-class factors when calibration is enabled (the online form of
  /// feeding calibrated terms into IntraTaskModel).
  bool routes_intra(const DeviceWorker& w, const BatchShape& shape) const;

  /// The calibration key of this batch on this worker: PairHMM, or SW
  /// split by the regime routing above.
  KernelClass kernel_class(const DeviceWorker& w, const BatchShape& shape) const;

  /// Uncalibrated Eq. 7/8 prediction of this batch on this worker for the
  /// given class — the baseline the Calibrator regresses against and the
  /// quantity kCalibrated placement scales by the learned factor.
  double predicted_seconds_for(const DeviceWorker& w, KernelClass cls,
                               const BatchShape& shape) const;

  /// Applies drift transitions returned by the Calibrator: stats,
  /// counters, trace events, flight-recorder dumps, and quarantine
  /// escalation.
  void handle_drift(const std::vector<DriftTransition>& transitions);

  /// Picks the worker for a batch at time `t` under the configured policy.
  /// Eligibility relaxes in lifecycle rounds: kActive workers with queue
  /// room, then kActive ignoring bounds, then quarantined/joining members,
  /// then draining ones. Retired workers are never placed; `excluded` (the
  /// device of the failed attempt) is only reconsidered once the strict
  /// rounds come up empty.
  std::size_t place(const BatchShape& shape, SimTime t, int excluded);

  /// Runs the batch once on `worker` through the kind's runner (SW
  /// batches routed intra-task take the wavefront runner) and returns its
  /// simulated seconds. Both SW subsystems produce bit-identical outputs,
  /// so routing is invisible to the guard's validation and fingerprinting.
  template <typename Kind>
  double run_on(DeviceWorker& worker, const typename Kind::Batch& batch,
                const BatchShape& shape, const ExecOptions& options,
                bool collect, typename Kind::Result& result);

  /// Loop state of one dispatch: when the next attempt starts, how many
  /// attempts failed, and which device the next placement avoids.
  struct Attempt {
    SimTime t = 0.0;
    int failures = 0;
    int excluded = -1;
  };

  /// Shared dispatch loop: placement, fault check, retry/backoff, then
  /// `run(worker)` which executes the batch and returns its simulated
  /// service seconds (before any slowdown). Watchdog LaunchTimeout (and,
  /// under SDC injection, crashes the corruption caused) are treated as
  /// retryable failures. `force_device` pins the first attempt to one
  /// worker (re-execution on the flagged device); `excluded_initial`
  /// steers the first attempt away from one (re-execution elsewhere).
  template <typename RunBatch>
  Execution dispatch(const BatchShape& shape, SimTime now, int force_device,
                     int excluded_initial, RunBatch&& run);

  /// One failed attempt on worker `w`: health feedback, quarantine check,
  /// backoff, and steering the retry away from `w`. Throws after
  /// max_attempts with the last failure's text, so callers (and serve
  /// tickets) see what actually went wrong.
  void fail_attempt(std::size_t w, std::uint64_t seq, const std::string& why,
                    Attempt& attempt);

  /// Stats, trace, and flight-recorder record of a watchdog timeout.
  void note_timeout(std::size_t w, std::uint64_t seq, SimTime t,
                    const char* what);

  /// Books a successful run on worker `w`: slowdown and degradation
  /// faults, the device timeline, calibration, and the dispatch counters.
  Execution complete_dispatch(std::size_t w, std::uint64_t seq,
                              const BatchShape& shape, const Attempt& attempt,
                              double base_seconds);

  /// Detection + escalation around `run_once`: screen the outputs per the
  /// configured DetectMode, re-execute flagged batches (same device, then
  /// another), and as the last step substitute the CPU reference.
  template <typename Kind, typename RunOnce>
  typename Kind::Execution guarded_execute(const typename Kind::Batch& batch,
                                           SimTime now, RunOnce&& run_once);

  /// Counts one extra device run made for verification or recovery.
  void note_reexecution();

  /// Watchdog budget for one worker: its override, else the fleet-wide one.
  long long effective_budget(const DeviceWorker& worker) const noexcept;

  /// Health feedback for a verification that flagged device `w` at time
  /// `t`: repeated silent corruption quarantines the device.
  void note_sdc(std::size_t w, SimTime t);

  FleetConfig config_;
  simt::ExecutionEngine* engine_;  ///< non-null after construction
  /// Id-keyed registry: deque so join() never invalidates references to
  /// existing workers; index == DeviceId, entries are never erased.
  std::deque<DeviceWorker> workers_;
  std::size_t round_robin_next_ = 0;
  std::size_t dispatches_ = 0;
  std::size_t retries_ = 0;
  std::size_t requeues_ = 0;
  std::size_t joins_ = 0;
  std::size_t drains_ = 0;
  std::size_t retires_ = 0;
  SimTime last_time_ = 0.0;  ///< latest simulated time observed (for stats)
  guard::GuardStats guard_stats_;
  std::uint64_t sdc_launch_seq_ = 0;  ///< fresh SDC launch id per device run
  Calibrator calibrator_;
};

}  // namespace wsim::fleet
