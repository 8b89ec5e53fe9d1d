#include "wsim/fleet/fleet.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "wsim/obs/metrics.hpp"
#include "wsim/obs/obs.hpp"
#include "wsim/simt/engine.hpp"
#include "wsim/simt/watchdog.hpp"
#include "wsim/util/check.hpp"

namespace wsim::fleet {

std::string_view to_string(WorkerState state) noexcept {
  switch (state) {
    case WorkerState::kJoining:
      return "joining";
    case WorkerState::kActive:
      return "active";
    case WorkerState::kQuarantined:
      return "quarantined";
    case WorkerState::kDraining:
      return "draining";
    case WorkerState::kRetired:
      return "retired";
  }
  return "?";
}

std::string_view to_string(PlacementPolicy policy) noexcept {
  switch (policy) {
    case PlacementPolicy::kRoundRobin:
      return "round-robin";
    case PlacementPolicy::kLeastOutstandingCells:
      return "least-cells";
    case PlacementPolicy::kModelGuided:
      return "model";
    case PlacementPolicy::kCalibrated:
      return "calibrated";
  }
  return "?";
}

PlacementPolicy placement_policy_by_name(std::string_view name) {
  if (name == "rr" || name == "round-robin") {
    return PlacementPolicy::kRoundRobin;
  }
  if (name == "least-cells") {
    return PlacementPolicy::kLeastOutstandingCells;
  }
  if (name == "model") {
    return PlacementPolicy::kModelGuided;
  }
  if (name == "calibrated") {
    return PlacementPolicy::kCalibrated;
  }
  throw util::CheckError("unknown placement policy '" + std::string(name) +
                         "' (valid: rr, least-cells, model, calibrated)");
}

std::size_t FleetStats::total_cells() const noexcept {
  std::size_t total = 0;
  for (const DeviceStats& d : devices) {
    total += d.cells;
  }
  return total;
}

double FleetStats::total_busy_seconds() const noexcept {
  double total = 0.0;
  for (const DeviceStats& d : devices) {
    total += d.busy_seconds;
  }
  return total;
}

double FleetStats::busy_skew() const noexcept {
  if (devices.empty()) {
    return 0.0;
  }
  double lo = devices.front().busy_seconds;
  double hi = lo;
  for (const DeviceStats& d : devices) {
    lo = std::min(lo, d.busy_seconds);
    hi = std::max(hi, d.busy_seconds);
  }
  const double mean = total_busy_seconds() / static_cast<double>(devices.size());
  return mean > 0.0 ? (hi - lo) / mean : 0.0;
}

double FleetStats::utilization(std::size_t device_index, double duration) const {
  util::require(device_index < devices.size(),
                "FleetStats::utilization: device index out of range");
  return duration > 0.0 ? devices[device_index].busy_seconds / duration : 0.0;
}

FleetExecutor::FleetExecutor(FleetConfig config)
    : config_(std::move(config)),
      engine_(config_.engine != nullptr ? config_.engine
                                        : &simt::shared_engine()),
      calibrator_(config_.calibration) {
  util::require(!config_.workers.empty(),
                "FleetExecutor: fleet needs at least one worker");
  util::require(config_.retry.max_attempts >= 1,
                "FleetExecutor: retry.max_attempts must be >= 1");
  for (const WorkerConfig& wc : config_.workers) {
    add_worker(wc, 0.0, /*active_at=*/0.0);
  }
}

std::shared_ptr<const FleetExecutor::WorkerModel> FleetExecutor::derive_model(
    const WorkerConfig& wc) {
  const VariantChoice choice = pick_variants(wc.device);
  const kernels::CommMode sw = wc.sw_design.value_or(choice.sw_design);
  const kernels::PhDesign ph = wc.ph_design.value_or(choice.ph_design);
  // The per-device regime model, honouring pinned designs so predicted
  // seconds describe the kernels this worker will actually run.
  IntraTaskModel intra = build_intra_task_model(wc.device);
  if (wc.sw_design.has_value() && intra.sw_design != sw) {
    intra.sw_design = sw;
    intra.sw_latency = sw_iteration_latency(wc.device, sw);
    const simt::Kernel sw_kernel = kernels::build_sw_kernel(sw, {});
    intra.sw_occupancy = simt::compute_occupancy(wc.device, sw_kernel);
    intra.sw_threads_per_block = sw_kernel.threads_per_block;
  }
  const kernels::WfVariant wf = wc.wf_variant.value_or(intra.wf_variant);
  if (intra.wf_variant != wf) {
    intra.wf_variant = wf;
    intra.wf_latency = wf_iteration_latency(wc.device, wf);
    const simt::Kernel wf_kernel =
        wf == kernels::WfVariant::kHostSyncNaive
            ? kernels::build_wf_naive_sw_kernel({})
            : kernels::build_wf_sw_kernel(wf, {});
    intra.wf_occupancy = simt::compute_occupancy(wc.device, wf_kernel);
    intra.wf_threads_per_block = wf_kernel.threads_per_block;
  }
  return std::make_shared<const WorkerModel>(WorkerModel{
      sw, ph, wf, predicted_sw_gcups(wc.device, sw), predicted_ph_gcups(wc.device, ph),
      predicted_wf_gcups(wc.device, wf), intra, kernels::SwRunner(sw),
      kernels::PhRunner(ph), kernels::WavefrontSwRunner(wf)});
}

DeviceId FleetExecutor::add_worker(const WorkerConfig& wc, SimTime now,
                                   SimTime active_at) {
  util::require(wc.max_pending_batches >= 1,
                "FleetExecutor: max_pending_batches must be >= 1");
  std::shared_ptr<const WorkerModel> model;
  for (const DeviceWorker& w : workers_) {
    if (w.cfg.device == wc.device && w.cfg.sw_design == wc.sw_design &&
        w.cfg.ph_design == wc.ph_design && w.cfg.wf_variant == wc.wf_variant) {
      model = w.model;
      break;
    }
  }
  if (model == nullptr) {
    model = derive_model(wc);
  }
  const DeviceId id = static_cast<DeviceId>(workers_.size());
  DeviceWorker worker{wc,
                      model,
                      now,
                      active_at,
                      /*draining=*/false,
                      /*retired=*/false,
                      // A warming-up device starts its timeline at the warmup
                      // end: work placed on it during kJoining (emergency
                      // relaxation) starts once it is active.
                      /*free_at=*/active_at,
                      {},
                      0,
                      {},
                      {},
                      0};
  worker.stats.name = wc.device.name;
  worker.stats.sw_design = model->sw_design;
  worker.stats.ph_design = model->ph_design;
  worker.stats.wf_variant = model->wf_variant;
  worker.stats.id = id;
  worker.stats.joined_at = now;
  // The model-believed timeline starts where the oracle one does: at the
  // warmup end for a joining worker, at t=0 for the initial fleet.
  worker.model_busy_until = active_at;
  workers_.push_back(std::move(worker));
  calibrator_.resize(workers_.size());
  last_time_ = std::max(last_time_, now);
  return id;
}

DeviceId FleetExecutor::join(const WorkerConfig& worker, SimTime now) {
  const DeviceId id =
      add_worker(worker, now, now + config_.join_warmup_seconds);
  ++joins_;
  static obs::Counter c_joins("fleet.joins");
  c_joins.add();
  obs::instant(now, obs::Layer::kFleet, "fleet.join", static_cast<int>(id));
  return id;
}

void FleetExecutor::drain(DeviceId id, SimTime now) {
  util::require(id < workers_.size(), "FleetExecutor::drain: unknown DeviceId");
  DeviceWorker& w = workers_[id];
  util::require(!w.retired, "FleetExecutor::drain: worker already retired");
  last_time_ = std::max(last_time_, now);
  if (w.draining) {
    return;
  }
  w.draining = true;
  ++drains_;
  static obs::Counter c_drains("fleet.drains");
  c_drains.add();
  obs::instant(now, obs::Layer::kFleet, "fleet.drain", static_cast<int>(id));
}

void FleetExecutor::retire(DeviceId id, SimTime now) {
  util::require(id < workers_.size(), "FleetExecutor::retire: unknown DeviceId");
  DeviceWorker& w = workers_[id];
  util::require(!w.retired, "FleetExecutor::retire: worker already retired");
  last_time_ = std::max(last_time_, now);
  w.retired = true;
  ++retires_;
  static obs::Counter c_retires("fleet.retires");
  c_retires.add();
  obs::instant(now, obs::Layer::kFleet, "fleet.retire", static_cast<int>(id));
}

WorkerState FleetExecutor::worker_state(const DeviceWorker& w,
                                        SimTime t) const noexcept {
  if (w.retired) {
    return WorkerState::kRetired;
  }
  if (w.draining) {
    return WorkerState::kDraining;
  }
  if (t < w.active_at) {
    return WorkerState::kJoining;
  }
  if (!w.health.healthy_at(t)) {
    return WorkerState::kQuarantined;
  }
  return WorkerState::kActive;
}

WorkerState FleetExecutor::state(DeviceId id, SimTime now) const {
  util::require(id < workers_.size(), "FleetExecutor::state: unknown DeviceId");
  return worker_state(workers_[id], now);
}

SimTime FleetExecutor::free_at(DeviceId id) const {
  util::require(id < workers_.size(), "FleetExecutor::free_at: unknown DeviceId");
  return workers_[id].free_at;
}

const simt::DeviceSpec& FleetExecutor::device(std::size_t index) const {
  util::require(index < workers_.size(), "FleetExecutor: device index out of range");
  return workers_[index].cfg.device;
}

kernels::CommMode FleetExecutor::sw_design(std::size_t index) const {
  util::require(index < workers_.size(), "FleetExecutor: device index out of range");
  return workers_[index].model->sw_design;
}

kernels::PhDesign FleetExecutor::ph_design(std::size_t index) const {
  util::require(index < workers_.size(), "FleetExecutor: device index out of range");
  return workers_[index].model->ph_design;
}

kernels::WfVariant FleetExecutor::wf_variant(std::size_t index) const {
  util::require(index < workers_.size(), "FleetExecutor: device index out of range");
  return workers_[index].model->wf_variant;
}

SimTime FleetExecutor::all_free_at() const noexcept {
  SimTime latest = 0.0;
  for (const DeviceWorker& w : workers_) {
    latest = std::max(latest, w.free_at);
  }
  return latest;
}

FleetStats FleetExecutor::stats() const {
  FleetStats stats;
  stats.devices.reserve(workers_.size());
  for (const DeviceWorker& w : workers_) {
    DeviceStats d = w.stats;
    d.free_at = w.free_at;
    d.state = worker_state(w, last_time_);
    d.calibration_factor = calibrator_.dominant_factor(static_cast<int>(d.id));
    d.drift_state = calibrator_.drift_state(static_cast<int>(d.id));
    d.derated = calibrator_.derated(static_cast<int>(d.id));
    stats.devices.push_back(std::move(d));
  }
  stats.dispatches = dispatches_;
  stats.retries = retries_;
  stats.requeues = requeues_;
  stats.joins = joins_;
  stats.drains = drains_;
  stats.retires = retires_;
  stats.guard = guard_stats_;
  return stats;
}

long long FleetExecutor::effective_budget(
    const DeviceWorker& worker) const noexcept {
  return worker.cfg.max_block_cycles > 0 ? worker.cfg.max_block_cycles
                                         : config_.guard.max_block_cycles;
}

void FleetExecutor::quarantine(DeviceWorker& w, SimTime t) {
  if (w.health.healthy_at(t)) {
    ++w.stats.quarantines;
    static obs::Counter c_quarantines("fleet.quarantines");
    c_quarantines.add();
    obs::instant(t, obs::Layer::kFleet, "fleet.quarantine",
                 static_cast<int>(w.stats.id), w.dispatch_seq);
    obs::dump_flight("fleet quarantine: device " +
                         std::string(w.stats.name) + " (id " +
                         std::to_string(w.stats.id) + ")",
                     static_cast<int>(w.stats.id), w.dispatch_seq, t);
  }
  w.health.unhealthy_until =
      std::max(w.health.unhealthy_until, t + config_.retry.quarantine_seconds);
}

void FleetExecutor::note_sdc(std::size_t w, SimTime t) {
  DeviceWorker& worker = workers_[w];
  ++worker.stats.sdc_detected;
  static obs::Counter c_sdc("guard.sdc_detected");
  c_sdc.add();
  obs::instant(t, obs::Layer::kGuard, "guard.sdc_detected",
               static_cast<int>(w));
  ++worker.health.consecutive_sdc;
  if (config_.retry.unhealthy_after > 0 &&
      worker.health.consecutive_sdc >=
          static_cast<std::size_t>(config_.retry.unhealthy_after)) {
    quarantine(worker, t);
  }
}

void FleetExecutor::prune_pending(SimTime t) {
  for (DeviceWorker& w : workers_) {
    while (!w.pending.empty() && w.pending.front().first <= t) {
      w.pending_cells -= w.pending.front().second;
      w.pending.pop_front();
    }
  }
}

bool FleetExecutor::routes_intra(const DeviceWorker& w,
                                 const BatchShape& shape) const {
  switch (config_.parallelism) {
    case ParallelismPolicy::kInterTask:
      return false;
    case ParallelismPolicy::kIntraTask:
      return true;
    case ParallelismPolicy::kAuto:
      break;
  }
  if (config_.calibration.enabled) {
    // The online form of a calibrated regime map: compare the regimes after
    // multiplying each prediction by its learned per-class factor, so a
    // device whose wavefront path runs biased against the model still flips
    // to the subsystem that is actually faster. During warm-up both factors
    // are exactly 1.0 and this reduces to pick_parallelism.
    const int dev = static_cast<int>(w.stats.id);
    const double inter =
        calibrator_.factor(dev, KernelClass::kSwInter) *
        predicted_inter_batch_seconds(w.cfg.device, w.model->intra, shape.mean_m,
                                      shape.mean_n, shape.tasks);
    const double intra =
        calibrator_.factor(dev, KernelClass::kSwIntra) *
        predicted_intra_batch_seconds(w.cfg.device, w.model->intra, shape.mean_m,
                                      shape.mean_n, shape.tasks);
    return intra < inter;
  }
  return pick_parallelism(w.cfg.device, w.model->intra, shape.mean_m, shape.mean_n,
                          shape.tasks) == ParallelMode::kIntraTask;
}

KernelClass FleetExecutor::kernel_class(const DeviceWorker& w,
                                        const BatchShape& shape) const {
  if (!shape.is_sw) {
    return KernelClass::kPairHmm;
  }
  return routes_intra(w, shape) ? KernelClass::kSwIntra : KernelClass::kSwInter;
}

double FleetExecutor::predicted_seconds_for(const DeviceWorker& w,
                                            KernelClass cls,
                                            const BatchShape& shape) const {
  switch (cls) {
    case KernelClass::kSwInter:
      return predicted_batch_seconds(w.cfg.device, w.model->sw_gcups, shape.cells);
    case KernelClass::kSwIntra:
      return predicted_intra_batch_seconds(w.cfg.device, w.model->intra, shape.mean_m,
                                           shape.mean_n, shape.tasks);
    case KernelClass::kPairHmm:
      return predicted_batch_seconds(w.cfg.device, w.model->ph_gcups, shape.cells);
  }
  return predicted_batch_seconds(w.cfg.device, w.model->sw_gcups, shape.cells);
}

void FleetExecutor::handle_drift(
    const std::vector<DriftTransition>& transitions) {
  for (const DriftTransition& tr : transitions) {
    DeviceWorker& w = workers_[static_cast<std::size_t>(tr.device)];
    if (tr.to == DriftState::kDriftSuspect) {
      ++w.stats.drift_suspects;
      static obs::Counter c_suspects("fleet.drift_suspects");
      c_suspects.add();
      obs::instant(tr.time, obs::Layer::kFleet, "fleet.drift_suspect",
                   tr.device, static_cast<std::uint64_t>(tr.window), tr.ratio);
    } else if (tr.to == DriftState::kDerated &&
               tr.from != DriftState::kDerated) {
      ++w.stats.derates;
      static obs::Counter c_derates("fleet.derates");
      c_derates.add();
      obs::instant(tr.time, obs::Layer::kFleet, "fleet.derate", tr.device,
                   static_cast<std::uint64_t>(tr.window), tr.ratio);
      obs::dump_flight("fleet drift derate: device " +
                           std::string(w.stats.name) + " (id " +
                           std::to_string(w.stats.id) + ", " +
                           std::string(to_string(tr.cls)) +
                           ") residual ratio " + std::to_string(tr.ratio) +
                           " over " + std::to_string(tr.window) +
                           " observations",
                       tr.device, static_cast<std::uint64_t>(tr.window),
                       tr.time);
    } else if (tr.from == DriftState::kDerated &&
               tr.to == DriftState::kNominal) {
      ++w.stats.requalifications;
      static obs::Counter c_requal("fleet.requalifications");
      c_requal.add();
      obs::instant(tr.time, obs::Layer::kFleet, "fleet.requalify", tr.device,
                   static_cast<std::uint64_t>(tr.window), tr.ratio);
    } else if (tr.to == DriftState::kNominal) {
      obs::instant(tr.time, obs::Layer::kFleet, "fleet.drift_cleared",
                   tr.device, static_cast<std::uint64_t>(tr.window), tr.ratio);
    }
    if (tr.escalate_quarantine) {
      quarantine(w, tr.time);
    }
  }
}

double FleetExecutor::calibrated_capacity_scale(SimTime now) const {
  std::vector<int> serving;
  serving.reserve(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const WorkerState s = worker_state(workers_[i], now);
    if (s == WorkerState::kRetired || s == WorkerState::kDraining) {
      continue;
    }
    serving.push_back(static_cast<int>(i));
  }
  return calibrator_.capacity_scale(serving);
}

std::size_t FleetExecutor::place(const BatchShape& shape, SimTime t,
                                 int excluded) {
  // Eligibility, relaxed in lifecycle rounds: active + not excluded +
  // queue room; then active ignoring queue bounds; then quarantined and
  // warming-up members (including the excluded device); then draining
  // workers. Retired workers are never placed. When relaxation was needed,
  // the batch goes to whichever device frees earliest — the deterministic
  // equivalent of stalling for the first open slot.
  std::vector<std::size_t> eligible;
  const auto collect = [&](bool respect_bounds, bool active_only,
                           bool allow_draining) {
    eligible.clear();
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const DeviceWorker& w = workers_[i];
      const WorkerState s = worker_state(w, t);
      if (s == WorkerState::kRetired) {
        continue;
      }
      if (s == WorkerState::kDraining && !allow_draining) {
        continue;
      }
      if (active_only &&
          (static_cast<int>(i) == excluded || s != WorkerState::kActive)) {
        continue;
      }
      if (respect_bounds && w.pending.size() >= w.cfg.max_pending_batches) {
        continue;
      }
      eligible.push_back(i);
    }
  };
  collect(true, true, false);
  bool relaxed = false;
  if (eligible.empty()) {
    collect(false, true, false);
    relaxed = true;
  }
  if (eligible.empty()) {
    collect(false, false, false);
  }
  if (eligible.empty()) {
    collect(false, false, true);
  }
  util::require(!eligible.empty(),
                "FleetExecutor: no placeable device (every worker is retired)");

  if (relaxed) {
    std::size_t best = eligible.front();
    for (const std::size_t i : eligible) {
      if (workers_[i].free_at < workers_[best].free_at) {
        best = i;
      }
    }
    return best;
  }

  switch (config_.policy) {
    case PlacementPolicy::kRoundRobin: {
      for (std::size_t k = 0; k < workers_.size(); ++k) {
        const std::size_t i = (round_robin_next_ + k) % workers_.size();
        if (std::find(eligible.begin(), eligible.end(), i) != eligible.end()) {
          round_robin_next_ = i + 1;
          return i;
        }
      }
      return eligible.front();  // unreachable: eligible is non-empty
    }
    case PlacementPolicy::kLeastOutstandingCells: {
      std::size_t best = eligible.front();
      for (const std::size_t i : eligible) {
        if (workers_[i].pending_cells < workers_[best].pending_cells) {
          best = i;
        }
      }
      return best;
    }
    case PlacementPolicy::kModelGuided: {
      std::size_t best = eligible.front();
      double best_finish = std::numeric_limits<double>::infinity();
      for (const std::size_t i : eligible) {
        const DeviceWorker& w = workers_[i];
        const double gcups = shape.is_sw ? w.model->sw_gcups : w.model->ph_gcups;
        const double finish =
            std::max(t, w.free_at) +
            predicted_batch_seconds(w.cfg.device, gcups, shape.cells);
        if (finish < best_finish) {
          best_finish = finish;
          best = i;
        }
      }
      return best;
    }
    case PlacementPolicy::kCalibrated: {
      // A derated device would never win the finish-time race below, so
      // placement force-probes one that has gone unobserved too long —
      // otherwise it could never prove recovery and requalify.
      for (const std::size_t i : eligible) {
        if (calibrator_.probe_due(static_cast<int>(i))) {
          ++workers_[i].stats.probes;
          static obs::Counter c_probes("fleet.drift_probes");
          c_probes.add();
          obs::instant(t, obs::Layer::kFleet, "fleet.drift_probe",
                       static_cast<int>(i));
          return i;
        }
      }
      // Earliest *believed* finish: model-predicted backlog plus this
      // batch's calibrated prediction. Unlike kModelGuided this never reads
      // the oracle free_at, so with calibration off a silently degraded
      // device keeps its spec-rate share — the honest disaster the
      // calibration factors exist to prevent.
      std::size_t best = eligible.front();
      double best_finish = std::numeric_limits<double>::infinity();
      for (const std::size_t i : eligible) {
        const DeviceWorker& w = workers_[i];
        const KernelClass cls = kernel_class(w, shape);
        const double predicted = calibrator_.factor(static_cast<int>(i), cls) *
                                 predicted_seconds_for(w, cls, shape);
        const double finish = std::max(t, w.model_busy_until) + predicted;
        if (finish < best_finish) {
          best_finish = finish;
          best = i;
        }
      }
      return best;
    }
  }
  return eligible.front();
}

template <typename Kind>
double FleetExecutor::run_on(DeviceWorker& worker,
                             const typename Kind::Batch& batch,
                             const BatchShape& shape, const ExecOptions& options,
                             bool collect, typename Kind::Result& result) {
  // Outputs (with SDC injection when armed) or timing-only shape-cached
  // execution, always under the worker's watchdog budget.
  const auto with_options = [&](auto opt) {
    opt.engine = engine_;
    opt.overlap_transfers = options.overlap_transfers;
    opt.max_block_cycles = effective_budget(worker);
    if (collect) {
      opt.collect_outputs = true;
      if constexpr (requires { opt.double_fallback; }) {
        opt.double_fallback = options.double_fallback;
      }
      if (config_.guard.sdc.enabled()) {
        opt.sdc = config_.guard.sdc;
        opt.sdc_launch_id = sdc_launch_seq_++;
      }
    } else {
      opt.mode = simt::ExecMode::kCachedByShape;
    }
    return opt;
  };
  if constexpr (Kind::kIsSw) {
    if (routes_intra(worker, shape)) {
      kernels::WfSwBatchResult wf = worker.model->wf_runner.run_batch(
          worker.cfg.device, batch, with_options(kernels::WfRunOptions{}));
      result.run = std::move(wf.run);
      result.outputs = std::move(wf.outputs);
      ++worker.stats.intra_batches;
      return result.run.launch.total_seconds();
    }
  }
  result = Kind::runner(worker).run_batch(
      worker.cfg.device, batch, with_options(typename Kind::RunOptions{}));
  return result.run.launch.total_seconds();
}

template <typename RunBatch>
Execution FleetExecutor::dispatch(const BatchShape& shape, SimTime now,
                                  int force_device, int excluded_initial,
                                  RunBatch&& run) {
  Attempt attempt{now, 0, excluded_initial};
  for (;;) {
    prune_pending(attempt.t);
    std::size_t w;
    if (force_device >= 0) {
      w = static_cast<std::size_t>(force_device);
      force_device = -1;  // a failed pinned attempt retries by placement
    } else {
      w = place(shape, attempt.t, attempt.excluded);
    }
    DeviceWorker& worker = workers_[w];
    const std::uint64_t seq = worker.dispatch_seq++;
    if (config_.faults.launch_fails(static_cast<int>(w), seq)) {
      ++worker.stats.launch_failures;
      obs::instant(attempt.t, obs::Layer::kFleet, "fleet.launch_failure",
                   static_cast<int>(w), seq);
      fail_attempt(w, seq,
                   "injected transient launch failure; raise "
                   "RetryPolicy::max_attempts or lower "
                   "FaultPlan::launch_failure_prob",
                   attempt);
      continue;
    }
    worker.health.consecutive_failures = 0;
    double base_seconds = 0.0;
    try {
      base_seconds = run(worker);
    } catch (const simt::LaunchTimeout& timeout) {
      note_timeout(w, seq, attempt.t, timeout.what());
      fail_attempt(w, seq, timeout.what(), attempt);
      continue;
    } catch (const util::CheckError& error) {
      if (!config_.guard.sdc.enabled()) {
        throw;  // without injection this is a programming error, not noise
      }
      // A flipped address or count register crashed the launch (OOB access,
      // underflow, ...): under injection that is a retryable device fault.
      fail_attempt(w, seq, error.what(), attempt);
      continue;
    }
    return complete_dispatch(w, seq, shape, attempt, base_seconds);
  }
}

void FleetExecutor::fail_attempt(std::size_t w, std::uint64_t seq,
                                 const std::string& why, Attempt& attempt) {
  DeviceWorker& worker = workers_[w];
  // Close the calibration seq gap this consumed-but-unobserved dispatch
  // leaves, so buffered successors are not held up forever.
  handle_drift(calibrator_.skip(static_cast<int>(w), seq));
  ++worker.health.launch_failures;
  ++worker.health.consecutive_failures;
  if (config_.retry.unhealthy_after > 0 &&
      worker.health.consecutive_failures >=
          static_cast<std::size_t>(config_.retry.unhealthy_after)) {
    quarantine(worker, attempt.t);
  }
  ++attempt.failures;
  if (attempt.failures >= config_.retry.max_attempts) {
    throw util::CheckError("FleetExecutor: batch failed after " +
                           std::to_string(attempt.failures) +
                           " attempts (last failure: " + why + ")");
  }
  ++retries_;
  static obs::Counter c_retries("fleet.retries");
  c_retries.add();
  obs::instant(attempt.t, obs::Layer::kFleet, "fleet.retry", static_cast<int>(w),
               seq, static_cast<double>(attempt.failures));
  attempt.t += config_.retry.backoff(attempt.failures - 1);
  attempt.excluded = static_cast<int>(w);
}

void FleetExecutor::note_timeout(std::size_t w, std::uint64_t seq, SimTime t,
                                 const char* what) {
  ++workers_[w].stats.timeouts;
  ++guard_stats_.watchdog_timeouts;
  static obs::Counter c_timeouts("fleet.watchdog_timeouts");
  c_timeouts.add();
  obs::instant(t, obs::Layer::kFleet, "fleet.watchdog_timeout",
               static_cast<int>(w), seq);
  obs::dump_flight(std::string("fleet watchdog timeout: ") + what,
                   static_cast<int>(w), seq, t);
}

Execution FleetExecutor::complete_dispatch(std::size_t w, std::uint64_t seq,
                                           const BatchShape& shape,
                                           const Attempt& attempt,
                                           double base_seconds) {
  DeviceWorker& worker = workers_[w];
  const double fault_multiplier =
      config_.faults.service_multiplier(static_cast<int>(w), seq);
  if (fault_multiplier > 1.0) {
    ++worker.stats.slowdowns;
  }
  // Silent degradation stretches service time on top of any slowdown
  // fault without touching a single counter — nothing for the health
  // channel or the stats to see. Only the calibration residuals can.
  const double multiplier =
      fault_multiplier *
      config_.faults.degraded_multiplier(static_cast<int>(w), seq);
  Execution exec;
  exec.device_index = static_cast<int>(w);
  exec.attempts = attempt.failures + 1;
  exec.service_seconds = base_seconds * multiplier;
  exec.start_time = std::max(attempt.t, worker.free_at);
  exec.completion_time = exec.start_time + exec.service_seconds;
  worker.free_at = exec.completion_time;
  const bool calibrated_policy = config_.policy == PlacementPolicy::kCalibrated;
  if (calibrated_policy || config_.calibration.enabled) {
    const KernelClass cls = kernel_class(worker, shape);
    const double predicted = predicted_seconds_for(worker, cls, shape);
    if (calibrated_policy) {
      // Extend the believed timeline with the factor placement used — the
      // backlog model must reflect what the dispatcher knew, not what this
      // observation is about to teach it. Maintained even with calibration
      // off (factor pinned at 1.0): the backlog model is the policy's, only
      // the correction factors are the calibrator's.
      worker.model_busy_until =
          std::max(attempt.t, worker.model_busy_until) +
          calibrator_.factor(static_cast<int>(w), cls) * predicted;
    }
    if (config_.calibration.enabled) {
      handle_drift(calibrator_.observe(static_cast<int>(w), cls, seq, predicted,
                                       exec.service_seconds,
                                       exec.completion_time));
      static obs::Gauge g_factor("fleet.calibration_factor");
      g_factor.set(calibrator_.dominant_factor(static_cast<int>(w)));
    }
  }
  worker.pending.emplace_back(exec.completion_time, shape.cells);
  worker.pending_cells += shape.cells;
  worker.stats.busy_seconds += exec.service_seconds;
  ++worker.stats.batches;
  worker.stats.tasks += shape.tasks;
  worker.stats.cells += shape.cells;
  ++dispatches_;
  static obs::Counter c_dispatches("fleet.dispatches");
  static obs::Histogram h_batch_seconds("fleet.batch_seconds");
  c_dispatches.add();
  h_batch_seconds.observe(exec.service_seconds);
  obs::span_begin(exec.start_time, obs::Layer::kFleet, "fleet.batch",
                  static_cast<int>(w), seq, static_cast<double>(shape.tasks),
                  static_cast<double>(shape.cells));
  obs::span_end(exec.completion_time, obs::Layer::kFleet, "fleet.batch",
                static_cast<int>(w), seq);
  last_time_ = std::max(last_time_, exec.completion_time);
  if (attempt.failures > 0 && attempt.excluded != static_cast<int>(w)) {
    ++requeues_;
  }
  return exec;
}

void FleetExecutor::note_reexecution() {
  ++guard_stats_.reexecutions;
  static obs::Counter c_redo("guard.reexecutions");
  c_redo.add();
}

template <typename Kind, typename RunOnce>
typename Kind::Execution FleetExecutor::guarded_execute(
    const typename Kind::Batch& batch, SimTime now, RunOnce&& run_once) {
  using Exec = typename Kind::Execution;
  const align::SwParams& params = workers_.front().model->sw_runner.params();
  const auto flips_of = [](const Exec& e) { return e.result.run.launch.sdc_flips; };

  Exec first = run_once(now, /*force=*/-1, /*excluded=*/-1);
  guard_stats_.sdc_flips += flips_of(first);
  ++guard_stats_.verified_batches;

  if (config_.guard.detect == guard::DetectMode::kAbft) {
    std::optional<std::string> verdict = Kind::validate(batch, first.result, params);
    if (!verdict.has_value()) {
      workers_[static_cast<std::size_t>(first.exec.device_index)]
          .health.consecutive_sdc = 0;
      if (flips_of(first) > 0) {
        ++guard_stats_.sdc_masked;
      }
      return first;
    }
    ++guard_stats_.sdc_detected;
    note_sdc(static_cast<std::size_t>(first.exec.device_index),
             first.exec.completion_time);
    Exec flagged = std::move(first);
    for (int redo = 0; redo < config_.guard.max_reexecutions; ++redo) {
      // Escalation: first retry prefers the flagged device (a transient
      // upset clears), the next avoids it (a sick device does not).
      const int device = flagged.exec.device_index;
      Exec rerun = run_once(flagged.exec.completion_time,
                            redo == 0 ? device : -1, redo == 0 ? -1 : device);
      note_reexecution();
      guard_stats_.sdc_flips += flips_of(rerun);
      rerun.exec.reexecutions = flagged.exec.reexecutions + 1;
      verdict = Kind::validate(batch, rerun.result, params);
      if (!verdict.has_value()) {
        ++guard_stats_.sdc_corrected;
        obs::instant(rerun.exec.completion_time, obs::Layer::kGuard,
                     "guard.sdc_corrected", rerun.exec.device_index);
        workers_[static_cast<std::size_t>(rerun.exec.device_index)]
            .health.consecutive_sdc = 0;
        if (flips_of(rerun) > 0) {
          ++guard_stats_.sdc_masked;
        }
        return rerun;
      }
      ++guard_stats_.sdc_detected;
      note_sdc(static_cast<std::size_t>(rerun.exec.device_index),
               rerun.exec.completion_time);
      flagged = std::move(rerun);
    }
    if (!config_.guard.cpu_fallback) {
      throw util::CheckError("guard: batch still failing verification after " +
                             std::to_string(config_.guard.max_reexecutions) +
                             " re-executions (" + *verdict + ")");
    }
    Kind::cpu_substitute(batch, flagged.result, params);
    flagged.exec.cpu_fallback = true;
    ++guard_stats_.cpu_fallbacks;
    obs::instant(flagged.exec.completion_time, obs::Layer::kGuard,
                 "guard.cpu_fallback", flagged.exec.device_index);
    return flagged;
  }

  // kDual: the batch runs twice (different devices when possible, always
  // disjoint SDC streams); exact fingerprint agreement certifies the
  // outputs, a mismatch escalates to a third run and a 2-of-3 vote.
  Exec second =
      run_once(first.exec.completion_time, /*force=*/-1, first.exec.device_index);
  note_reexecution();
  guard_stats_.sdc_flips += flips_of(second);
  const std::uint64_t print1 = Kind::fingerprint(first.result);
  const std::uint64_t print2 = Kind::fingerprint(second.result);
  if (print1 == print2) {
    workers_[static_cast<std::size_t>(first.exec.device_index)]
        .health.consecutive_sdc = 0;
    workers_[static_cast<std::size_t>(second.exec.device_index)]
        .health.consecutive_sdc = 0;
    if (flips_of(first) + flips_of(second) > 0) {
      ++guard_stats_.sdc_masked;
    }
    first.exec.reexecutions += 1;
    first.exec.completion_time =
        std::max(first.exec.completion_time, second.exec.completion_time);
    return first;
  }
  ++guard_stats_.sdc_detected;
  Exec third = run_once(second.exec.completion_time, /*force=*/-1, /*excluded=*/-1);
  note_reexecution();
  guard_stats_.sdc_flips += flips_of(third);
  const std::uint64_t print3 = Kind::fingerprint(third.result);
  if (print3 == print1 || print3 == print2) {
    const Exec& loser = print3 == print1 ? second : first;
    note_sdc(static_cast<std::size_t>(loser.exec.device_index),
             loser.exec.completion_time);
    Exec winner = print3 == print1 ? std::move(first) : std::move(second);
    ++guard_stats_.sdc_corrected;
    obs::instant(third.exec.completion_time, obs::Layer::kGuard,
                 "guard.sdc_corrected", winner.exec.device_index);
    winner.exec.reexecutions += 2;
    winner.exec.completion_time = third.exec.completion_time;
    return winner;
  }
  if (!config_.guard.cpu_fallback) {
    throw util::CheckError(
        "guard: three dual-execution runs disagree pairwise; no quorum");
  }
  Kind::cpu_substitute(batch, third.result, params);
  third.exec.cpu_fallback = true;
  third.exec.reexecutions += 2;
  ++guard_stats_.cpu_fallbacks;
  obs::instant(third.exec.completion_time, obs::Layer::kGuard,
               "guard.cpu_fallback", third.exec.device_index);
  return third;
}

template <typename Kind>
typename Kind::Execution FleetExecutor::execute(const typename Kind::Batch& batch,
                                                SimTime now,
                                                const ExecOptions& options) {
  using Exec = typename Kind::Execution;
  util::require(!batch.empty(), "FleetExecutor::execute: empty batch");
  const BatchShape shape = Kind::shape(batch);
  double busy_seconds = 0.0;  // every device run of this batch
  const auto run_once = [&](SimTime when, int force, int excluded, bool collect) {
    Exec out;
    out.exec = dispatch(shape, when, force, excluded, [&](DeviceWorker& worker) {
      return run_on<Kind>(worker, batch, shape, options, collect, out.result);
    });
    busy_seconds += out.exec.service_seconds;
    return out;
  };
  const auto run_collecting = [&](SimTime when, int force, int excluded) {
    return run_once(when, force, excluded, options.collect_outputs);
  };
  Exec out;
  try {
    if (!options.collect_outputs || !config_.guard.verifying()) {
      out = run_collecting(now, -1, -1);
      guard_stats_.sdc_flips += out.result.run.launch.sdc_flips;
    } else {
      out = guarded_execute<Kind>(batch, now, run_collecting);
    }
  } catch (const util::CheckError&) {
    if (!options.collect_outputs || !config_.guard.sdc.enabled() ||
        !config_.guard.cpu_fallback) {
      throw;
    }
    // Injected corruption hit an address register on every attempt —
    // fail-stop, not silent. Timing comes from a clean shape-cached
    // dispatch; the values from the CPU reference (bit-identical for SW,
    // accurate though not bit-identical for PairHMM).
    out = run_once(now, -1, -1, /*collect=*/false);
    Kind::cpu_substitute(batch, out.result, workers_.front().model->sw_runner.params());
    out.exec.cpu_fallback = true;
    ++guard_stats_.cpu_fallbacks;
    obs::instant(out.exec.completion_time, obs::Layer::kGuard,
                 "guard.cpu_fallback", out.exec.device_index);
  }
  out.exec.busy_seconds = busy_seconds;
  return out;
}

template SwExecution FleetExecutor::execute<SwKind>(const workload::SwBatch&,
                                                    SimTime, const ExecOptions&);
template PhExecution FleetExecutor::execute<PhKind>(const workload::PhBatch&,
                                                    SimTime, const ExecOptions&);

// --- kind traits --------------------------------------------------------------

BatchShape SwKind::shape(const Batch& batch) {
  // The 2-D regime decision works on the batch's mean task shape — batches
  // formed by length grouping are near-uniform, and region batches mix
  // lengths narrowly enough for the mean to be representative.
  std::size_t sum_m = 0;
  std::size_t sum_n = 0;
  for (const workload::SwTask& task : batch) {
    sum_m += task.query.size();
    sum_n += task.target.size();
  }
  const std::size_t tasks = std::max<std::size_t>(1, batch.size());
  return {kIsSw, batch.size(), workload::batch_cells(batch),
          std::max<std::size_t>(1, sum_m / tasks),
          std::max<std::size_t>(1, sum_n / tasks)};
}

void PhKind::check_task(const Task& task) {
  util::require(!task.read.empty() && !task.hap.empty(),
                "PairHMM task needs non-empty sequences");
  util::require(task.read.size() <= static_cast<std::size_t>(kernels::kPhMaxReadLen),
                "PairHMM read exceeds kPhMaxReadLen");
  util::require(task.base_quals.size() == task.read.size() &&
                    task.ins_quals.size() == task.read.size() &&
                    task.del_quals.size() == task.read.size(),
                "PairHMM quality tracks must match read length");
}

}  // namespace wsim::fleet
