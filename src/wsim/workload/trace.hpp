#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace wsim::workload {

/// One arrival in a traffic trace: at `time` seconds from trace start,
/// tenant `tenant` submits one task. The event references work abstractly
/// (`task_index` into whichever task pool the replayer uses, modulo its
/// size) so one trace replays against any dataset and the file stays
/// small.
struct TraceEvent {
  double time = 0.0;
  std::uint32_t tenant = 0;      ///< index into Trace::tenants
  bool is_sw = false;            ///< Smith-Waterman request (else PairHMM)
  std::uint64_t task_index = 0;  ///< pool index; replayers take it mod pool size
};

/// A generated or loaded traffic trace: tenant names plus time-sorted
/// arrivals. Replaying the same trace yields the same submissions in the
/// same order — the determinism anchor for cluster-sim's replay checks.
struct Trace {
  std::vector<std::string> tenants;
  std::vector<TraceEvent> events;  ///< sorted by (time, tenant, task_index)
  double duration_seconds = 0.0;   ///< nominal span (arrivals stop here)
};

/// Shape of the arrival-rate curve over time.
enum class TraceShape {
  kSteady,   ///< constant rate (plain Poisson)
  kDiurnal,  ///< sinusoidal swing — the day/night load curve, compressed
  kBursty,   ///< periodic bursts of burst_multiplier × the base rate
};

std::string_view to_string(TraceShape shape) noexcept;

/// Lookup by CLI name: "steady" | "diurnal" | "bursty". Throws
/// util::CheckError listing the valid names on anything else.
TraceShape trace_shape_by_name(std::string_view name);

/// One tenant's traffic contract in the generator.
struct TenantTraffic {
  std::string name;
  double rate_hz = 1000.0;    ///< mean arrival rate over the trace
  /// Fraction of arrivals that are SW requests; the rest are PairHMM
  /// (the paper's HaplotypeCaller regions average 4 SW vs 189 PairHMM
  /// tasks, hence the default).
  double sw_fraction = 0.02;
};

struct TraceConfig {
  std::uint64_t seed = 42;
  double duration_seconds = 1.0;
  TraceShape shape = TraceShape::kDiurnal;
  /// Tenants to generate traffic for; empty means one anonymous tenant
  /// with the default TenantTraffic.
  std::vector<TenantTraffic> tenants;
  /// kDiurnal: the rate swings sinusoidally between (1 - amplitude) and
  /// (1 + amplitude) times the mean, one full cycle per period.
  double diurnal_amplitude = 0.8;
  double period_seconds = 1.0;
  /// kBursty: for burst_seconds out of every burst_every_seconds the rate
  /// is burst_multiplier × the base (all tenants burst together — the
  /// worst case for an autoscaler).
  double burst_multiplier = 8.0;
  double burst_seconds = 0.05;
  double burst_every_seconds = 0.25;
};

/// Generates an inhomogeneous-Poisson trace by thinning: per tenant,
/// candidate arrivals are drawn at the shape's peak rate and kept with
/// probability rate(t)/peak. Deterministic in the config (per-tenant
/// substreams are hashed from the seed), so the same config always yields
/// the same trace.
Trace generate_trace(const TraceConfig& config);

/// Line-oriented versioned text format:
///
///   WSIM-TRACE 1
///   duration <seconds>
///   tenant <name>                      (one per tenant, in index order)
///   event <time> <tenant_index> <sw|ph> <task_index>
///
/// Comments (#) and blank lines are ignored. read_trace rejects a missing
/// or unsupported version header, so the format can evolve, and any line
/// with a missing, extra or bad field, a negative event time, an unknown
/// tenant or an event out of time order; its util::CheckError names
/// `source` (load_trace passes the file path) and the line.
void write_trace(std::ostream& os, const Trace& trace);
Trace read_trace(std::istream& is, const std::string& source = "<trace>");

/// File-path convenience wrappers. Throw util::CheckError when the file
/// cannot be opened or parsed.
void save_trace(const std::string& path, const Trace& trace);
Trace load_trace(const std::string& path);

}  // namespace wsim::workload
