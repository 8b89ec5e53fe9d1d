#include "wsim/workload/trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "wsim/util/check.hpp"
#include "wsim/util/rng.hpp"

namespace wsim::workload {

std::string_view to_string(TraceShape shape) noexcept {
  switch (shape) {
    case TraceShape::kSteady:
      return "steady";
    case TraceShape::kDiurnal:
      return "diurnal";
    case TraceShape::kBursty:
      return "bursty";
  }
  return "?";
}

TraceShape trace_shape_by_name(std::string_view name) {
  if (name == "steady") {
    return TraceShape::kSteady;
  }
  if (name == "diurnal") {
    return TraceShape::kDiurnal;
  }
  if (name == "bursty") {
    return TraceShape::kBursty;
  }
  throw util::CheckError("unknown trace shape '" + std::string(name) +
                         "' (valid: steady, diurnal, bursty)");
}

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Rate factor of the shape at time t (multiple of the tenant's mean
/// rate) and its peak over the whole trace — the thinning envelope.
double shape_factor(const TraceConfig& cfg, double t) {
  switch (cfg.shape) {
    case TraceShape::kSteady:
      return 1.0;
    case TraceShape::kDiurnal:
      return 1.0 +
             cfg.diurnal_amplitude * std::sin(2.0 * kPi * t / cfg.period_seconds);
    case TraceShape::kBursty:
      return std::fmod(t, cfg.burst_every_seconds) < cfg.burst_seconds
                 ? cfg.burst_multiplier
                 : 1.0;
  }
  return 1.0;
}

double shape_peak(const TraceConfig& cfg) {
  switch (cfg.shape) {
    case TraceShape::kSteady:
      return 1.0;
    case TraceShape::kDiurnal:
      return 1.0 + cfg.diurnal_amplitude;
    case TraceShape::kBursty:
      return cfg.burst_multiplier;
  }
  return 1.0;
}

}  // namespace

Trace generate_trace(const TraceConfig& config) {
  util::require(config.duration_seconds > 0.0,
                "generate_trace: duration must be > 0");
  util::require(config.diurnal_amplitude >= 0.0 && config.diurnal_amplitude <= 1.0,
                "generate_trace: diurnal_amplitude must be in [0, 1]");
  util::require(config.burst_multiplier >= 1.0,
                "generate_trace: burst_multiplier must be >= 1");
  util::require(config.period_seconds > 0.0 && config.burst_every_seconds > 0.0 &&
                    config.burst_seconds > 0.0,
                "generate_trace: shape periods must be > 0");
  std::vector<TenantTraffic> tenants = config.tenants;
  if (tenants.empty()) {
    tenants.push_back(TenantTraffic{});
  }

  Trace trace;
  trace.duration_seconds = config.duration_seconds;
  const double peak = shape_peak(config);
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const TenantTraffic& tenant = tenants[i];
    util::require(tenant.rate_hz > 0.0, "generate_trace: rate_hz must be > 0");
    util::require(tenant.sw_fraction >= 0.0 && tenant.sw_fraction <= 1.0,
                  "generate_trace: sw_fraction must be in [0, 1]");
    trace.tenants.push_back(tenant.name.empty() ? "tenant" + std::to_string(i)
                                                : tenant.name);
    // Thinning: candidates at the peak rate, kept with probability
    // factor(t)/peak. Each tenant gets an independent substream so adding
    // a tenant never perturbs the others' arrivals.
    util::Rng rng(config.seed ^ (0x7454ce5e1ca1f3dbULL * (i + 1)));
    const double envelope = tenant.rate_hz * peak;
    double t = 0.0;
    for (;;) {
      t += -std::log(1.0 - rng.uniform01()) / envelope;
      if (t >= config.duration_seconds) {
        break;
      }
      if (rng.uniform01() * peak > shape_factor(config, t)) {
        continue;  // thinned away
      }
      TraceEvent event;
      event.time = t;
      event.tenant = static_cast<std::uint32_t>(i);
      event.is_sw = rng.uniform01() < tenant.sw_fraction;
      event.task_index = rng();
      trace.events.push_back(event);
    }
  }
  std::sort(trace.events.begin(), trace.events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.time != b.time) {
                return a.time < b.time;
              }
              if (a.tenant != b.tenant) {
                return a.tenant < b.tenant;
              }
              return a.task_index < b.task_index;
            });
  return trace;
}

void write_trace(std::ostream& os, const Trace& trace) {
  const auto previous = os.precision(std::numeric_limits<double>::max_digits10);
  os << "WSIM-TRACE 1\n";
  os << "duration " << trace.duration_seconds << '\n';
  for (const std::string& tenant : trace.tenants) {
    util::require(!tenant.empty() &&
                      tenant.find_first_of(" \t\n") == std::string::npos,
                  "write_trace: tenant names must be non-empty and "
                  "whitespace-free");
    os << "tenant " << tenant << '\n';
  }
  for (const TraceEvent& event : trace.events) {
    util::require(event.tenant < trace.tenants.size(),
                  "write_trace: event references an unknown tenant");
    os << "event " << event.time << ' ' << event.tenant << ' '
       << (event.is_sw ? "sw" : "ph") << ' ' << event.task_index << '\n';
  }
  os.precision(previous);
}

Trace read_trace(std::istream& is, const std::string& source) {
  Trace trace;
  std::string line;
  int line_no = 0;
  bool versioned = false;
  const auto expect = [&](bool ok, const std::string& what) {
    util::check_input(ok, source + ":" + std::to_string(line_no) + ": " + what);
  };
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line.front() == '#') {
      continue;
    }
    std::istringstream fields(line);
    // True when every field read parsed and nothing but blanks follows.
    const auto complete = [&fields] {
      return !fields.fail() && (fields >> std::ws).eof();
    };
    std::string kind;
    fields >> kind;
    if (!versioned) {
      expect(kind == "WSIM-TRACE", "missing WSIM-TRACE header");
      int version = 0;
      fields >> version;
      expect(complete() && version == 1,
             "unsupported trace version (expected: WSIM-TRACE 1)");
      versioned = true;
      continue;
    }
    if (kind == "duration") {
      fields >> trace.duration_seconds;
      expect(complete() && trace.duration_seconds > 0.0,
             "bad duration (expected: duration SECONDS, > 0)");
    } else if (kind == "tenant") {
      std::string name;
      fields >> name;
      expect(complete(), "bad tenant (expected: tenant NAME)");
      trace.tenants.push_back(std::move(name));
    } else if (kind == "event") {
      TraceEvent event;
      std::string sw_or_ph;
      fields >> event.time >> event.tenant >> sw_or_ph >> event.task_index;
      expect(complete() && event.time >= 0.0 && (sw_or_ph == "sw" || sw_or_ph == "ph"),
             "bad event (expected: event TIME TENANT sw|ph INDEX, TIME >= 0)");
      expect(event.tenant < trace.tenants.size(), "event references unknown tenant");
      expect(trace.events.empty() || trace.events.back().time <= event.time,
             "events out of order");
      event.is_sw = sw_or_ph == "sw";
      trace.events.push_back(event);
    } else {
      expect(false, "unknown directive '" + kind + "'");
    }
  }
  util::check_input(versioned, source + ": empty or headerless trace");
  return trace;
}

void save_trace(const std::string& path, const Trace& trace) {
  std::ofstream os(path);
  util::check_input(os.good(), "save_trace: cannot open '" + path + "'");
  write_trace(os, trace);
  util::check_input(os.good(), "save_trace: write to '" + path + "' failed");
}

Trace load_trace(const std::string& path) {
  std::ifstream is(path);
  util::check_input(is.good(), "load_trace: cannot open '" + path + "'");
  return read_trace(is, path);
}

}  // namespace wsim::workload
