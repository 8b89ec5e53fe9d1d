// wsim::obs: the observability substrate's core contracts — disabled
// no-op, replay-deterministic event streams, span nesting and per-track
// timestamp monotonicity in the Chrome export, the flight recorder on an
// injected watchdog timeout, and the versioned metrics/stats schema.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "wsim/fleet/fleet.hpp"
#include "wsim/guard/guard.hpp"
#include "wsim/obs/chrome_trace.hpp"
#include "wsim/obs/json.hpp"
#include "wsim/obs/metrics.hpp"
#include "wsim/obs/obs.hpp"
#include "wsim/serve/service.hpp"
#include "wsim/serve/stats.hpp"
#include "wsim/simt/device.hpp"
#include "wsim/workload/batching.hpp"
#include "wsim/workload/generator.hpp"

namespace {

namespace obs = wsim::obs;

/// Restores the global obs state around each test: level back to kOff and
/// buffers cleared, so tests compose regardless of execution order.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::reset();
    obs::set_level(obs::Level::kOff);
  }
  void TearDown() override {
    obs::set_level(obs::Level::kOff);
    obs::reset();
  }
};

wsim::workload::Dataset small_dataset(std::uint64_t seed) {
  wsim::workload::GeneratorConfig gen;
  gen.seed = seed;
  gen.regions = 2;
  gen.sw_query_len_min = 40;
  gen.sw_query_len_max = 80;
  gen.sw_target_len_min = 60;
  gen.sw_target_len_max = 100;
  return wsim::workload::generate_dataset(gen);
}

/// One simulated K1200: the single-device fleet the serve replays use.
wsim::fleet::FleetConfig one_worker_fleet() {
  wsim::fleet::FleetConfig cfg;
  cfg.workers.push_back({wsim::simt::make_k1200(), {}, {}, {}, 8});
  return cfg;
}

/// One small serve replay over a one-worker fleet: submit every SW task at
/// a fixed cadence, then drain.
void run_serve_replay(const wsim::workload::Dataset& dataset) {
  wsim::fleet::FleetExecutor executor(one_worker_fleet());
  wsim::serve::ServiceConfig cfg;
  cfg.fleet = &executor;
  wsim::serve::AlignmentService service(cfg);
  const auto tasks = wsim::workload::sw_all_tasks(dataset);
  double t = 0.0;
  for (const auto& task : tasks) {
    service.advance_to(t);
    service.submit(wsim::serve::SwRequest{
        task, wsim::serve::Priority::kNormal, {}, {}, {}});
    t += 20e-6;
  }
  service.drain();
}

// --- disabled no-op ---------------------------------------------------------

TEST_F(ObsTest, DisabledLevelRecordsNothing) {
  ASSERT_EQ(obs::level(), obs::Level::kOff);
  obs::instant(1.0, obs::Layer::kServe, "test.instant");
  obs::span_begin(1.0, obs::Layer::kServe, "test.span");
  obs::span_end(2.0, obs::Layer::kServe, "test.span");
  obs::counter(1.0, obs::Layer::kCluster, "test.counter", 42.0);
  { obs::Span scope(obs::Layer::kFleet, "test.scope"); }
  static obs::Counter c_test("test.disabled_counter");
  c_test.add(7);
  EXPECT_TRUE(obs::collect().empty());
  EXPECT_EQ(c_test.value(), 0U);

  run_serve_replay(small_dataset(3));
  EXPECT_TRUE(obs::collect().empty());
}

TEST_F(ObsTest, MetricsLevelCountsButRecordsNoEvents) {
  obs::set_level(obs::Level::kMetrics);
  obs::instant(1.0, obs::Layer::kServe, "test.instant");
  static obs::Counter c_test("test.metrics_counter");
  c_test.add(3);
  EXPECT_TRUE(obs::collect().empty());
  EXPECT_EQ(c_test.value(), 3U);
}

// --- emission and spans -----------------------------------------------------

TEST_F(ObsTest, EventsCarryStructuredFields) {
  obs::set_level(obs::Level::kTrace);
  obs::instant(0.5, obs::Layer::kFleet, "test.dispatch", 2, 7, 3.0, 4.0);
  const auto events = obs::collect();
  ASSERT_EQ(events.size(), 1U);
  EXPECT_EQ(events[0].ts, 0.5);
  EXPECT_EQ(events[0].layer, obs::Layer::kFleet);
  EXPECT_EQ(events[0].kind, obs::Kind::kInstant);
  EXPECT_EQ(events[0].device, 2);
  EXPECT_EQ(events[0].id, 7U);
  EXPECT_STREQ(events[0].name, "test.dispatch");
  EXPECT_EQ(events[0].a0, 3.0);
  EXPECT_EQ(events[0].a1, 4.0);
}

TEST_F(ObsTest, SpanScopeEmitsBeginAndEndOnSimClock) {
  obs::set_level(obs::Level::kTrace);
  obs::set_sim_time(1.25);
  { obs::Span scope(obs::Layer::kCluster, "cluster.tick"); }
  const auto events = obs::collect();
  ASSERT_EQ(events.size(), 2U);
  EXPECT_EQ(events[0].kind, obs::Kind::kSpanBegin);
  EXPECT_EQ(events[1].kind, obs::Kind::kSpanEnd);
  EXPECT_EQ(events[0].ts, 1.25);
  EXPECT_EQ(events[1].ts, 1.25);
  EXPECT_LT(events[0].seq, events[1].seq);
}

// --- replay determinism -----------------------------------------------------

TEST_F(ObsTest, SameSeedYieldsByteIdenticalEventStream) {
  obs::set_level(obs::Level::kTrace);
  const auto dataset = small_dataset(11);

  // Warm the process-wide decode cache first: the contract is identical
  // streams from identical starting state, and a cold first run records
  // one extra engine.decode_miss.
  run_serve_replay(dataset);
  obs::reset();

  run_serve_replay(dataset);
  const std::string first = obs::format_events(obs::collect());
  ASSERT_FALSE(first.empty());

  obs::reset();
  run_serve_replay(dataset);
  const std::string second = obs::format_events(obs::collect());

  EXPECT_EQ(first, second);
}

// --- chrome export invariants ----------------------------------------------

TEST_F(ObsTest, ChromeTracksAreMonotoneAndSpansNest) {
  obs::set_level(obs::Level::kTrace);
  wsim::fleet::FleetConfig fleet_cfg;
  wsim::fleet::WorkerConfig wc;
  wc.device = wsim::simt::make_k1200();
  fleet_cfg.workers = {wc, wc};
  // Round-robin alternates devices deterministically, so both device
  // tracks carry spans.
  fleet_cfg.policy = wsim::fleet::PlacementPolicy::kRoundRobin;
  wsim::fleet::FleetExecutor executor(std::move(fleet_cfg));
  const auto dataset = small_dataset(11);
  const auto batches = wsim::workload::sw_rebatch(dataset, 2);
  ASSERT_GE(batches.size(), 2U);
  double t = 0.0;
  for (const auto& batch : batches) {
    obs::set_sim_time(t);
    executor.execute_sw(batch, t, {});
    t += 1e-4;
  }

  const auto sorted = obs::chrome_sorted(obs::collect());
  ASSERT_FALSE(sorted.empty());
  // Per track: non-decreasing ts and stack-balanced begin/end pairs.
  std::map<std::uint32_t, double> last_ts;
  std::map<std::uint32_t, std::vector<std::string>> stacks;
  for (const auto& e : sorted) {
    const std::uint32_t tid = obs::chrome_tid(e);
    const auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_GE(e.ts, it->second) << "track " << tid << " event " << e.name;
    }
    last_ts[tid] = e.ts;
    if (e.kind == obs::Kind::kSpanBegin) {
      stacks[tid].emplace_back(e.name);
    } else if (e.kind == obs::Kind::kSpanEnd) {
      ASSERT_FALSE(stacks[tid].empty()) << "unbalanced span end on " << tid;
      EXPECT_EQ(stacks[tid].back(), e.name);
      stacks[tid].pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on track " << tid;
  }
  // Both fleet devices saw work, on distinct tracks.
  EXPECT_TRUE(last_ts.count(100) == 1 && last_ts.count(101) == 1);
}

TEST_F(ObsTest, ChromeWriterEmitsValidShape) {
  obs::set_level(obs::Level::kTrace);
  obs::set_sim_time(0.0);
  obs::span_begin(0.0, obs::Layer::kServe, "serve.batch", 0, 1);
  obs::span_end(1e-3, obs::Layer::kServe, "serve.batch", 0, 1);
  obs::instant(2e-3, obs::Layer::kCluster, "cluster.scale_up", -1, 0, 2.0);
  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string trace = os.str();
  EXPECT_EQ(trace.front(), '[');
  EXPECT_NE(trace.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"device-0\""), std::string::npos);
  EXPECT_NE(trace.find("\"autoscaler\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);
  // Simulated seconds scale to microseconds in the export.
  EXPECT_NE(trace.find("\"ts\":1000"), std::string::npos);
}

// --- flight recorder --------------------------------------------------------

TEST_F(ObsTest, WatchdogTimeoutDumpsFlightRecorder) {
  obs::set_level(obs::Level::kTrace);
  const auto dataset = small_dataset(5);
  const auto tasks = wsim::workload::sw_all_tasks(dataset);
  ASSERT_FALSE(tasks.empty());

  wsim::fleet::FleetConfig fleet_cfg = one_worker_fleet();
  fleet_cfg.guard.max_block_cycles = 1;  // every batch times out
  wsim::fleet::FleetExecutor executor(std::move(fleet_cfg));
  wsim::serve::ServiceConfig cfg;
  cfg.collect_outputs = true;
  cfg.fleet = &executor;
  wsim::serve::AlignmentService service(cfg);
  const auto submit = service.submit(wsim::serve::SwRequest{
      tasks.front(), wsim::serve::Priority::kNormal, {}, {}, {}});
  ASSERT_TRUE(submit.admitted());
  service.drain();
  ASSERT_TRUE(submit.ticket.failed());

  const auto dumps = obs::flight_dumps();
  ASSERT_FALSE(dumps.empty());
  const obs::FlightDump& dump = dumps.front();
  // The dump names the failing (device, launch) and carries the final
  // events — including the submit and flush that led to the timeout.
  EXPECT_EQ(dump.device, 0);
  EXPECT_NE(dump.reason.find("cycle budget"), std::string::npos);
  ASSERT_FALSE(dump.events.empty());
  bool saw_flush = false;
  for (const auto& e : dump.events) {
    if (std::string(e.name) == "serve.flush_sw") {
      saw_flush = true;
    }
  }
  EXPECT_TRUE(saw_flush);
  const std::string rendered = obs::format_flight(dump);
  EXPECT_NE(rendered.find("failing device=0"), std::string::npos);
}

TEST_F(ObsTest, FlightDumpCapturesFailingSiteEvenBelowTraceLevel) {
  obs::set_level(obs::Level::kMetrics);
  obs::dump_flight("test failure", 3, 17, 2.5);
  const auto dumps = obs::flight_dumps();
  ASSERT_EQ(dumps.size(), 1U);
  EXPECT_EQ(dumps[0].device, 3);
  EXPECT_EQ(dumps[0].id, 17U);
  EXPECT_TRUE(dumps[0].events.empty());
}

// --- metrics registry -------------------------------------------------------

TEST_F(ObsTest, MetricsJsonIsVersionedAndSorted) {
  obs::set_level(obs::Level::kMetrics);
  static obs::Counter c_b("ztest.b_counter");
  static obs::Counter c_a("ztest.a_counter");
  static obs::Gauge g("ztest.gauge");
  static obs::Histogram h("ztest.hist");
  c_b.add(2);
  c_a.add(1);
  g.set(0.5);
  h.observe(1e-3);
  h.observe(2e-3);
  std::ostringstream os;
  obs::write_metrics_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"ztest.a_counter\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"ztest.b_counter\": 2"), std::string::npos);
  EXPECT_LT(json.find("\"ztest.a_counter\""), json.find("\"ztest.b_counter\""));
  EXPECT_NE(json.find("\"ztest.gauge\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  obs::reset();
  EXPECT_EQ(c_a.value(), 0U);
  EXPECT_EQ(h.count(), 0U);
}

// Function-local static instruments inside templates register once per
// instantiation (and per site), so a dump after the templated SW and
// PairHMM paths ran could name one metric several times. Each key must
// appear once per section.
TEST_F(ObsTest, MetricsJsonNamesEachInstrumentOnce) {
  obs::set_level(obs::Level::kMetrics);
  const auto dataset = small_dataset(11);
  wsim::fleet::FleetConfig fleet_cfg = one_worker_fleet();
  fleet_cfg.guard.detect = wsim::guard::DetectMode::kDual;
  fleet_cfg.calibration.enabled = true;
  wsim::fleet::FleetExecutor executor(std::move(fleet_cfg));
  for (const auto& batch : wsim::workload::sw_rebatch(dataset, 4)) {
    executor.execute_sw(batch, 0.0, {});
  }
  for (const auto& batch : wsim::workload::ph_rebatch(dataset, 16)) {
    executor.execute_ph(batch, 0.0, {});
  }
  {
    wsim::serve::ServiceConfig cfg;
    cfg.fleet = &executor;
    wsim::serve::AlignmentService service(cfg);
    for (const auto& task : wsim::workload::sw_all_tasks(dataset)) {
      service.submit(wsim::serve::SwRequest{
          task, wsim::serve::Priority::kNormal, {}, {}, {}});
    }
    for (const auto& task : wsim::workload::ph_all_tasks(dataset)) {
      service.submit(wsim::serve::PairHmmRequest{
          task, wsim::serve::Priority::kNormal, {}, {}, {}});
    }
    service.drain();
  }
  run_serve_replay(dataset);

  std::ostringstream os;
  obs::write_metrics_json(os);
  // One instrument per line: `    "name": value` inside a `  "section": {`.
  std::istringstream lines(os.str());
  std::map<std::string, std::map<std::string, int>> seen;
  std::string section;
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("  \"", 0) == 0 && line.back() == '{') {
      section = line.substr(3, line.find('"', 3) - 3);
    } else if (line.rfind("    \"", 0) == 0) {
      ++seen[section][line.substr(5, line.find('"', 5) - 5)];
    }
  }
  for (const char* key : {"fleet.dispatches", "fleet.batch_seconds",
                          "fleet.calibration_factor", "guard.reexecutions",
                          "serve.sw_batches", "serve.ph_batches"}) {
    bool found = false;
    for (const auto& [name, keys] : seen) {
      found = found || keys.count(key) == 1;
    }
    EXPECT_TRUE(found) << key << "\n" << os.str();
  }
  for (const auto& [name, keys] : seen) {
    for (const auto& [key, count] : keys) {
      EXPECT_EQ(count, 1) << name << "." << key;
    }
  }
}

// --- shared stats schema ----------------------------------------------------

TEST_F(ObsTest, StatsJsonCarriesSchemaVersion) {
  wsim::serve::ServiceStats stats;
  std::ostringstream os;
  wsim::serve::write_stats_json(os, stats);
  EXPECT_NE(os.str().find("\"schema_version\": 2"), std::string::npos);
}

TEST_F(ObsTest, JsonHelpersEscapeAndClampNonFinite) {
  EXPECT_EQ(obs::json_number(0.5), "0.5");
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(obs::json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
}

}  // namespace
