#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include "wsim/align/pairhmm.hpp"
#include "wsim/util/check.hpp"
#include "wsim/workload/batching.hpp"
#include "wsim/workload/generator.hpp"
#include "wsim/workload/task.hpp"
#include "wsim/workload/trace.hpp"

namespace {

using wsim::workload::Dataset;
using wsim::workload::DatasetStats;
using wsim::workload::GeneratorConfig;

GeneratorConfig small_config() {
  GeneratorConfig cfg;
  cfg.regions = 12;
  cfg.ph_tasks_per_region_mean = 40.0;  // keep tests fast
  return cfg;
}

TEST(Generator, DeterministicForSameSeed) {
  const Dataset a = wsim::workload::generate_dataset(small_config());
  const Dataset b = wsim::workload::generate_dataset(small_config());
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (std::size_t r = 0; r < a.regions.size(); ++r) {
    ASSERT_EQ(a.regions[r].sw_tasks.size(), b.regions[r].sw_tasks.size());
    for (std::size_t t = 0; t < a.regions[r].sw_tasks.size(); ++t) {
      EXPECT_EQ(a.regions[r].sw_tasks[t].query, b.regions[r].sw_tasks[t].query);
      EXPECT_EQ(a.regions[r].sw_tasks[t].target, b.regions[r].sw_tasks[t].target);
    }
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  GeneratorConfig cfg = small_config();
  const Dataset a = wsim::workload::generate_dataset(cfg);
  cfg.seed = 777;
  const Dataset b = wsim::workload::generate_dataset(cfg);
  bool any_diff = a.regions.size() != b.regions.size();
  for (std::size_t r = 0; !any_diff && r < a.regions.size(); ++r) {
    any_diff = a.regions[r].sw_tasks.size() != b.regions[r].sw_tasks.size() ||
               (!a.regions[r].sw_tasks.empty() &&
                a.regions[r].sw_tasks[0].query != b.regions[r].sw_tasks[0].query);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Generator, EveryTaskIsStructurallyValid) {
  const Dataset ds = wsim::workload::generate_dataset(small_config());
  const GeneratorConfig cfg = small_config();
  for (const auto& region : ds.regions) {
    EXPECT_FALSE(region.sw_tasks.empty());
    EXPECT_FALSE(region.ph_tasks.empty());
    for (const auto& task : region.sw_tasks) {
      EXPECT_GE(static_cast<int>(task.query.size()), cfg.sw_query_len_min);
      EXPECT_LE(static_cast<int>(task.query.size()), cfg.sw_query_len_max);
      EXPECT_FALSE(task.target.empty());
      EXPECT_EQ(task.query.find_first_not_of("ACGT"), std::string::npos);
    }
    for (const auto& task : region.ph_tasks) {
      EXPECT_NO_THROW(wsim::align::validate(task));
      EXPECT_LT(task.read.size(), 128U);  // PH1's 128-thread premise
      EXPECT_LE(task.read.size(), task.hap.size());
    }
  }
}

TEST(Generator, BatchSizeStatisticsMatchPaper) {
  GeneratorConfig cfg;
  cfg.regions = 64;
  const Dataset ds = wsim::workload::generate_dataset(cfg);
  const DatasetStats stats = wsim::workload::compute_stats(ds);
  // Paper: on average 4 SW tasks and 189 PairHMM tasks per region batch.
  EXPECT_NEAR(stats.avg_sw_tasks_per_region, 4.0, 1.5);
  EXPECT_NEAR(stats.avg_ph_tasks_per_region, 189.0, 15.0);
}

TEST(Generator, ReadsResembleTheirHaplotypes) {
  // Reads are sampled from haplotypes with ~1% errors, so a large
  // fraction of reads must occur nearly verbatim. Check via a crude
  // identity proxy: shared 12-mer between read and haplotype.
  const Dataset ds = wsim::workload::generate_dataset(small_config());
  int with_seed_match = 0;
  int total = 0;
  for (const auto& region : ds.regions) {
    for (const auto& task : region.ph_tasks) {
      ++total;
      bool found = false;
      for (std::size_t pos = 0; pos + 12 <= task.read.size() && !found; pos += 6) {
        found = task.hap.find(task.read.substr(pos, 12)) != std::string::npos;
      }
      with_seed_match += found ? 1 : 0;
    }
  }
  EXPECT_GT(with_seed_match, total * 3 / 4);
}

TEST(Batching, RegionBatchesMatchRegions) {
  const Dataset ds = wsim::workload::generate_dataset(small_config());
  const auto sw = wsim::workload::sw_region_batches(ds);
  const auto ph = wsim::workload::ph_region_batches(ds);
  EXPECT_EQ(sw.size(), ds.regions.size());
  EXPECT_EQ(ph.size(), ds.regions.size());
}

TEST(Batching, RebatchPreservesAllTasks) {
  const Dataset ds = wsim::workload::generate_dataset(small_config());
  const auto all = wsim::workload::sw_all_tasks(ds);
  for (const std::size_t size : {1UL, 7UL, 100UL, 100000UL}) {
    const auto batches = wsim::workload::sw_rebatch(ds, size);
    std::size_t total = 0;
    for (const auto& b : batches) {
      EXPECT_LE(b.size(), size);
      total += b.size();
    }
    EXPECT_EQ(total, all.size());
  }
}

TEST(Batching, RebatchRejectsZero) {
  const Dataset ds = wsim::workload::generate_dataset(small_config());
  EXPECT_THROW(wsim::workload::sw_rebatch(ds, 0), wsim::util::CheckError);
}

TEST(Batching, BiggestBatchIsMaximal) {
  const Dataset ds = wsim::workload::generate_dataset(small_config());
  const auto biggest = wsim::workload::ph_biggest_batch(ds);
  for (const auto& batch : wsim::workload::ph_region_batches(ds)) {
    EXPECT_GE(biggest.size(), batch.size());
  }
}

TEST(Batching, BiggestBatchThrowsOnEmptyDataset) {
  // No regions at all.
  EXPECT_THROW(wsim::workload::sw_biggest_batch({}), wsim::util::CheckError);
  EXPECT_THROW(wsim::workload::ph_biggest_batch({}), wsim::util::CheckError);
  // Regions that exist but carry no tasks are just as empty.
  Dataset hollow;
  hollow.regions.resize(3);
  EXPECT_THROW(wsim::workload::sw_biggest_batch(hollow), wsim::util::CheckError);
  EXPECT_THROW(wsim::workload::ph_biggest_batch(hollow), wsim::util::CheckError);
}

TEST(Batching, BiggestBatchTieBreaksFirstWins) {
  // Two regions with the same task count but distinguishable contents: the
  // contract (pinned in batching.cpp) is that the earliest maximum wins.
  Dataset ds;
  ds.regions.resize(2);
  ds.regions[0].sw_tasks = {{"AAAA", "AAAATTTT"}, {"CCCC", "CCCCGGGG"}};
  ds.regions[1].sw_tasks = {{"GGGG", "GGGGTTTT"}, {"TTTT", "TTTTAAAA"}};
  const auto sw = wsim::workload::sw_biggest_batch(ds);
  ASSERT_EQ(sw.size(), 2U);
  EXPECT_EQ(sw[0].query, "AAAA");

  const auto make_ph = [](const std::string& read, const std::string& hap) {
    wsim::align::PairHmmTask task;
    task.read = read;
    task.hap = hap;
    task.base_quals.assign(read.size(), 30);
    task.ins_quals.assign(read.size(), 45);
    task.del_quals.assign(read.size(), 45);
    return task;
  };
  ds.regions[0].ph_tasks = {make_ph("ACGT", "ACGTACGT")};
  ds.regions[1].ph_tasks = {make_ph("TGCA", "TGCATGCA")};
  const auto ph = wsim::workload::ph_biggest_batch(ds);
  ASSERT_EQ(ph.size(), 1U);
  EXPECT_EQ(ph[0].read, "ACGT");
}

TEST(Batching, LengthGroupingBucketsAscendingAndStable) {
  const Dataset ds = wsim::workload::generate_dataset(small_config());
  const auto all = wsim::workload::sw_all_tasks(ds);
  const std::size_t granularity = 16;
  const auto batches = wsim::workload::sw_length_grouped(all, granularity, 100000);
  // Every task survives, batches are bucket-homogeneous, buckets ascend.
  std::size_t total = 0;
  std::size_t last_bucket = 0;
  for (const auto& batch : batches) {
    ASSERT_FALSE(batch.empty());
    const auto bucket = wsim::workload::length_bucket(batch.front(), granularity);
    for (const auto& task : batch) {
      EXPECT_EQ(wsim::workload::length_bucket(task, granularity), bucket);
    }
    EXPECT_GE(bucket, last_bucket);
    last_bucket = bucket;
    total += batch.size();
  }
  EXPECT_EQ(total, all.size());
  // max_batch caps every group; granularity must be positive.
  for (const auto& batch : wsim::workload::sw_length_grouped(all, granularity, 3)) {
    EXPECT_LE(batch.size(), 3U);
  }
  EXPECT_THROW(wsim::workload::sw_length_grouped(all, 0, 8),
               wsim::util::CheckError);
  const auto ph_all = wsim::workload::ph_all_tasks(ds);
  std::size_t ph_total = 0;
  for (const auto& batch : wsim::workload::ph_length_grouped(ph_all, 8, 64)) {
    EXPECT_LE(batch.size(), 64U);
    ph_total += batch.size();
  }
  EXPECT_EQ(ph_total, ph_all.size());
}

TEST(Batching, CellCountsAreConsistent) {
  const Dataset ds = wsim::workload::generate_dataset(small_config());
  const DatasetStats stats = wsim::workload::compute_stats(ds);
  std::size_t sw_cells = 0;
  for (const auto& batch : wsim::workload::sw_region_batches(ds)) {
    sw_cells += wsim::workload::batch_cells(batch);
  }
  EXPECT_EQ(sw_cells, stats.total_sw_cells);
  std::size_t ph_cells = 0;
  for (const auto& batch : wsim::workload::ph_region_batches(ds)) {
    ph_cells += wsim::workload::batch_cells(batch);
  }
  EXPECT_EQ(ph_cells, stats.total_ph_cells);
}

/// The CheckError text reading `text` as the trace `source` throws, or "".
std::string trace_error(const std::string& text, const std::string& source = "t.trace") {
  std::istringstream in(text);
  try {
    wsim::workload::read_trace(in, source);
  } catch (const wsim::util::CheckError& e) {
    return e.what();
  }
  return {};
}

// Every line holds exactly its fields; an event time is never negative.
// Errors name the source and the line, never a source file of the reader.
TEST(TraceIo, RejectsTrailingFieldsAndNegativeTimes) {
  const std::string head = "WSIM-TRACE 1\nduration 0.01\ntenant a\n";
  EXPECT_EQ(trace_error("WSIM-TRACE 1 extra\n"),
            "t.trace:1: unsupported trace version (expected: WSIM-TRACE 1)");
  EXPECT_EQ(trace_error("WSIM-TRACE 1\nduration 0.01 junk\n"),
            "t.trace:2: bad duration (expected: duration SECONDS, > 0)");
  EXPECT_EQ(trace_error("WSIM-TRACE 1\nduration 0.01\ntenant a b\n"),
            "t.trace:3: bad tenant (expected: tenant NAME)");
  const std::string bad_event =
      "t.trace:4: bad event (expected: event TIME TENANT sw|ph INDEX, TIME >= 0)";
  EXPECT_EQ(trace_error(head + "event -0.5 0 sw 3\n"), bad_event);
  EXPECT_EQ(trace_error(head + "event 0.5 0 sw 3 junk\n"), bad_event);
  EXPECT_EQ(trace_error(head + "event 0.5 0 sw\n"), bad_event);
  EXPECT_EQ(trace_error(head + "event nan 0 sw 3\n"), bad_event);
  EXPECT_EQ(trace_error(head + "event 0.5 1 sw 3\n"),
            "t.trace:4: event references unknown tenant");
  EXPECT_EQ(trace_error(head + "flavor vanilla\n"), "t.trace:4: unknown directive 'flavor'");
  EXPECT_EQ(trace_error("# only a comment\n"), "t.trace: empty or headerless trace");
  // Blanks after the last field, comments and blank lines are fine.
  EXPECT_EQ(trace_error(head + "# comment\n\nevent 0 0 sw 3 \t\nevent 0.5 0 ph 4\r\n"), "");
}

TEST(TraceIo, LoadTraceNamesTheFileAndLine) {
  const std::string path = ::testing::TempDir() + "workload_test_bad.trace";
  {
    std::ofstream out(path);
    out << "WSIM-TRACE 1\nduration 0.01\ntenant a\nevent -0.5 0 sw 3 junk\n";
  }
  try {
    wsim::workload::load_trace(path);
    ADD_FAILURE() << "a negative event time loaded";
  } catch (const wsim::util::CheckError& e) {
    EXPECT_EQ(std::string(e.what()).rfind(path + ":4: bad event", 0), 0U) << e.what();
  }
  // A saved trace loads back exactly.
  wsim::workload::TraceConfig cfg;
  cfg.duration_seconds = 0.05;
  const wsim::workload::Trace trace = wsim::workload::generate_trace(cfg);
  wsim::workload::save_trace(path, trace);
  const wsim::workload::Trace loaded = wsim::workload::load_trace(path);
  ASSERT_EQ(loaded.events.size(), trace.events.size());
  EXPECT_EQ(loaded.tenants, trace.tenants);
  EXPECT_EQ(loaded.duration_seconds, trace.duration_seconds);
}

}  // namespace
