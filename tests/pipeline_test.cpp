#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "wsim/align/pairhmm.hpp"
#include "wsim/align/smith_waterman.hpp"
#include "wsim/pipeline/pipeline.hpp"
#include "wsim/simt/engine.hpp"
#include "wsim/util/check.hpp"
#include "wsim/workload/generator.hpp"

namespace {

using wsim::pipeline::PipelineConfig;
using wsim::pipeline::PipelineReport;
using wsim::pipeline::run_pipeline;

wsim::workload::Dataset small_dataset(std::uint64_t seed = 11) {
  wsim::workload::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.regions = 4;
  cfg.ph_tasks_per_region_mean = 10.0;
  cfg.sw_query_len_min = 40;
  cfg.sw_query_len_max = 90;
  cfg.sw_target_len_min = 60;
  cfg.sw_target_len_max = 120;
  return wsim::workload::generate_dataset(cfg);
}

PipelineConfig base_config() {
  PipelineConfig cfg;
  cfg.device = wsim::simt::make_k1200();
  return cfg;
}

TEST(Pipeline, OutputsMatchHostReferencesExactly) {
  const auto dataset = small_dataset();
  const PipelineReport report = run_pipeline(dataset, base_config());
  std::size_t sw_index = 0;
  std::size_t ph_index = 0;
  for (const auto& region : dataset.regions) {
    for (const auto& task : region.sw_tasks) {
      const auto ref = wsim::align::sw_align(task.query, task.target, {});
      EXPECT_EQ(report.sw_alignments[sw_index].score, ref.score) << sw_index;
      EXPECT_EQ(report.sw_alignments[sw_index].cigar, ref.cigar) << sw_index;
      ++sw_index;
    }
    for (const auto& task : region.ph_tasks) {
      const double ref = wsim::align::pairhmm_log10_safe(task);
      EXPECT_NEAR(report.ph_log10[ph_index], ref, 5e-3 + std::abs(ref) * 1e-3)
          << ph_index;
      ++ph_index;
    }
  }
  EXPECT_EQ(report.sw.tasks, sw_index);
  EXPECT_EQ(report.ph.tasks, ph_index);
}

TEST(Pipeline, RebatchingAndLptPreserveOutputs) {
  const auto dataset = small_dataset(13);
  const PipelineReport region_batched = run_pipeline(dataset, base_config());
  PipelineConfig cfg = base_config();
  cfg.rebatch_size = 7;
  cfg.lpt_order = true;
  const PipelineReport rebatched = run_pipeline(dataset, cfg);
  ASSERT_EQ(region_batched.sw_alignments.size(), rebatched.sw_alignments.size());
  for (std::size_t i = 0; i < rebatched.sw_alignments.size(); ++i) {
    EXPECT_EQ(rebatched.sw_alignments[i].score, region_batched.sw_alignments[i].score);
    EXPECT_EQ(rebatched.sw_alignments[i].cigar, region_batched.sw_alignments[i].cigar);
  }
  ASSERT_EQ(region_batched.ph_log10.size(), rebatched.ph_log10.size());
  for (std::size_t i = 0; i < rebatched.ph_log10.size(); ++i) {
    EXPECT_DOUBLE_EQ(rebatched.ph_log10[i], region_batched.ph_log10[i]);
  }
}

TEST(Pipeline, RebatchingImprovesSwThroughput) {
  wsim::workload::GeneratorConfig gen;
  gen.seed = 17;
  gen.regions = 24;
  gen.ph_tasks_per_region_mean = 1.0;
  const auto dataset = wsim::workload::generate_dataset(gen);
  PipelineConfig cfg = base_config();
  const PipelineReport small_batches = run_pipeline(dataset, cfg);
  cfg.rebatch_size = 48;
  const PipelineReport big_batches = run_pipeline(dataset, cfg);
  EXPECT_GT(big_batches.sw.gcups, small_batches.sw.gcups);
}

TEST(Pipeline, ValidatorReportsCleanRun) {
  PipelineConfig cfg = base_config();
  cfg.validate_sample = true;
  cfg.validate_every = 3;
  const PipelineReport report = run_pipeline(small_dataset(19), cfg);
  EXPECT_GT(report.validated, 0U);
  EXPECT_EQ(report.mismatches, 0U);
}

TEST(Pipeline, SharedMemoryDesignsProduceSameResults) {
  const auto dataset = small_dataset(23);
  PipelineConfig cfg = base_config();
  cfg.sw_design = wsim::kernels::CommMode::kSharedMemory;
  cfg.ph_design = wsim::kernels::PhDesign::kShared;
  const PipelineReport shared = run_pipeline(dataset, cfg);
  const PipelineReport shuffle = run_pipeline(dataset, base_config());
  for (std::size_t i = 0; i < shared.sw_alignments.size(); ++i) {
    EXPECT_EQ(shared.sw_alignments[i].cigar, shuffle.sw_alignments[i].cigar);
  }
  // Shuffle designs must not be slower overall.
  EXPECT_LE(shuffle.sw.seconds, shared.sw.seconds * 1.01);
  EXPECT_LE(shuffle.ph.seconds, shared.ph.seconds * 1.01);
}

TEST(Pipeline, StreamsNeverSlower) {
  const auto dataset = small_dataset(29);
  const PipelineReport serial = run_pipeline(dataset, base_config());
  PipelineConfig cfg = base_config();
  cfg.overlap_transfers = true;
  const PipelineReport overlapped = run_pipeline(dataset, cfg);
  EXPECT_LE(overlapped.sw.seconds, serial.sw.seconds + 1e-12);
  EXPECT_LE(overlapped.ph.seconds, serial.ph.seconds + 1e-12);
}

TEST(Pipeline, RejectsEmptyDataset) {
  EXPECT_THROW(run_pipeline({}, base_config()), wsim::util::CheckError);
}

}  // namespace

namespace {

TEST(Pipeline, EnergyAccountingIsPlausible) {
  const auto dataset = small_dataset(31);
  const auto report = run_pipeline(dataset, base_config());
  EXPECT_GT(report.sw.joules, 0.0);
  EXPECT_GT(report.ph.joules, 0.0);
  // pJ/cell in the range the energy ablation established (hundreds to a
  // few thousand).
  EXPECT_GT(report.ph.pj_per_cell(), 50.0);
  EXPECT_LT(report.ph.pj_per_cell(), 50000.0);
  // Shuffle designs burn less energy per cell than shared-memory designs.
  PipelineConfig shared_cfg = base_config();
  shared_cfg.sw_design = wsim::kernels::CommMode::kSharedMemory;
  shared_cfg.ph_design = wsim::kernels::PhDesign::kShared;
  const auto shared_report = run_pipeline(dataset, shared_cfg);
  EXPECT_LT(report.ph.pj_per_cell(), shared_report.ph.pj_per_cell() * 1.05);
}

// Regression for the threads <= 0 routing contract: the default pipeline
// run executes on the process-wide shared_engine() — the same engine the
// serving layer, the fleet, and the CLI share — while a positive thread
// count builds a private engine for that run only.
TEST(Pipeline, DefaultThreadsRouteThroughSharedEngine) {
  const auto dataset = small_dataset(37);
  PipelineConfig cfg = base_config();
  cfg.threads = 0;
  const auto shared_run = run_pipeline(dataset, cfg);
  EXPECT_EQ(shared_run.engine_used, &wsim::simt::shared_engine());

  cfg.threads = 1;
  const auto private_run = run_pipeline(dataset, cfg);
  EXPECT_NE(private_run.engine_used, nullptr);
  EXPECT_NE(private_run.engine_used, &wsim::simt::shared_engine());

  // Same engine or not, results are identical.
  ASSERT_EQ(shared_run.ph_log10.size(), private_run.ph_log10.size());
  for (std::size_t i = 0; i < shared_run.ph_log10.size(); ++i) {
    EXPECT_EQ(shared_run.ph_log10[i], private_run.ph_log10[i]) << i;
  }
}

// --- pinned numbers ------------------------------------------------------------
//
// Every number run_pipeline reports, pinned bit for bit on the dataset
// `wsim pipeline` generates (8 regions, seed 42, 24 PairHMM tasks per
// region) on the K1200. A refactor of the stage plumbing must reproduce
// them exactly; only a change meant to move simulated results may update
// them.

struct StagePin {
  std::size_t tasks;
  std::size_t cells;
  std::size_t batches;
  double seconds;
  double joules;
  double gcups;
};

struct PipelinePin {
  const char* name;
  void (*configure)(PipelineConfig&);
  StagePin sw;
  StagePin ph;
  std::size_t validated;
  std::size_t mismatches;
  std::uint64_t outputs;  ///< outputs_hash() of the report
};

/// FNV-1a over every alignment's score and CIGAR and every log10 value's
/// bit pattern, in dataset order.
std::uint64_t outputs_hash(const PipelineReport& report) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((word >> (8 * b)) & 0xFFU)) * 0x100000001B3ULL;
    }
  };
  for (const auto& alignment : report.sw_alignments) {
    mix(static_cast<std::uint64_t>(alignment.score));
    for (const char c : alignment.cigar) {
      mix(static_cast<std::uint64_t>(c));
    }
  }
  for (const double v : report.ph_log10) {
    mix(std::bit_cast<std::uint64_t>(v));
  }
  return h;
}

std::string hex(double v) {
  char text[64];
  std::snprintf(text, sizeof text, "%a", v);
  return text;
}

void expect_stage(const char* stage, const StagePin& pin,
                  const wsim::pipeline::StageReport& r) {
  SCOPED_TRACE(stage);
  EXPECT_EQ(r.tasks, pin.tasks);
  EXPECT_EQ(r.cells, pin.cells);
  EXPECT_EQ(r.batches, pin.batches);
  EXPECT_EQ(r.seconds, pin.seconds) << hex(r.seconds);
  EXPECT_EQ(r.joules, pin.joules) << hex(r.joules);
  EXPECT_EQ(r.gcups, pin.gcups) << hex(r.gcups);
}

const PipelinePin kPipelinePins[] = {
    {"Default", [](PipelineConfig&) {},
     {29, 3110085, 8, 0x1.749e3059d9c27p-8, 0x1.761e79a651c3p-6, 0x1.1810919e998f6p-1},
     {197, 1926729, 8, 0x1.bff5de09a1c84p-10, 0x1.da51c2f18ab1ap-9, 0x1.20a495153561p+0},
     0, 0, 0xfbb242432dcc7354ULL},
    {"Rebatch64Lpt",
     [](PipelineConfig& cfg) {
       cfg.rebatch_size = 64;
       cfg.lpt_order = true;
     },
     {29, 3110085, 1, 0x1.e047ac1374f5bp-11, 0x1.ef8816082ffbp-7, 0x1.b29163befe09dp+1},
     {197, 1926729, 4, 0x1.c54a8a72bcc52p-11, 0x1.6d561c07591cdp-9, 0x1.1d3f98e0e7145p+1},
     0, 0, 0xfbb242432dcc7354ULL},
    {"Rebatch64Streams",
     [](PipelineConfig& cfg) {
       cfg.rebatch_size = 64;
       cfg.overlap_transfers = true;
     },
     {29, 3110085, 1, 0x1.db31810499a8dp-11, 0x1.eaa0924d4753bp-7, 0x1.b7383b768087dp+1},
     {197, 1926729, 4, 0x1.8d293e0256b36p-11, 0x1.5e29b15c3eceap-9, 0x1.458fe4720f7a9p+1},
     0, 0, 0xfbb242432dcc7354ULL},
    {"ValidateShared",
     [](PipelineConfig& cfg) {
       cfg.validate_sample = true;
       cfg.sw_design = wsim::kernels::CommMode::kSharedMemory;
       cfg.ph_design = wsim::kernels::PhDesign::kShared;
     },
     {29, 3110085, 8, 0x1.31ce1508352b1p-7, 0x1.0062b37c266abp-5, 0x1.5540fc22e6866p-2},
     {197, 1926729, 8, 0x1.f974aaae99ac5p-10, 0x1.170774ccab08bp-8, 0x1.ff9eaf0f2e0f8p-1},
     7, 0, 0xfbb242432dcc7354ULL},
};

class PipelinePinned : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PipelinePinned, ReportIsBitIdentical) {
  const PipelinePin& pin = kPipelinePins[GetParam()];
  static const wsim::workload::Dataset dataset = [] {
    wsim::workload::GeneratorConfig gen;
    gen.regions = 8;
    gen.seed = 42;
    gen.ph_tasks_per_region_mean = 24.0;
    return wsim::workload::generate_dataset(gen);
  }();
  PipelineConfig cfg = base_config();
  pin.configure(cfg);
  const PipelineReport report = run_pipeline(dataset, cfg);
  expect_stage("sw", pin.sw, report.sw);
  expect_stage("ph", pin.ph, report.ph);
  EXPECT_EQ(report.validated, pin.validated);
  EXPECT_EQ(report.mismatches, pin.mismatches);
  EXPECT_EQ(outputs_hash(report), pin.outputs)
      << "0x" << std::hex << outputs_hash(report);
}

INSTANTIATE_TEST_SUITE_P(WsimPipelineDataset, PipelinePinned,
                         ::testing::Range<std::size_t>(0, std::size(kPipelinePins)),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return std::string(kPipelinePins[info.param].name);
                         });

}  // namespace
