#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "wsim/util/check.hpp"
#include "wsim/util/rng.hpp"
#include "wsim/workload/dataset_io.hpp"
#include "wsim/workload/generator.hpp"

namespace {

using wsim::util::CheckError;
using wsim::workload::Dataset;

Dataset sample_dataset() {
  wsim::workload::GeneratorConfig cfg;
  cfg.seed = 31;
  cfg.regions = 5;
  cfg.ph_tasks_per_region_mean = 8.0;
  return wsim::workload::generate_dataset(cfg);
}

void expect_equal(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (std::size_t r = 0; r < a.regions.size(); ++r) {
    ASSERT_EQ(a.regions[r].sw_tasks.size(), b.regions[r].sw_tasks.size());
    ASSERT_EQ(a.regions[r].ph_tasks.size(), b.regions[r].ph_tasks.size());
    for (std::size_t t = 0; t < a.regions[r].sw_tasks.size(); ++t) {
      EXPECT_EQ(a.regions[r].sw_tasks[t].query, b.regions[r].sw_tasks[t].query);
      EXPECT_EQ(a.regions[r].sw_tasks[t].target, b.regions[r].sw_tasks[t].target);
    }
    for (std::size_t t = 0; t < a.regions[r].ph_tasks.size(); ++t) {
      const auto& x = a.regions[r].ph_tasks[t];
      const auto& y = b.regions[r].ph_tasks[t];
      EXPECT_EQ(x.read, y.read);
      EXPECT_EQ(x.hap, y.hap);
      EXPECT_EQ(x.gcp, y.gcp);
      EXPECT_EQ(x.base_quals, y.base_quals);
      EXPECT_EQ(x.ins_quals, y.ins_quals);
      EXPECT_EQ(x.del_quals, y.del_quals);
    }
  }
}

TEST(DatasetIo, RoundTripPreservesEverything) {
  const Dataset original = sample_dataset();
  std::stringstream buffer;
  wsim::workload::write_dataset(buffer, original);
  const Dataset restored = wsim::workload::read_dataset(buffer);
  expect_equal(original, restored);
}

TEST(DatasetIo, FileRoundTrip) {
  const Dataset original = sample_dataset();
  const std::string path = "/tmp/wsim_dataset_io_test.txt";
  wsim::workload::save_dataset(path, original);
  expect_equal(original, wsim::workload::load_dataset(path));
}

TEST(DatasetIo, HandwrittenFileParses) {
  std::stringstream in(
      "# comment\n"
      "\n"
      "region\n"
      "sw ACGT TTACGTTT\n"
      "ph 10 ACG ACGT OOO OOO OOO\n"
      "region\n"
      "sw GGGG GGGG\n");
  const Dataset ds = wsim::workload::read_dataset(in);
  ASSERT_EQ(ds.regions.size(), 2U);
  EXPECT_EQ(ds.regions[0].sw_tasks.size(), 1U);
  ASSERT_EQ(ds.regions[0].ph_tasks.size(), 1U);
  EXPECT_EQ(ds.regions[0].ph_tasks[0].base_quals[0], 'O' - 33);
  EXPECT_EQ(ds.regions[1].sw_tasks[0].query, "GGGG");
}

TEST(DatasetIo, RejectsMalformedInput) {
  const auto parse = [](const std::string& text) {
    std::stringstream in(text);
    return wsim::workload::read_dataset(in);
  };
  EXPECT_THROW(parse("sw ACGT ACGT\n"), CheckError);  // task before region
  EXPECT_THROW(parse("region\nsw ACGT\n"), CheckError);  // missing field
  EXPECT_THROW(parse("region\nsw ACXT ACGT\n"), CheckError);  // bad base
  EXPECT_THROW(parse("region\nbogus 1 2\n"), CheckError);  // unknown record
  EXPECT_THROW(parse("region\nph 10 ACG ACGT OO OOO OOO\n"), CheckError);  // short quals
  EXPECT_THROW(parse("region\nph 200 ACG ACGT OOO OOO OOO\n"), CheckError);  // bad gcp
  EXPECT_THROW(parse("region\nph 10 ACG ACGT O\x01O OOO OOO\n"), CheckError);  // bad qual char
}

TEST(DatasetIo, LoadsMissingFileThrows) {
  EXPECT_THROW(wsim::workload::load_dataset("/nonexistent/nope.txt"), CheckError);
}

/// The CheckError text reading `text` as the dataset "d.txt" throws, or "".
std::string dataset_error(const std::string& text) {
  std::stringstream in(text);
  try {
    wsim::workload::read_dataset(in, "d.txt");
  } catch (const CheckError& e) {
    return e.what();
  }
  return {};
}

// Every line holds exactly its fields, and errors name the source and the
// line, never a source file of the reader.
TEST(DatasetIo, RejectsTrailingFieldsNamingTheLine) {
  EXPECT_EQ(dataset_error("region extra\n"),
            "d.txt:1: malformed region line (expected: region)");
  EXPECT_EQ(dataset_error("region\nsw ACGT ACGT junk\n"),
            "d.txt:2: malformed sw line (expected: sw QUERY TARGET)");
  EXPECT_EQ(dataset_error("# c\nregion\nph 10 ACG ACGT OOO OOO OOO junk\n"),
            "d.txt:3: malformed ph line (expected: ph GCP READ HAP BASE_QUALS INS_QUALS "
            "DEL_QUALS)");
  EXPECT_EQ(dataset_error("region\nsw ACXT ACGT\n"), "d.txt:2: invalid base 'X'");
  EXPECT_EQ(dataset_error("region \nsw ACGT ACGT\t\r\nph 10 ACG ACGT OOO OOO OOO \n"), "");
  const std::string path = ::testing::TempDir() + "dataset_io_test_bad.txt";
  {
    std::ofstream out(path);
    out << "region\nsw ACGT\n";
  }
  try {
    wsim::workload::load_dataset(path);
    ADD_FAILURE() << "a one-sequence sw line loaded";
  } catch (const CheckError& e) {
    EXPECT_EQ(std::string(e.what()), path + ":2: malformed sw line (expected: sw QUERY TARGET)");
  }
}

}  // namespace

namespace {

class DatasetFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DatasetFuzzTest, RandomBytesNeverCrashOnlyThrow) {
  wsim::util::Rng rng(GetParam());
  std::string noise;
  const int len = static_cast<int>(rng.uniform_int(0, 400));
  for (int i = 0; i < len; ++i) {
    // Bias toward printable text with occasional keywords so parsing gets
    // past the first token sometimes.
    switch (rng.uniform_int(0, 9)) {
      case 0:
        noise += "region\n";
        break;
      case 1:
        noise += "sw ";
        break;
      case 2:
        noise += "ph ";
        break;
      case 3:
        noise += '\n';
        break;
      default:
        noise += static_cast<char>(rng.uniform_int(1, 126));
        break;
    }
  }
  std::stringstream in(noise);
  try {
    const auto ds = wsim::workload::read_dataset(in);
    (void)ds;  // valid parse is fine too
  } catch (const CheckError&) {
    // expected for malformed input
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DatasetFuzzTest,
                         ::testing::Range<std::uint64_t>(0, 40));

}  // namespace
