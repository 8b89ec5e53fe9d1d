#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "wsim/cli/commands.hpp"
#include "wsim/util/check.hpp"
#include "wsim/util/rng.hpp"
#include "wsim/workload/dataset_io.hpp"
#include "wsim/workload/trace.hpp"

// Seeded mutation fuzzing of the text that reaches the program from
// outside: command lines (against every registered command's table),
// WSIM-TRACE files and dataset files. Every mutated input must parse or
// throw util::CheckError: never another exception, a crash or a hang.
// The seed is the test parameter, so a failure names it
// (Seeds/InputFuzz.<case>/<seed>) and reruns exactly.

namespace {

namespace cli = wsim::cli;
using wsim::util::Rng;

constexpr int kRounds = 150;

std::size_t pick(Rng& rng, std::size_t size) {
  const auto last = static_cast<std::int64_t>(size) - 1;
  return static_cast<std::size_t>(rng.uniform_int(0, last));
}

/// One mutation of `items` (the tokens of a command line or a line, or the
/// lines of a file): a bit flip, a truncation, a dropped or duplicated
/// item, or an item replaced by a value number parsers must refuse.
void mutate(std::vector<std::string>& items, Rng& rng) {
  static const char* const kHostile[] = {"nan", "inf", "1e999", "-0", ""};
  if (items.empty()) {
    items.emplace_back(kHostile[pick(rng, 5)]);
    return;
  }
  const std::size_t i = pick(rng, items.size());
  std::string& item = items[i];
  switch (rng.uniform_int(0, 4)) {
    case 0:
      if (!item.empty()) {
        item[pick(rng, item.size())] ^= static_cast<char>(1 << rng.uniform_int(0, 7));
      }
      break;
    case 1:
      item.resize(pick(rng, item.size() + 1));
      break;
    case 2:
      items.erase(items.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    case 3: {
      const std::string copy = item;
      items.insert(items.begin() + static_cast<std::ptrdiff_t>(i), copy);
      break;
    }
    default:
      item = kHostile[pick(rng, 5)];
      break;
  }
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> fields;
  std::istringstream in(text);
  for (std::string field; std::getline(in, field, sep);) {
    fields.push_back(field);
  }
  return fields;
}

std::string join(const std::vector<std::string>& items, char sep) {
  std::string text;
  for (const std::string& item : items) {
    text += item;
    text += sep;
  }
  return text;
}

/// `text` after one to three mutations, each of its lines or of the
/// space-separated fields of one line.
std::string mutate_text(const std::string& text, Rng& rng) {
  std::vector<std::string> lines = split(text, '\n');
  for (auto n = rng.uniform_int(1, 3); n > 0; --n) {
    if (lines.empty() || rng.uniform_int(0, 1) == 0) {
      mutate(lines, rng);
    } else {
      std::string& line = lines[pick(rng, lines.size())];
      std::vector<std::string> fields = split(line, ' ');
      mutate(fields, rng);
      line = join(fields, ' ');
    }
  }
  return join(lines, '\n');
}

/// Runs `parse` on `input`; anything it throws must be a util::CheckError.
template <typename Parse>
void expect_parses_or_rejects(std::uint64_t seed, const std::string& input, Parse parse) {
  try {
    parse();
  } catch (const wsim::util::CheckError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "seed " << seed << ": " << e.what() << "\non input:\n" << input;
  }
}

class InputFuzz : public ::testing::TestWithParam<std::uint64_t> {};

/// A command line that sets every flag of `info` to a valid value.
std::vector<std::string> full_command_line(const cli::CommandInfo& info) {
  std::vector<std::string> tokens(info.positionals.size(), "ACGTACGT");
  for (const cli::Flag& flag : info.flags) {
    tokens.push_back("--" + std::string(flag.name));
    if (flag.kind != cli::Kind::kBool) {
      tokens.emplace_back(!flag.fallback.empty()             ? std::string(flag.fallback)
                          : flag.kind == cli::Kind::kString ? "x"
                                                            : "1");
    }
  }
  return tokens;
}

// What parse accepts also reads back: every flag through its own accessor.
TEST_P(InputFuzz, CommandLinesParseOrThrowCheckError) {
  Rng rng(GetParam());
  const auto& registry = cli::commands();
  for (int round = 0; round < kRounds; ++round) {
    const cli::CommandInfo& info = registry[pick(rng, registry.size())];
    std::vector<std::string> tokens = full_command_line(info);
    for (auto n = rng.uniform_int(1, 3); n > 0; --n) {
      mutate(tokens, rng);
    }
    const std::string shown = std::string(info.name) + " " + join(tokens, ' ');
    expect_parses_or_rejects(GetParam(), shown, [&] {
      const cli::Args args = cli::parse(info.name, tokens);
      for (const cli::Flag& flag : info.flags) {
        const bool unset = flag.fallback.empty() && !args.given(flag.name);
        if (flag.kind == cli::Kind::kBool || unset) {
          continue;
        }
        if (flag.kind == cli::Kind::kInt) {
          EXPECT_NO_THROW(args.integer(flag.name)) << flag.name;
        } else if (flag.kind == cli::Kind::kDouble) {
          EXPECT_NO_THROW(args.real(flag.name)) << flag.name;
        }
      }
    });
  }
}

TEST_P(InputFuzz, TraceFilesParseOrThrowCheckError) {
  wsim::workload::TraceConfig cfg;
  cfg.duration_seconds = 0.01;
  cfg.tenants = {{"a", 2000.0, 0.5}, {"b", 1000.0, 0.5}};
  std::ostringstream saved;
  wsim::workload::write_trace(saved, wsim::workload::generate_trace(cfg));
  std::istringstream unmutated(saved.str());
  ASSERT_NO_THROW(wsim::workload::read_trace(unmutated));
  Rng rng(GetParam());
  for (int round = 0; round < kRounds; ++round) {
    const std::string text = mutate_text(saved.str(), rng);
    expect_parses_or_rejects(GetParam(), text, [&] {
      std::istringstream in(text);
      wsim::workload::read_trace(in);
    });
  }
}

TEST_P(InputFuzz, DatasetLinesParseOrThrowCheckError) {
  std::ifstream file(WSIM_DATA_DIR "/example_dataset.txt");
  std::vector<std::string> lines;
  for (std::string line; std::getline(file, line);) {
    lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 10U);
  Rng rng(GetParam());
  for (int round = 0; round < kRounds; ++round) {
    std::string text = "region\n";
    for (auto n = rng.uniform_int(1, 4); n > 0; --n) {
      text += lines[pick(rng, lines.size())] + '\n';
    }
    text = mutate_text(text, rng);
    expect_parses_or_rejects(GetParam(), text, [&] {
      std::istringstream in(text);
      wsim::workload::read_dataset(in);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InputFuzz, ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
