#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "wsim/cli/commands.hpp"
#include "wsim/util/check.hpp"

namespace {

namespace cli = wsim::cli;

// Satellite: the CLI help text cannot drift from the dispatch table. The
// binary's main() asserts registry<->handler agreement at startup; this
// test pins the registry<->help side so a new subcommand without usage
// documentation fails CI.

TEST(CliUsage, CommandNamesAreUniqueAndNonEmpty) {
  std::set<std::string_view> seen;
  for (const auto& info : cli::commands()) {
    EXPECT_FALSE(info.name.empty());
    EXPECT_FALSE(info.description.empty()) << info.name;
    EXPECT_TRUE(seen.insert(info.name).second) << "duplicate: " << info.name;
  }
  EXPECT_GE(seen.size(), 11U);  // the PR-4 command set; growth is fine
}

TEST(CliUsage, UsageTextCoversEveryRegisteredCommand) {
  const std::string usage = cli::usage_text();
  for (const auto& info : cli::commands()) {
    // Each command's help block starts with the indented command name.
    const std::string anchor = "\n  " + std::string(info.name) + " ";
    EXPECT_NE(("\n" + usage).find(anchor), std::string::npos)
        << "usage text missing help for '" << info.name << "'";
  }
}

TEST(CliUsage, UsageTextKeepsGlobalSections) {
  const std::string usage = cli::usage_text();
  EXPECT_EQ(usage.rfind("usage: wsim <command> [options]", 0), 0U);
  EXPECT_NE(usage.find("commands:"), std::string::npos);
  EXPECT_NE(usage.find("common options:"), std::string::npos);
  EXPECT_NE(usage.find("WSIM_THREADS"), std::string::npos);
}

TEST(CliUsage, HasCommandMatchesRegistry) {
  for (const auto& info : cli::commands()) {
    EXPECT_TRUE(cli::has_command(info.name)) << info.name;
  }
  EXPECT_FALSE(cli::has_command("bogus"));
  EXPECT_FALSE(cli::has_command(""));
  EXPECT_FALSE(cli::has_command("guard"));  // prefix of guard-sim, not a command
}

TEST(CliUsage, InterpreterKnobDocumentsUserSelectableEngines) {
  const std::string usage = cli::usage_text();
  EXPECT_NE(usage.find("--interp legacy|vector"), std::string::npos);
  EXPECT_NE(usage.find("WSIM_INTERP=legacy|vector"), std::string::npos);
  EXPECT_NE(usage.find("(default: vector)"), std::string::npos);
  EXPECT_NE(usage.find("WSIM_VECTOR_ISA=generic|avx2|avx512"), std::string::npos);
  EXPECT_EQ(usage.find("fast|"), std::string::npos);
}

TEST(CliUsage, InterpErrorAcceptsKnownEnginesOnly) {
  EXPECT_TRUE(cli::interp_error("legacy").empty());
  EXPECT_TRUE(cli::interp_error("vector").empty());
  // The scalar fast path is internal (SDC-injected blocks, benches, and
  // equivalence tests request it explicitly); users cannot select it.
  EXPECT_EQ(cli::interp_error("fast"),
            "error: unknown interpreter 'fast' for --interp; "
            "valid names: legacy, vector");
  // Unknown names produce the one-line error naming the offender, where
  // it came from, and every valid engine, exactly as the driver prints it.
  EXPECT_EQ(cli::interp_error("turbo"),
            "error: unknown interpreter 'turbo' for --interp; "
            "valid names: legacy, vector");
  EXPECT_EQ(cli::interp_error("vectr", "WSIM_INTERP"),
            "error: unknown interpreter 'vectr' for WSIM_INTERP; "
            "valid names: legacy, vector");
  EXPECT_FALSE(cli::interp_error("").empty());
  EXPECT_FALSE(cli::interp_error("LEGACY").empty());
  EXPECT_FALSE(cli::interp_error("vector ").empty());
}

// Numeric flags go through one checked parser: the whole value must be
// one finite number inside the flag's range, and every error names the
// flag.

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr long kLongMax = std::numeric_limits<long>::max();

/// The CheckError text `parse` throws, or "" when it returns.
template <typename Parse>
std::string parse_error(Parse parse) {
  try {
    parse();
  } catch (const wsim::util::CheckError& e) {
    return e.what();
  }
  return {};
}

TEST(CliFlags, ParseNumberAcceptsOneInRangeNumber) {
  EXPECT_DOUBLE_EQ(cli::parse_number<double>("rate", "40000", 0.0, kInf), 40000.0);
  EXPECT_DOUBLE_EQ(cli::parse_number<double>("flip-prob", "1e-6", 0.0, 1.0), 1e-6);
  EXPECT_DOUBLE_EQ(cli::parse_number<double>("fail-prob", "1", 0.0, 1.0), 1.0);
  EXPECT_EQ(cli::parse_number<long>("regions", "16", 1, kLongMax), 16);
  EXPECT_EQ(cli::parse_number<long>("threads", "-1", -8, 8), -1);
}

TEST(CliFlags, ParseNumberRejectsJunkNonFiniteAndOutOfRange) {
  EXPECT_EQ(parse_error([] { cli::parse_number<double>("rate", "5abc", 0.0, kInf); }),
            "--rate '5abc' is not a number");
  EXPECT_EQ(parse_error([] { cli::parse_number<long>("regions", "x", 1, kLongMax); }),
            "--regions 'x' is not an integer");
  EXPECT_EQ(parse_error([] { cli::parse_number<long>("regions", "2.5", 1, kLongMax); }),
            "--regions '2.5' is not an integer");
  EXPECT_EQ(parse_error([] { cli::parse_number<double>("rate", "", 0.0, kInf); }),
            "--rate '' is not a number");
  EXPECT_EQ(parse_error([] { cli::parse_number<double>("rate", " 5", 0.0, kInf); }),
            "--rate ' 5' is not a number");
  EXPECT_EQ(parse_error([] { cli::parse_number<double>("rate", "inf", 0.0, kInf); }),
            "--rate 'inf' is not finite");
  EXPECT_EQ(parse_error([] { cli::parse_number<double>("rate", "nan", 0.0, kInf); }),
            "--rate 'nan' is not finite");
  EXPECT_EQ(parse_error([] { cli::parse_number<double>("fail-prob", "2", 0.0, 1.0); }),
            "--fail-prob '2' must be in [0, 1]");
  EXPECT_EQ(parse_error([] { cli::parse_number<double>("slow-factor", "0.5", 1.0, kInf); }),
            "--slow-factor '0.5' must be >= 1");
  EXPECT_EQ(parse_error([] { cli::parse_number<double>("slo", "-5", 0.0, kInf); }),
            "--slo '-5' must be >= 0");
  EXPECT_EQ(parse_error([] { cli::parse_number<double>("rate", "1e999", 0.0, kInf); }),
            "--rate '1e999' must be >= 0");
  EXPECT_EQ(
      parse_error([] { cli::parse_number<long>("seed", "99999999999999999999", 0, kLongMax); }),
      "--seed '99999999999999999999' must be >= 0");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Runs the wsim driver with `args`; returns its exit status and its
/// combined stdout/stderr.
std::pair<int, std::string> run_wsim(const std::string& args) {
  // One file per test: ctest -j runs the driver tests as parallel
  // processes, which must not clobber each other's output.
  const std::string out_path =
      ::testing::TempDir() + "cli_usage_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".out";
  const std::string command =
      std::string("\"") + WSIM_CLI + "\" " + args + " > \"" + out_path + "\" 2>&1";
  const int status = std::system(command.c_str());
  return {status, read_file(out_path)};
}

// Input errors carry the message alone: no source file or line.
TEST(CliFlags, DriverExitsNonZeroNamingTheBadFlag) {
  const std::pair<const char*, const char*> cases[] = {
      {"serve-sim --regions 1 --rate 5abc", "--rate '5abc'"},
      {"fleet-sim --regions 1 --fail-prob 2", "--fail-prob '2'"},
      {"fleet-sim --regions 1 --slow-factor 0.5", "--slow-factor '0.5'"},
      {"cluster-sim --regions 1 --duration 0.01 --slo -5", "--slo '-5'"},
      {"serve-sim --regions x", "--regions 'x'"},
      {"sw ACGT", "sw: missing TARGET"},
      {"fleet-sim --regions 1 --calibrate maybe",
       "--calibrate 'maybe' must be 'on' or 'off'"},
      {"cluster-sim --regions 1 --duration 0.01 --autoscaler of", "--autoscaler 'of'"},
      {"serve-sim --rate 0", "--rate '0' must be > 0"},
      {"cluster-sim --duration -1", "--duration '-1' must be > 0"},
      {"serve-sim --regions 1 --json /nonexistent/x.json", "--json: cannot open"},
      {"cluster-sim --trace /nonexistent/x.trace", "load_trace: cannot open"},
      {"fleet-sim --regions 1 --fleet ,", "--fleet names no devices"},
      {"cluster-sim --regions 1 --duration 0.01 --min 5 --max 2", "--max must be >= --min"},
  };
  for (const auto& [args, flag] : cases) {
    const auto [status, output] = run_wsim(args);
    EXPECT_NE(status, 0) << args;
    EXPECT_NE(output.find(std::string("error: ") + flag), std::string::npos)
        << args << "\n" << output;
    EXPECT_EQ(output.find(".cpp:"), std::string::npos) << args << "\n" << output;
  }
}

// A trace file is checked line by line: a line with an extra field or a
// negative event time fails the run, naming the file and the line.
TEST(CliFlags, DriverRejectsAMalformedTraceNamingFileAndLine) {
  const std::string path = ::testing::TempDir() + "cli_usage_test_bad.trace";
  const std::pair<const char*, const char*> cases[] = {
      {"WSIM-TRACE 1 extra\n", ":1: unsupported trace version"},
      {"WSIM-TRACE 1\nduration 0.01 junk\n", ":2: bad duration"},
      {"WSIM-TRACE 1\nduration 0.01\ntenant a b\n", ":3: bad tenant"},
      {"WSIM-TRACE 1\nduration 0.01\ntenant a\nevent -0.5 0 sw 3 junk\n", ":4: bad event"},
  };
  for (const auto& [text, message] : cases) {
    {
      std::ofstream out(path);
      out << text;
    }
    const auto [status, output] = run_wsim("cluster-sim --regions 1 --trace \"" + path + "\"");
    EXPECT_NE(status, 0) << text;
    EXPECT_NE(output.find("error: " + path + message), std::string::npos) << output;
    EXPECT_EQ(output.find(".cpp:"), std::string::npos) << output;
  }
}

// A command line the table does not declare exits 2 before anything runs,
// with one error line naming the command and the flag (or argument).
TEST(CliFlags, DriverExitsTwoOnUndeclaredInput) {
  const std::pair<const char*, const char*> cases[] = {
      {"serve-sim --regions 1 --bogus 3", "error: serve-sim: unknown flag --bogus"},
      {"serve-sim --rat 5",
       "error: serve-sim: unknown flag --rat (did you mean --rate?)"},
      {"serve-sim 5", "error: serve-sim: unexpected argument '5'"},
      {"sw ACGTACGTAC TTACGTACGG --mod shared",
       "error: sw: unknown flag --mod (did you mean --mode?)"},
      {"serve-sim --regions", "error: serve-sim: --regions needs a value"},
      {"devices --threads 2", "error: devices: unknown flag --threads"},
  };
  for (const auto& [args, message] : cases) {
    const auto [status, output] = run_wsim(args);
    ASSERT_TRUE(WIFEXITED(status)) << args;
    EXPECT_EQ(WEXITSTATUS(status), 2) << args << "\n" << output;
    EXPECT_NE(output.find(message), std::string::npos) << args << "\n" << output;
    EXPECT_EQ(output.find("score:"), std::string::npos) << "ran anyway: " << args;
  }
}

// A flag never takes the next "--flag" as its value: a boolean flag
// placed before a valued one must not swallow it. Both orders run the
// same command and write the same JSON bytes.
TEST(CliFlags, BooleanFlagDoesNotSwallowTheNextFlag) {
  const std::string before = ::testing::TempDir() + "cli_usage_test_bool_before.json";
  const std::string after = ::testing::TempDir() + "cli_usage_test_bool_after.json";
  std::remove(before.c_str());
  std::remove(after.c_str());
  const auto [status_before, output_before] =
      run_wsim("serve-sim --regions 1 --outputs --json \"" + before + "\"");
  const auto [status_after, output_after] =
      run_wsim("serve-sim --regions 1 --json \"" + after + "\" --outputs");
  EXPECT_EQ(status_before, 0) << output_before;
  EXPECT_EQ(status_after, 0) << output_after;
  const std::string json_before = read_file(before);
  EXPECT_FALSE(json_before.empty()) << "--outputs swallowed --json";
  EXPECT_EQ(json_before, read_file(after));
}

// A boolean flag takes no value, so it may also sit before a positional:
// `sw --profile Q T` aligns Q with T instead of taking Q as --profile's
// value. The documented empty value (`--profile ''`) still works.
TEST(CliFlags, BooleanFlagDoesNotSwallowTheNextPositional) {
  const auto [status_before, output_before] = run_wsim("sw --profile ACGTACGT TTACGTAC");
  const auto [status_after, output_after] = run_wsim("sw ACGTACGT TTACGTAC --profile");
  const auto [status_empty, output_empty] = run_wsim("sw ACGTACGT TTACGTAC --profile ''");
  EXPECT_EQ(status_before, 0) << output_before;
  EXPECT_EQ(status_after, 0) << output_after;
  EXPECT_EQ(status_empty, 0) << output_empty;
  EXPECT_NE(output_before.find("score:"), std::string::npos) << output_before;
  EXPECT_EQ(output_before, output_after);
  EXPECT_EQ(output_before, output_empty);
}

/// The kind `command`'s table gives `flag`, or nullopt when undeclared.
std::optional<cli::Kind> kind_of(std::string_view command, std::string_view flag) {
  for (const cli::Flag& declared : cli::command(command).flags) {
    if (declared.name == flag) {
      return declared.kind;
    }
  }
  return std::nullopt;
}

// Boolean flags are declared per command: sw-run's --profile names a
// length profile and keeps its value.
TEST(CliFlags, BooleanFlagsAreDeclaredPerCommand) {
  EXPECT_EQ(kind_of("sw", "profile"), cli::Kind::kBool);
  EXPECT_EQ(kind_of("sw-run", "profile"), cli::Kind::kString);
  EXPECT_EQ(kind_of("sw-run", "verify"), cli::Kind::kBool);
  EXPECT_EQ(kind_of("serve-sim", "outputs"), cli::Kind::kBool);
  EXPECT_EQ(kind_of("fleet-sim", "outputs"), cli::Kind::kBool);
  for (const char* flag : {"streams", "lpt", "validate"}) {
    EXPECT_EQ(kind_of("pipeline", flag), cli::Kind::kBool) << flag;
  }
  EXPECT_EQ(kind_of("pipeline", "batch"), cli::Kind::kInt);
  EXPECT_FALSE(kind_of("pipeline", "outputs").has_value());
  EXPECT_THROW(cli::command("bogus"), wsim::util::CheckError);
  const std::string sw_help = cli::command_help(cli::command("sw"));
  EXPECT_NE(sw_help.find("QUERY TARGET ["), std::string::npos) << sw_help;
  EXPECT_NE(sw_help.find("[--profile]"), std::string::npos) << sw_help;
  const std::string usage = cli::usage_text();
  EXPECT_NE(usage.find("[--streams] [--lpt] [--validate]"), std::string::npos);
  EXPECT_EQ(usage.find("''"), std::string::npos);
}

/// The message of the UsageError that parsing `tokens` as `command` throws,
/// or "" when it parses.
std::string usage_error(std::string_view command,
                        const std::vector<std::string>& tokens) {
  try {
    cli::parse(command, tokens);
  } catch (const cli::UsageError& e) {
    return e.what();
  }
  return {};
}

// Every command's table rejects what it does not declare: an unknown
// flag, a stray positional, and a valued flag left without its value
// (last, or followed by another flag). Each error names the command and
// the offending flag or argument.
TEST(CliFlags, ParseRejectsUndeclaredInputForEveryCommand) {
  for (const cli::CommandInfo& info : cli::commands()) {
    const std::string name(info.name);
    const std::vector<std::string> positionals(info.positionals.size(), "ACGT");
    EXPECT_EQ(usage_error(name, positionals), "") << name;

    auto tokens = positionals;
    tokens.push_back("--no-such-flag");
    std::string error = usage_error(name, tokens);
    EXPECT_EQ(error.rfind(name + ": unknown flag --no-such-flag", 0), 0U) << error;

    tokens = positionals;
    tokens.push_back("stray");
    error = usage_error(name, tokens);
    EXPECT_EQ(error.rfind(name + ": unexpected argument 'stray'", 0), 0U) << error;

    for (const cli::Flag& flag : info.flags) {
      const std::string dashed = "--" + std::string(flag.name);
      tokens = positionals;
      tokens.push_back(dashed);
      if (flag.kind == cli::Kind::kBool) {
        EXPECT_EQ(usage_error(name, tokens), "") << name << " " << dashed;
        continue;
      }
      for (const bool flag_follows : {false, true}) {
        if (flag_follows) {
          tokens.push_back("--interp");
        }
        error = usage_error(name, tokens);
        EXPECT_EQ(error.rfind(name + ": " + dashed + " needs a value", 0), 0U)
            << name << " " << dashed << ": " << error;
      }
    }
  }
  EXPECT_EQ(usage_error("serve-sim", {"--rat", "5"}),
            "serve-sim: unknown flag --rat (did you mean --rate?)");
  EXPECT_EQ(usage_error("sw", {"ACGT"}), "sw: missing TARGET");
}

// Each flag's kind, metavar, default and range sit in one table entry, so
// every default must read back through its own kind and range, and no
// command may declare a name twice or shadow a global flag.
TEST(CliFlags, EveryDeclaredDefaultReadsBackWithinItsRange) {
  for (const cli::CommandInfo& info : cli::commands()) {
    const cli::Args args =
        cli::parse(info.name, std::vector<std::string>(info.positionals.size(), "ACGT"));
    std::set<std::string_view> names;
    for (const cli::Flag& flag : info.flags) {
      const std::string where = std::string(info.name) + " --" + std::string(flag.name);
      EXPECT_TRUE(names.insert(flag.name).second) << "duplicate " << where;
      EXPECT_FALSE(args.given(flag.name)) << where;
      EXPECT_EQ(flag.kind == cli::Kind::kBool, flag.metavar.empty()) << where;
      if (flag.kind == cli::Kind::kBool) {
        EXPECT_TRUE(flag.fallback.empty()) << where;
      } else if (!flag.fallback.empty() && flag.kind == cli::Kind::kInt) {
        EXPECT_NO_THROW(args.integer(flag.name)) << where;
      } else if (!flag.fallback.empty() && flag.kind == cli::Kind::kDouble) {
        EXPECT_NO_THROW(args.real(flag.name)) << where;
      }
    }
    for (const cli::Flag& global : cli::global_flags()) {
      EXPECT_EQ(names.count(global.name), 0U)
          << info.name << " shadows --" << global.name;
    }
  }
  const cli::Args args = cli::parse("serve-sim", {"--rate", "125.5", "--queue", "7",
                                                  "--outputs", "", "--interp", "legacy"});
  EXPECT_DOUBLE_EQ(args.real("rate"), 125.5);
  EXPECT_EQ(args.integer("queue"), 7);
  EXPECT_EQ(args.integer("regions"), 8);
  EXPECT_TRUE(args.given("outputs"));
  EXPECT_EQ(args.str("interp"), "legacy");
  EXPECT_EQ(cli::parse("cluster-sim", {}).real("rate"), 20000.0);
  EXPECT_THROW(args.str("fleet"), wsim::util::CheckError);  // not a serve-sim flag
}

// The driver validates the interpreter name from the flag and from an
// inherited WSIM_INTERP before running anything: the library resolves an
// unknown name to the default engine, so a typo would otherwise run
// silently on an engine the user did not ask for.
TEST(CliFlags, DriverRejectsUnknownInterpreterFromFlagOrEnvironment) {
  {
    const auto [status, output] = run_wsim("devices --interp fast");
    EXPECT_NE(status, 0);
    EXPECT_NE(output.find("error: unknown interpreter 'fast' for --interp"),
              std::string::npos)
        << output;
  }
  ::setenv("WSIM_INTERP", "vectr", 1);
  const auto [env_status, env_output] = run_wsim("devices");
  // An explicit valid flag wins over (and replaces) the inherited value.
  const auto [flag_status, flag_output] = run_wsim("devices --interp legacy");
  ::unsetenv("WSIM_INTERP");
  EXPECT_NE(env_status, 0);
  EXPECT_NE(env_output.find("error: unknown interpreter 'vectr' for WSIM_INTERP"),
            std::string::npos)
      << env_output;
  EXPECT_EQ(flag_status, 0) << flag_output;
  const auto [ok_status, ok_output] = run_wsim("devices");
  EXPECT_EQ(ok_status, 0) << ok_output;
}

// fleet-sim's DEV is a position in --fleet, so an index past its end is a
// typo that would otherwise degrade nothing. cluster-sim's device ids grow
// as workers join, so it takes any index.
TEST(CliFlags, DegradeIndexOutsideTheFleetIsRejected) {
  const auto [status, output] = run_wsim("fleet-sim --regions 1 --degrade \"9@2\"");
  EXPECT_NE(status, 0);
  EXPECT_NE(output.find("error: --degrade device 9 is outside the fleet of 3 devices"),
            std::string::npos)
      << output;
  const auto [last_status, last_output] =
      run_wsim("fleet-sim --regions 1 --fleet \"K40,K1200\" --degrade \"1@2,2@2\"");
  EXPECT_NE(last_status, 0);
  EXPECT_NE(last_output.find("--degrade device 2 is outside the fleet of 2 devices"),
            std::string::npos)
      << last_output;
  const auto [ok_status, ok_output] =
      run_wsim("fleet-sim --regions 1 --fleet \"K40,K1200\" --degrade \"1@2\"");
  EXPECT_EQ(ok_status, 0) << ok_output;
  const auto [cluster_status, cluster_output] =
      run_wsim("cluster-sim --regions 1 --duration 0.01 --degrade \"9@2\"");
  EXPECT_EQ(cluster_status, 0) << cluster_output;
}

TEST(CliUsage, ResilienceCommandsAreDocumented) {
  EXPECT_TRUE(cli::has_command("guard-sim"));
  EXPECT_TRUE(cli::has_command("fleet-sim"));
  const std::string usage = cli::usage_text();
  EXPECT_NE(usage.find("--flip-prob"), std::string::npos);
  EXPECT_NE(usage.find("--detect none|abft|dual|all"), std::string::npos);
}

}  // namespace
