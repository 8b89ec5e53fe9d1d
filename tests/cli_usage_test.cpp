#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

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
    EXPECT_FALSE(info.help.empty()) << info.name;
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

TEST(CliFlags, DriverExitsNonZeroNamingTheBadFlag) {
  const std::pair<const char*, const char*> cases[] = {
      {"serve-sim --regions 1 --rate 5abc", "--rate '5abc'"},
      {"fleet-sim --regions 1 --fail-prob 2", "--fail-prob '2'"},
      {"fleet-sim --regions 1 --slow-factor 0.5", "--slow-factor '0.5'"},
      {"cluster-sim --regions 1 --duration 0.01 --slo -5", "--slo '-5'"},
      {"serve-sim --regions x", "--regions 'x'"},
  };
  for (const auto& [args, flag] : cases) {
    const auto [status, output] = run_wsim(args);
    EXPECT_NE(status, 0) << args;
    EXPECT_NE(output.find(std::string("error: ") + flag), std::string::npos)
        << args << "\n" << output;
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

// Boolean flags are declared per command: sw-run's --profile names a
// length profile and keeps its value.
TEST(CliFlags, BooleanFlagsAreDeclaredPerCommand) {
  EXPECT_TRUE(cli::is_bool_flag("sw", "profile"));
  EXPECT_FALSE(cli::is_bool_flag("sw-run", "profile"));
  EXPECT_TRUE(cli::is_bool_flag("sw-run", "verify"));
  EXPECT_TRUE(cli::is_bool_flag("serve-sim", "outputs"));
  EXPECT_TRUE(cli::is_bool_flag("fleet-sim", "outputs"));
  for (const char* flag : {"streams", "lpt", "validate"}) {
    EXPECT_TRUE(cli::is_bool_flag("pipeline", flag)) << flag;
  }
  EXPECT_FALSE(cli::is_bool_flag("pipeline", "batch"));
  EXPECT_FALSE(cli::is_bool_flag("bogus", "outputs"));
  const std::string usage = cli::usage_text();
  EXPECT_NE(usage.find("QUERY TARGET [--profile]"), std::string::npos);
  EXPECT_NE(usage.find("[--streams] [--lpt] [--validate]"), std::string::npos);
  EXPECT_EQ(usage.find("''"), std::string::npos);
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
