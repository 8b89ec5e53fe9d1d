#pragma once

#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "wsim/util/check.hpp"

namespace wsim::cli {

/// How a flag's value is read. A kBool flag takes no value (only an
/// explicit empty one, `--validate ''`); the others take the next token.
enum class Kind { kBool, kInt, kDouble, kString };

inline constexpr double kUnbounded = std::numeric_limits<double>::infinity();

/// One flag of a command: its name (without the dashes), kind, the
/// placeholder the synopsis shows for its value, its default as
/// command-line text (empty: unset, the command decides), and for numbers
/// the range [lo, hi] — (lo, hi] when `lo_open` — the value must fall in.
/// An infinite bound is no bound; int bounds must be whole numbers.
struct Flag {
  std::string_view name;
  Kind kind = Kind::kString;
  std::string_view metavar = {};
  std::string_view fallback = {};
  double lo = 0.0;
  double hi = kUnbounded;
  bool lo_open = false;
};

/// One registered subcommand of the `wsim` driver: its name, the metavars
/// of the positionals it requires (their number is the exact count it
/// takes), every flag it reads, and the prose usage_text() prints after
/// the synopsis it builds from the same table.
struct CommandInfo {
  std::string_view name;
  std::vector<std::string_view> positionals;
  std::vector<Flag> flags;
  std::string_view description;
};

/// Every subcommand the driver dispatches, in help order. `wsim` asserts
/// at startup that its dispatch table matches this registry name for name,
/// and cli_usage_test asserts the assembled help names every entry — so
/// adding a command without documenting it, or documenting a command that
/// is never dispatched, fails fast instead of drifting.
const std::vector<CommandInfo>& commands();

/// Flags every command accepts (--interp), documented in the usage footer.
const std::vector<Flag>& global_flags();

/// True when `name` names a registered subcommand.
bool has_command(std::string_view name);

/// The registered command `name`; throws util::CheckError if there is none.
const CommandInfo& command(std::string_view name);

/// A command line that is malformed for its command: an unknown flag, a
/// stray or missing positional, or a valued flag given no value. The
/// driver exits 2 on it; a bad value (parse_number) is a plain CheckError.
class UsageError : public util::CheckError {
 public:
  using util::CheckError::CheckError;
};

/// The arguments of one command line, checked against its command's
/// table. Reading a flag the table does not declare is a program bug and
/// throws util::CheckError.
class Args {
 public:
  const std::vector<std::string>& positional() const noexcept { return positional_; }
  /// True when the command line gave `flag` (a kBool flag is on).
  bool given(std::string_view flag) const;
  /// True when the command's table (or the global table) declares `flag`.
  bool declares(std::string_view flag) const;
  /// The given value, else the table's default.
  std::string str(std::string_view flag) const;
  long integer(std::string_view flag) const;
  double real(std::string_view flag) const;

 private:
  friend Args parse(std::string_view command, const std::vector<std::string>& tokens);
  const Flag& spec(std::string_view flag) const;

  const CommandInfo* command_ = nullptr;
  std::vector<std::string> positional_;
  std::map<std::string, std::string, std::less<>> values_;
};

/// Parses `tokens` (argv after the command name) against `command`'s
/// table. A valued flag takes the next token unless that token starts
/// with "--" (no valid value does; negative numbers use one dash); a
/// kBool flag takes only an explicit empty value, so it swallows neither
/// the flag nor the positional after it. A repeated flag keeps its last
/// value. Throws UsageError naming the command and the flag — with the
/// nearest declared flag for a misspelling — on unknown flags, a wrong
/// positional count, or a valued flag without a value, and checks every
/// numeric value with parse_number against its declared range.
Args parse(std::string_view command, const std::vector<std::string>& tokens);

/// The full `wsim help` text: header, every command's help block (its
/// synopsis, built from its table, then its prose), and the footer.
std::string usage_text();

/// One command's help block, as usage_text() prints it.
std::string command_help(const CommandInfo& info);

/// Parses `text`, the value given for `--flag`, as one number in
/// [lo, hi] — (lo, hi] when `lo_open` — with std::from_chars: the whole
/// string must be the number (no leading space or '+', no trailing junk),
/// finite, and in range. Throws util::CheckError naming the flag
/// otherwise, so `--rate 5abc` is an error instead of rate 5. Instantiated
/// for long and double.
template <typename T>
T parse_number(std::string_view flag, std::string_view text, T lo, T hi,
               bool lo_open = false);

/// Validates a --interp / WSIM_INTERP interpreter name. Returns the empty
/// string when `name` is a user-selectable engine ("legacy", "vector");
/// otherwise the exact one-line error the driver prints, which names
/// `source` (the flag or the environment variable the value came from)
/// and lists the valid names. Shared between the binary and
/// cli_usage_test so the error surface cannot drift from the documented
/// set.
std::string interp_error(std::string_view name, std::string_view source = "--interp");

}  // namespace wsim::cli
