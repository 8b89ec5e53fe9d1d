#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace wsim::cli {

/// One registered subcommand of the `wsim` driver: the dispatch name, the
/// preformatted help block (synopsis + description, two-space indented,
/// newline-terminated) that usage_text() prints for it, and the flags that
/// take no value.
struct CommandInfo {
  std::string_view name;
  std::string_view help;
  std::vector<std::string_view> bool_flags = {};
};

/// Every subcommand the driver dispatches, in help order. `wsim` asserts
/// at startup that its dispatch table matches this registry one-to-one,
/// and cli_usage_test asserts the assembled help names every entry — so
/// adding a command without documenting it, or documenting a command that
/// is never dispatched, fails fast instead of drifting.
const std::vector<CommandInfo>& commands();

/// True when `name` names a registered subcommand.
bool has_command(std::string_view name);

/// True when `flag` (without its dashes) is one of `command`'s boolean
/// flags, which never take the next argument as their value.
bool is_bool_flag(std::string_view command, std::string_view flag);

/// The full `wsim help` text: header, every command's help block, and the
/// common-options footer.
std::string usage_text();

/// Parses `text`, the value given for `--flag`, as one number in
/// [lo, hi] with std::from_chars: the whole string must be the number (no
/// leading space or '+', no trailing junk), finite, and in range. Throws
/// util::CheckError naming the flag otherwise, so `--rate 5abc` is an
/// error instead of rate 5. Instantiated for long and double.
template <typename T>
T parse_number(std::string_view flag, std::string_view text, T lo, T hi);

/// Validates a --interp / WSIM_INTERP interpreter name. Returns the empty
/// string when `name` is a user-selectable engine ("legacy", "vector");
/// otherwise the exact one-line error the driver prints, which names
/// `source` (the flag or the environment variable the value came from)
/// and lists the valid names. Shared between the binary and
/// cli_usage_test so the error surface cannot drift from the documented
/// set.
std::string interp_error(std::string_view name, std::string_view source = "--interp");

}  // namespace wsim::cli
