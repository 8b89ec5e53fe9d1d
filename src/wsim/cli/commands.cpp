#include "wsim/cli/commands.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <numeric>
#include <sstream>
#include <type_traits>

namespace wsim::cli {

namespace {

using enum Kind;
constexpr double kIntMax = INT_MAX;

/// Flags more than one command reads, declared once each.
constexpr Flag kDevice{"device", kString, "D", "K1200"};
constexpr Flag kMode{"mode", kString, "shared|shuffle", "shuffle"};
constexpr Flag kThreads{"threads", kInt, "N", "0", INT_MIN, kIntMax};
constexpr Flag kSeed{"seed", kInt, "S", "42"};
constexpr Flag kProfile{"profile", kString, "short-read|long-read|contig"};
constexpr Flag kKernel{"kernel", kString, "shared|shuffle|wf-shared|wf-shuffle|wf-naive"};
constexpr Flag kBatch{"batch", kInt, "N", "200", 1};
constexpr Flag kRate{"rate", kDouble, "R", "50000", 0, kUnbounded, true};
constexpr Flag kJson{"json", kString, "F"};
constexpr Flag kFleet{"fleet", kString, "LIST"};
constexpr Flag kPolicy{"policy", kString, "model|rr|least-cells|calibrated", "model"};

constexpr Flag with_default(Flag flag, std::string_view fallback) {
  flag.fallback = fallback;
  return flag;
}

std::vector<Flag> join(std::initializer_list<std::vector<Flag>> groups) {
  std::vector<Flag> flags;
  for (const std::vector<Flag>& group : groups) {
    flags.insert(flags.end(), group.begin(), group.end());
  }
  return flags;
}

std::vector<CommandInfo> build_registry() {
  const std::vector<Flag> engine = {kDevice, kMode, kThreads};
  const auto dataset = [](std::string_view regions) {
    return std::vector<Flag>{
        {"in", kString, "F"}, {"regions", kInt, "N", regions, 1, kIntMax}, kSeed};
  };
  const std::vector<Flag> replay = {
      kRate, {"delay", kDouble, "US", "200"}, {"deadline", kDouble, "US", "0"},
      {"queue", kInt, "N", "4096", 1}, {"target-cells", kInt, "C", {}, 1},
      {"max-batch", kInt, "N", {}, 1}, {"outputs", kBool}, kJson};
  const std::vector<Flag> faults = {
      {"fault-seed", kInt, "S", "1"}, {"fail-prob", kDouble, "P", "0", 0, 1},
      {"slow-prob", kDouble, "P", "0", 0, 1}, {"slow-factor", kDouble, "X", "4", 1},
      {"degrade", kString, "\"DEV@FACTOR[:stuck|ramp|flap[:ONSET[:PARAM]]]\""},
      {"calibrate", kString, "on|off"}};
  const std::vector<Flag> obs = {{"trace-out", kString, "F"},
                                 {"metrics-out", kString, "F"}};
  return {
      {"devices", {}, {}, "list simulated GPUs"},
      {"micro", {}, {kDevice}, "Fig. 3 instruction-latency microbenchmarks"},
      {"sw", {"QUERY", "TARGET"},
       join({engine, {{"profile", kBool}, {"trace", kString, "F"}}}),
       "Smith-Waterman alignment"},
      {"nw", {"QUERY", "TARGET"}, engine, "Needleman-Wunsch global score"},
      {"pairhmm", {"READ", "HAP"}, join({engine, {{"qual", kInt, "N", "30", 0, 255}}}),
       "PairHMM log10 likelihood"},
      {"sw-run", {},
       {kDevice, kThreads, with_default(kKernel, "wf-shuffle"),
        with_default(kProfile, "long-read"), kSeed, {"tasks", kInt, "N", "4", 1, kIntMax},
        {"verify", kBool}},
       "run one SW batch through a named kernel subsystem: plain names pick the "
       "task-per-block (inter-task) designs, wf-* the intra-task wavefront tiles "
       "(one warp per 256x32 tile, one launch per tile wave; wf-naive is the "
       "host-synchronized kernel-per-diagonal anti-pattern, kept to be "
       "measured); --verify re-scores every CIGAR against the scoring scheme"},
      {"workload", {}, join({dataset("16"), {{"out", kString, "F"}}}),
       "dataset stats / convert"},
      {"sweep", {}, join({{kDevice, kThreads}, dataset("16"), {kBatch}}),
       "GCUPS of SW1/SW2/PH1/PH2"},
      {"pipeline", {},
       join({engine, dataset("8"),
             {{"batch", kInt, "N", "0"}, {"streams", kBool}, {"lpt", kBool},
              {"validate", kBool}}}),
       "run the two-stage HaplotypeCaller pipeline"},
      {"serve-sim", {}, join({engine, dataset("8"), {kProfile}, replay, obs}),
       "replay a dataset as an open-loop arrival process (R requests per "
       "simulated second) through the async alignment service on one simulated "
       "device (a one-worker fleet; --device and --mode pick it and its kernel "
       "designs)"},
      {"fleet-sim", {},
       join({{kMode, kThreads}, dataset("8"), {kProfile}, replay,
             {with_default(kFleet, "K40,K1200,Titan X"), kPolicy,
              {"parallelism", kString, "auto|inter|intra", "auto"}, kKernel},
             faults, obs}),
       "the serve-sim replay over a heterogeneous multi-device fleet with "
       "model-guided placement, fault injection, and retry; prints per-device "
       "utilization and dispatch accounting. --parallelism auto lets the Eq. 7/8 "
       "regime model route each SW batch inter- vs intra-task per device; "
       "--kernel pins one subsystem fleet-wide (wf-* names force the wavefront "
       "path). --degrade silently slows device DEV (its 0-based position in "
       "--fleet; no fault counters) in per-device dispatch-sequence space; "
       "--calibrate (default on for --policy calibrated) runs the online model "
       "calibration and drift ladder that detects and derates such devices"},
      {"cluster-sim", {},
       join({{kMode}, dataset("4"), {kProfile},
             {{"trace", kString, "F"}, {"save-trace", kString, "F"},
              {"shape", kString, "steady|diurnal|bursty", "diurnal"},
              {"duration", kDouble, "S", "0.5", 0, kUnbounded, true},
              with_default(kRate, "20000"), {"tenants", kInt, "N", "2", 1},
              {"fleet-device", kString, "D", "K1200"}, {"min", kInt, "N", "1", 1},
              {"max", kInt, "N", "8", 1}, {"autoscaler", kString, "on|off", "on"},
              {"interval", kInt, "US", "2000", 1}, {"warmup", kInt, "US", "2000"},
              {"target-backlog", kInt, "US", "5000", 1},
              {"cost-hour", kDouble, "C", "2.5"}, kPolicy},
             faults, {{"slo", kDouble, "MS", "20"}, {"quota", kInt, "N", "0"}, kJson},
             obs}),
       "multi-tenant cluster-scale serving on a dynamically-scaled fleet: "
       "replay (or generate, optionally saving with --save-trace) a traffic trace "
       "through the admission-controlled service while the queue-depth "
       "autoscaler joins and drains workers; reports per-tenant latency "
       "percentiles, SLO violations, goodput, device-hours, and cost per million "
       "requests. With --calibrate on the autoscaler derates its Eq. 7/8 "
       "capacity by the fleet's calibrated correction, so a silently degraded "
       "(--degrade) pool scales out"},
      {"guard-sim", {},
       join({{kMode, kThreads}, dataset("2"), {kProfile},
             {with_default(kBatch, "64"), {"flip-prob", kString, "LIST", "3e-7,3e-6"},
              {"detect", kString, "none|abft|dual|all", "all"},
              with_default(kFleet, "K1200,Titan X"), {"sdc-seed", kInt, "S", "7"}, kJson},
             obs}),
       "sweep silent-data-corruption injection rate x detection mode over an "
       "output-collecting fleet run: every delivered batch is compared "
       "bit-for-bit against a fault-free baseline and escaped corruptions are "
       "counted per cell (dual detection must report 0; PairHMM CPU fallbacks "
       "are accurate but not bit-identical and are excluded from the "
       "comparison)"},
  };
}

/// The element of `items` named `name`, or nullptr.
template <typename T>
const T* named(const std::vector<T>& items, std::string_view name) {
  const auto it = std::find_if(items.begin(), items.end(),
                               [&](const T& item) { return item.name == name; });
  return it == items.end() ? nullptr : &*it;
}

const Flag* find_flag(const CommandInfo& info, std::string_view name) {
  const Flag* flag = named(info.flags, name);
  return flag != nullptr ? flag : named(global_flags(), name);
}

/// Levenshtein distance: insertions, deletions and substitutions.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  std::iota(row.begin(), row.end(), std::size_t{0});
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t above = row[j];
      row[j] = std::min({above + 1, row[j - 1] + 1,
                         diagonal + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diagonal = above;
    }
  }
  return row[b.size()];
}

/// " (did you mean --NAME?)" for the declared flag nearest to `typed`,
/// when it is within half the typed name's length of it.
std::string suggestion(const CommandInfo& info, std::string_view typed) {
  std::string_view nearest;
  std::size_t best = std::max<std::size_t>(1, typed.size() / 2) + 1;
  for (const Flag& flag : join({info.flags, global_flags()})) {
    const std::size_t distance = edit_distance(typed, flag.name);
    if (distance < best) {
      best = distance;
      nearest = flag.name;
    }
  }
  return nearest.empty() ? "" : " (did you mean --" + std::string(nearest) + "?)";
}

/// An int flag's bound as a long: an infinite bound is the type's limit.
long long_bound(double bound) {
  return std::isinf(bound) ? (bound > 0 ? LONG_MAX : LONG_MIN) : static_cast<long>(bound);
}

/// The synopsis entry of one flag: [--name METAVAR=DEFAULT].
std::string synopsis_entry(const Flag& flag) {
  std::ostringstream entry;
  entry << "[--" << flag.name << (flag.metavar.empty() ? "" : " ") << flag.metavar;
  if (!flag.fallback.empty()) {
    const char* quote = flag.fallback.find(' ') != std::string_view::npos ? "\"" : "";
    entry << '=' << quote << flag.fallback << quote;
  }
  entry << ']';
  return entry.str();
}

constexpr std::size_t kIndent = 14;     ///< column where synopsis and prose start
constexpr std::size_t kTextWidth = 65;  ///< so lines end by column 79

/// Appends `words` to `lines`, filled to kTextWidth.
void fill(std::vector<std::string>& lines, const std::vector<std::string>& words) {
  std::string line;
  for (const std::string& word : words) {
    if (!line.empty() && line.size() + 1 + word.size() > kTextWidth) {
      lines.push_back(std::move(line));
      line.clear();
    }
    line += (line.empty() ? "" : " ") + word;
  }
  if (!line.empty()) {
    lines.push_back(std::move(line));
  }
}

}  // namespace

const std::vector<CommandInfo>& commands() {
  static const std::vector<CommandInfo> registry = build_registry();
  return registry;
}

const std::vector<Flag>& global_flags() {
  static const std::vector<Flag> flags = {{"interp", kString, "legacy|vector"}};
  return flags;
}

bool has_command(std::string_view name) { return named(commands(), name) != nullptr; }

const CommandInfo& command(std::string_view name) {
  const CommandInfo* info = named(commands(), name);
  util::check_input(info != nullptr, "unknown command '" + std::string(name) + "'");
  return *info;
}

const Flag& Args::spec(std::string_view flag) const {
  const Flag* found = command_ == nullptr ? nullptr : find_flag(*command_, flag);
  util::ensure(found != nullptr, "flag --" + std::string(flag) + " is not declared");
  return *found;
}

bool Args::given(std::string_view flag) const {
  spec(flag);
  return values_.find(flag) != values_.end();
}

bool Args::declares(std::string_view flag) const {
  return command_ != nullptr && find_flag(*command_, flag) != nullptr;
}

std::string Args::str(std::string_view flag) const {
  const auto it = values_.find(flag);
  return it != values_.end() ? it->second : std::string(spec(flag).fallback);
}

long Args::integer(std::string_view flag) const {
  const Flag& declared = spec(flag);
  return parse_number<long>(declared.name, str(flag), long_bound(declared.lo),
                            long_bound(declared.hi), declared.lo_open);
}

double Args::real(std::string_view flag) const {
  const Flag& declared = spec(flag);
  return parse_number<double>(declared.name, str(flag), declared.lo, declared.hi,
                              declared.lo_open);
}

Args parse(std::string_view name, const std::vector<std::string>& tokens) {
  Args args;
  args.command_ = &command(name);
  const CommandInfo& info = *args.command_;
  const auto error = [&](const std::string& what) {
    return UsageError(std::string(info.name) + ": " + what);
  };
  const auto is_flag = [](const std::string& token) { return token.rfind("--", 0) == 0; };
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (!is_flag(tokens[i])) {
      args.positional_.push_back(tokens[i]);
      continue;
    }
    const std::string key = tokens[i].substr(2);
    const Flag* flag = find_flag(info, key);
    if (flag == nullptr) {
      throw error("unknown flag " + tokens[i] + suggestion(info, key));
    }
    const bool has_value = i + 1 < tokens.size() && !is_flag(tokens[i + 1]);
    if (flag->kind != kBool && !has_value) {
      throw error(tokens[i] + " needs a value (" + std::string(flag->metavar) + ")");
    }
    // A kBool flag takes only an explicit empty value.
    const bool takes_next = has_value && (flag->kind != kBool || tokens[i + 1].empty());
    args.values_[key] = takes_next ? tokens[++i] : "";
    if (flag->kind == kInt) {
      args.integer(key);  // checks the value against the flag's range
    } else if (flag->kind == kDouble) {
      args.real(key);
    }
  }
  const std::size_t expected = info.positionals.size();
  if (args.positional_.size() > expected) {
    throw error("unexpected argument '" + args.positional_[expected] + "'" +
                (expected == 0 ? " (takes no positional arguments)" : ""));
  }
  if (args.positional_.size() < expected) {
    throw error("missing " + std::string(info.positionals[args.positional_.size()]));
  }
  return args;
}

std::string command_help(const CommandInfo& info) {
  std::vector<std::string> synopsis(info.positionals.begin(), info.positionals.end());
  for (const Flag& flag : info.flags) {
    synopsis.push_back(synopsis_entry(flag));
  }
  std::vector<std::string> prose;
  std::istringstream words{std::string(info.description)};
  for (std::string word; words >> word;) {
    prose.push_back(word);
  }
  std::vector<std::string> lines;
  fill(lines, synopsis);
  fill(lines, prose);
  std::string text = "  " + std::string(info.name) + " ";
  text.resize(std::max(text.size(), kIndent), ' ');
  for (std::size_t i = 0; i < lines.size(); ++i) {
    text += (i == 0 ? "" : std::string(kIndent, ' ')) + lines[i] + '\n';
  }
  return text;
}

std::string usage_text() {
  std::string text =
      "usage: wsim <command> [options]\n"
      "commands:\n";
  for (const CommandInfo& info : commands()) {
    text += command_help(info);
  }
  text +=
      "  help | --help | -h  print this usage and exit 0\n"
      "common options: --device \"K40\"|\"K1200\"|\"Titan X\"; --threads N, simulation\n"
      "                worker threads for block execution (0: one per hardware\n"
      "                thread; results are identical at any thread count)\n"
      "                --interp legacy|vector  (every command) interpreter path:\n"
      "                the SIMD lane-vector engine (default) or the legacy switch\n"
      "                interpreter (results are bit-identical on both)\n"
      "                an unknown flag, a stray or missing positional, or a flag\n"
      "                without its value exits 2; a bad value exits 1\n"
      "observability:  --trace-out F writes a Chrome trace-event JSON of the run\n"
      "                (simulated clock; open in Perfetto or chrome://tracing),\n"
      "                --metrics-out F the flat obs metrics dump (versioned schema)\n"
      "environment:    WSIM_THREADS=N  worker count of the process-wide shared\n"
      "                engine when --threads is absent or <= 0 (pipeline,\n"
      "                benches, library default)\n"
      "                WSIM_INTERP=legacy|vector  the interpreter when --interp\n"
      "                is absent (default: vector)\n"
      "                WSIM_VECTOR_ISA=generic|avx2|avx512  clamp the lane-vector\n"
      "                engine's SIMD tier (downgrade-only; default: the best the\n"
      "                CPU supports)\n";
  return text;
}

template <typename T>
T parse_number(std::string_view flag, std::string_view text, T lo, T hi, bool lo_open) {
  const std::string shown = "--" + std::string(flag) + " '" + std::string(text) + "'";
  T value{};
  const char* const last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec == std::errc::invalid_argument || end != last) {
    throw util::CheckError(shown + (std::is_integral_v<T> ? " is not an integer"
                                                          : " is not a number"));
  }
  if (ec != std::errc::result_out_of_range && !std::isfinite(static_cast<double>(value))) {
    throw util::CheckError(shown + " is not finite");
  }
  if (ec == std::errc::result_out_of_range || (lo_open ? value <= lo : value < lo) ||
      value > hi) {
    const T unbounded = std::is_integral_v<T> ? std::numeric_limits<T>::max()
                                              : std::numeric_limits<T>::infinity();
    std::ostringstream range;
    if (hi == unbounded) {
      range << " must be " << (lo_open ? "> " : ">= ") << lo;
    } else {
      range << " must be in " << (lo_open ? '(' : '[') << lo << ", " << hi << "]";
    }
    throw util::CheckError(shown + range.str());
  }
  return value;
}

template long parse_number<long>(std::string_view, std::string_view, long, long, bool);
template double parse_number<double>(std::string_view, std::string_view, double, double,
                                     bool);

std::string interp_error(std::string_view name, std::string_view source) {
  if (name == "legacy" || name == "vector") {
    return {};
  }
  return "error: unknown interpreter '" + std::string(name) + "' for " +
         std::string(source) + "; valid names: legacy, vector";
}

}  // namespace wsim::cli
