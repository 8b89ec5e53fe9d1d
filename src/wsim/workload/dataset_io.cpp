#include "wsim/workload/dataset_io.hpp"

#include <fstream>
#include <sstream>

#include "wsim/util/check.hpp"

namespace wsim::workload {

namespace {

constexpr int kPhredOffset = 33;

std::string encode_quals(const std::vector<std::uint8_t>& quals) {
  std::string out;
  out.reserve(quals.size());
  for (const std::uint8_t q : quals) {
    util::require(q <= 93, "write_dataset: quality exceeds Phred+33 range");
    out.push_back(static_cast<char>(q + kPhredOffset));
  }
  return out;
}

/// Decodes one Phred+33 quality track of `expect` characters; an error
/// names `where`, the file and line.
std::vector<std::uint8_t> decode_quals(const std::string& text, std::size_t expect,
                                       const std::string& where) {
  util::check_input(text.size() == expect, where + "quality track length mismatch");
  std::vector<std::uint8_t> out;
  out.reserve(text.size());
  for (const char c : text) {
    util::check_input(c >= kPhredOffset, where + "invalid quality character");
    out.push_back(static_cast<std::uint8_t>(c - kPhredOffset));
  }
  return out;
}

void check_sequence(const std::string& seq, const std::string& where) {
  util::check_input(!seq.empty(), where + "empty sequence");
  for (const char c : seq) {
    util::check_input(c == 'A' || c == 'C' || c == 'G' || c == 'T' || c == 'N',
                      where + "invalid base '" + std::string(1, c) + "'");
  }
}

}  // namespace

void write_dataset(std::ostream& os, const Dataset& dataset) {
  os << "# wsim dataset v1\n";
  for (const Region& region : dataset.regions) {
    os << "region\n";
    for (const SwTask& task : region.sw_tasks) {
      os << "sw " << task.query << ' ' << task.target << '\n';
    }
    for (const align::PairHmmTask& task : region.ph_tasks) {
      os << "ph " << static_cast<int>(task.gcp) << ' ' << task.read << ' '
         << task.hap << ' ' << encode_quals(task.base_quals) << ' '
         << encode_quals(task.ins_quals) << ' ' << encode_quals(task.del_quals)
         << '\n';
    }
  }
}

Dataset read_dataset(std::istream& is, const std::string& source) {
  Dataset dataset;
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line.front() == '#') {
      continue;
    }
    const std::string where = source + ":" + std::to_string(line_no) + ": ";
    std::istringstream fields(line);
    // True when every field read parsed and nothing but blanks follows.
    const auto complete = [&fields] {
      return !fields.fail() && (fields >> std::ws).eof();
    };
    std::string kind;
    fields >> kind;
    if (kind == "region") {
      util::check_input(complete(), where + "malformed region line (expected: region)");
      dataset.regions.emplace_back();
      continue;
    }
    util::check_input(!dataset.regions.empty(), where + "task before any 'region'");
    if (kind == "sw") {
      SwTask task;
      fields >> task.query >> task.target;
      util::check_input(complete(),
                        where + "malformed sw line (expected: sw QUERY TARGET)");
      check_sequence(task.query, where);
      check_sequence(task.target, where);
      dataset.regions.back().sw_tasks.push_back(std::move(task));
    } else if (kind == "ph") {
      int gcp = 0;
      std::string read;
      std::string hap;
      std::string bq;
      std::string iq;
      std::string dq;
      fields >> gcp >> read >> hap >> bq >> iq >> dq;
      util::check_input(complete(), where +
                                        "malformed ph line (expected: ph GCP READ HAP "
                                        "BASE_QUALS INS_QUALS DEL_QUALS)");
      util::check_input(gcp >= 0 && gcp <= 93, where + "gcp out of range");
      check_sequence(read, where);
      check_sequence(hap, where);
      align::PairHmmTask task;
      task.gcp = static_cast<std::uint8_t>(gcp);
      task.read = std::move(read);
      task.hap = std::move(hap);
      task.base_quals = decode_quals(bq, task.read.size(), where);
      task.ins_quals = decode_quals(iq, task.read.size(), where);
      task.del_quals = decode_quals(dq, task.read.size(), where);
      align::validate(task);
      dataset.regions.back().ph_tasks.push_back(std::move(task));
    } else {
      util::check_input(false, where + "unknown record '" + kind + "'");
    }
  }
  return dataset;
}

void save_dataset(const std::string& path, const Dataset& dataset) {
  std::ofstream os(path);
  util::check_input(static_cast<bool>(os), "save_dataset: cannot open " + path);
  write_dataset(os, dataset);
  util::check_input(static_cast<bool>(os), "save_dataset: write failed for " + path);
}

Dataset load_dataset(const std::string& path) {
  std::ifstream is(path);
  util::check_input(static_cast<bool>(is), "load_dataset: cannot open " + path);
  return read_dataset(is, path);
}

}  // namespace wsim::workload
