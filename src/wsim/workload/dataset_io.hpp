#pragma once

#include <iosfwd>
#include <string>

#include "wsim/workload/task.hpp"

namespace wsim::workload {

/// Line-oriented text format for datasets, so real HaplotypeCaller dumps
/// can be fed to the benches/pipeline in place of the synthetic
/// generator:
///
///   # comments and blank lines are ignored
///   region
///   sw <query> <target>
///   ph <gcp> <read> <hap> <base_quals> <ins_quals> <del_quals>
///
/// `region` starts a new active region; `sw`/`ph` lines append tasks to
/// the current region. Sequences use the ACGTN alphabet; quality tracks
/// are FASTQ-style Phred+33 ASCII strings with one character per read
/// base; `gcp` is a decimal Phred value. read_dataset rejects a line with
/// a missing, extra or bad field; its util::CheckError names `source`
/// (load_dataset passes the file path) and the line.
void write_dataset(std::ostream& os, const Dataset& dataset);
Dataset read_dataset(std::istream& is, const std::string& source = "<dataset>");

/// File-path convenience wrappers. Throw util::CheckError when the file
/// cannot be opened or parsed.
void save_dataset(const std::string& path, const Dataset& dataset);
Dataset load_dataset(const std::string& path);

}  // namespace wsim::workload
