// Synthetic text corpus for the mapreduce grep example.
//
// The paper's distributed grep runs over a table of 1000 filenames. We
// have no corpus, so file contents are generated deterministically from
// the filename: every file gets `lines_per_file` lines of pseudo-random
// words drawn from a fixed dictionary, so a given (filename, pattern)
// always yields the same matches on every run and node — which the grep
// example's correctness test relies on.
//
// The corpus has one line generator (textgen.cpp): file_lines,
// grep_file and the grep operators' one-pass scan_file all draw their
// lines from it, so every reader sees the same words in the same order.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace scsq::funcs {

struct TextGenOptions {
  int lines_per_file = 64;
  int words_per_line = 8;
};

/// The filename table: filename(i) of the paper's grep query.
std::string filename_for(std::int64_t index);

/// Deterministic synthetic content of a file.
std::vector<std::string> file_lines(const std::string& filename,
                                    const TextGenOptions& options = {});

/// Lines of `filename` containing `pattern` (plain substring match).
std::vector<std::string> grep_file(std::string_view pattern, const std::string& filename,
                                   const TextGenOptions& options = {});

/// One grep pass: the bytes scanned (the summed size of every line, what
/// the scan is charged for) and the matching lines in file order.
struct GrepScan {
  std::uint64_t scanned_bytes = 0;
  std::vector<std::string> matches;
};

/// Generates `filename` once and greps it. Allocates the line buffer,
/// the match list and one string per match — nothing per scanned line.
GrepScan scan_file(std::string_view pattern, const std::string& filename,
                   const TextGenOptions& options = {});

}  // namespace scsq::funcs
