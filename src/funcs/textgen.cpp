#include "funcs/textgen.hpp"

#include <algorithm>

#include "util/rng.hpp"
#include "util/strings.hpp"

namespace scsq::funcs {
namespace {

constexpr const char* kDictionary[] = {
    "antenna", "stream",  "signal", "torus",   "query",   "buffer", "node",
    "pulsar",  "cluster", "merge",  "process", "radio",   "noise",  "fft",
    "gain",    "flux",    "epoch",  "drift",   "sky",     "beam",
};
constexpr std::size_t kDictSize = sizeof(kDictionary) / sizeof(kDictionary[0]);

constexpr std::size_t longest_word() {
  std::size_t n = 0;
  for (const char* word : kDictionary) n = std::max(n, std::char_traits<char>::length(word));
  return n;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Streams the deterministic lines of one file. Each next() overwrites
// the caller's buffer, so a reused buffer makes a whole file cost at
// most one allocation.
class LineGenerator {
 public:
  LineGenerator(const std::string& filename, const TextGenOptions& options)
      : rng_(fnv1a(filename)),
        lines_left_(options.lines_per_file),
        words_per_line_(options.words_per_line) {}

  // Writes the next line into `line`; false once the file is exhausted.
  bool next(std::string& line) {
    if (lines_left_ <= 0) return false;
    --lines_left_;
    line.clear();
    for (int w = 0; w < words_per_line_; ++w) {
      if (w > 0) line += ' ';
      line += kDictionary[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(kDictSize) - 1))];
    }
    return true;
  }

  // Capacity that holds any line of this file without regrowing.
  std::size_t max_line_bytes() const {
    return static_cast<std::size_t>(std::max(words_per_line_, 0)) * (longest_word() + 1);
  }

 private:
  util::Rng rng_;
  int lines_left_;
  int words_per_line_;
};

}  // namespace

std::string filename_for(std::int64_t index) {
  return "lofar_obs_" + std::to_string(index) + ".log";
}

std::vector<std::string> file_lines(const std::string& filename,
                                    const TextGenOptions& options) {
  LineGenerator gen(filename, options);
  std::vector<std::string> lines;
  lines.reserve(static_cast<std::size_t>(std::max(options.lines_per_file, 0)));
  std::string line;
  while (gen.next(line)) lines.push_back(line);
  return lines;
}

std::vector<std::string> grep_file(std::string_view pattern, const std::string& filename,
                                   const TextGenOptions& options) {
  return scan_file(pattern, filename, options).matches;
}

GrepScan scan_file(std::string_view pattern, const std::string& filename,
                   const TextGenOptions& options) {
  LineGenerator gen(filename, options);
  GrepScan scan;
  scan.matches.reserve(static_cast<std::size_t>(std::max(options.lines_per_file, 0)));
  std::string line;
  line.reserve(gen.max_line_bytes());
  while (gen.next(line)) {
    scan.scanned_bytes += line.size();
    if (util::contains(line, pattern)) scan.matches.push_back(line);
  }
  return scan;
}

}  // namespace scsq::funcs
