// Golden metric exports: runs one statement of examples/paper_queries.scsql
// on a fresh Scsq, publishes the machine's metrics and diffs the
// registry's JSON and Prometheus exports against committed copies in
// tests/golden/. The exporters' output — series order, keys, label
// rendering, number formatting, HELP/TYPE grouping — is pinned byte for
// byte, so a change to the registry's storage or lookup cannot move it
// unnoticed.
//
// The process-wide sim.coro.* counters (coroutine-frame pool totals) are
// dropped before the diff: they depend on whatever else ran earlier in
// the process, not on the statement.
//
// On a mismatch the actual export is written next to the test binary as
// <golden name>.actual; copying it over the golden regenerates it.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "core/scsq.hpp"
#include "scsql/parser.hpp"

namespace scsq {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Drops every "sim.coro.*" series from a one-line JSON export.
std::string strip_coro_json(const std::string& json) {
  static const std::regex kCoro(R"("sim\.coro\.[a-z_]+":[0-9]+,?)");
  std::string out = std::regex_replace(json, kCoro, "");
  // A dropped last member leaves a trailing comma before the brace.
  static const std::regex kTrailing(",\\}");
  return std::regex_replace(out, kTrailing, "}");
}

// Drops every sim_coro_* line (samples and HELP/TYPE headers) from a
// Prometheus exposition.
std::string strip_coro_prometheus(const std::string& text) {
  std::istringstream in(text);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("sim_coro_") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

void expect_golden(const std::string& actual, const std::string& golden_name) {
  const std::string path = std::string(SCSQ_GOLDEN_DIR) + "/" + golden_name;
  const std::string expected = read_file(path);
  if (actual != expected) {
    std::ofstream(golden_name + ".actual", std::ios::binary) << actual;
  }
  EXPECT_EQ(actual, expected) << "export differs from " << path
                              << " (actual written to " << golden_name << ".actual)";
}

// Runs statement `index` (0-based) of the paper script on a fresh Scsq
// and checks both exports against tests/golden/metrics_<tag>.{json,prom}.
void check_statement(std::size_t index, const std::string& tag) {
  const auto statements =
      scsql::parse_script(read_file(std::string(SCSQ_EXAMPLES_DIR) + "/paper_queries.scsql"));
  ASSERT_GT(statements.size(), index);
  Scsq scsq;
  scsq.engine().run_statement(statements[index]);
  scsq.machine().publish_metrics();

  std::ostringstream json;
  scsq.machine().metrics().write_json(json);
  expect_golden(strip_coro_json(json.str()) + "\n", "metrics_" + tag + ".json");

  std::ostringstream prom;
  scsq.machine().metrics().write_prometheus(prom);
  expect_golden(strip_coro_prometheus(prom.str()), "metrics_" + tag + ".prom");
}

TEST(GoldenMetrics, Query5AtFourIoNodes) { check_statement(4, "query5_n4"); }

TEST(GoldenMetrics, DistributedGrep) { check_statement(5, "grep"); }

}  // namespace
}  // namespace scsq
