// One pinned invocation per vpmem_cli subcommand, each with `--json -`:
// the exit code, the JSON document on stdout (wall-clock keys removed),
// the human summary on stderr (timing lines removed) and every file the
// run writes (--out results, the Perfetto trace) must match
// golden/cli_golden.txt byte for byte.  Any change to the grammar, the
// handlers or the library that alters a valid invocation's output fails
// here.
//
// To regenerate after an intended output change:
//   VPMEM_UPDATE_GOLDEN=1 ./exec_cli_golden_test
// (that run fails on purpose after writing the fixture) and say in the
// change why the output moved.
// This file forks and execs, so it carries the "fork" ctest label.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_harness.hpp"
#include "vpmem/util/json.hpp"

namespace vpmem::cli_test {
namespace {

struct GoldenCase {
  std::vector<std::string> args;  ///< without the trailing `--json -`
  std::vector<std::string> files;  ///< files the run writes, pinned too
};

const std::vector<GoldenCase>& golden_cases() {
  static const std::vector<GoldenCase> cases{
      {{"single", "16", "4", "1"}, {}},
      {{"pair", "12", "3", "1", "7"}, {}},
      {{"render", "12", "3", "1", "7", "0", "3", "24", "--consecutive", "--sections", "4"}, {}},
      {{"report", "13", "6", "1", "6", "--cyclic-priority"}, {}},
      {{"triad", "1024", "2"}, {}},
      {{"kernel", "daxpy", "1024", "3", "--dedicated"}, {}},
      {{"idim", "16", "4", "1", "3", "10", "--same-cpu"}, {}},
      {{"diagnose", "13", "6", "1", "6"}, {}},
      {{"fuzz", "50", "--seed", "7", "--cycles", "64", "--jobs", "2"}, {}},
      {{"sweep", "16", "3", "--d1", "1:4", "--d2", "1:4", "--jobs", "2", "--same-cpu",
        "--sections", "4", "--out", "sweep.json"},
       {"sweep.json"}},
      {{"faults", "12", "3", "1", "7", "0", "3", "--inline", "stall;boff@40:b3;bon@160:b3",
        "--max-cycles", "100000"},
       {}},
      {{"trace", "12", "3", "1", "7", "0", "3", "--window", "16", "--out", "trace.json"},
       {"trace.json"}},
  };
  return cases;
}

/// Keys whose values are wall-clock measurements and so differ per run.
bool is_wall_clock_key(const std::string& key) {
  return key == "wall_seconds" || key == "cycles_per_second" || key == "mean_point_seconds" ||
         key == "max_point_seconds" || key == "job.wall_ms";
}

Json without_wall_clock(const Json& value) {
  if (value.is_array()) {
    Json out = Json::array();
    for (const Json& element : value.as_array()) out.push_back(without_wall_clock(element));
    return out;
  }
  if (!value.is_object()) return value;
  Json out = Json::object();
  for (const auto& [key, member] : value.as_object()) {
    if (!is_wall_clock_key(key)) out[key] = without_wall_clock(member);
  }
  return out;
}

/// The human summary minus the telemetry lines that carry timings.
std::string without_timing_lines(const std::string& text) {
  std::istringstream in{text};
  std::string kept;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("sweep telemetry:", 0) == 0 || line.rfind("report:", 0) == 0) continue;
    kept += line + '\n';
  }
  return kept;
}

/// The pinned record of one invocation, run in a fresh scratch directory.
std::string record_of(const GoldenCase& c) {
  TempDir dir{"golden"};
  std::vector<std::string> args = c.args;
  args.insert(args.end(), {"--json", "-"});
  const CliRun run = run_cli_in(dir, args);
  std::ostringstream os;
  os << "===";
  for (const auto& a : args) os << ' ' << a;
  os << "\nexit " << run.exit_code << "\n--- stdout (wall-clock keys removed)\n";
  try {
    os << without_wall_clock(Json::parse(run.out)).dump(2) << '\n';
  } catch (const std::exception& e) {
    os << "unparseable: " << e.what() << '\n' << run.out;
  }
  os << "--- stderr (timing lines removed)\n" << without_timing_lines(run.err);
  for (const auto& f : c.files) os << "--- file " << f << '\n' << slurp(dir.file(f));
  return os.str();
}

/// Split the fixture into its per-invocation records.
std::vector<std::string> fixture_records(std::istream& in) {
  std::vector<std::string> records;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("===", 0) == 0) records.emplace_back();
    if (!records.empty()) records.back() += line + '\n';
  }
  return records;
}

std::string first_difference(const std::string& want, const std::string& got) {
  std::istringstream w{want};
  std::istringstream g{got};
  std::string wl;
  std::string gl;
  for (int line = 1;; ++line) {
    const bool more_w = static_cast<bool>(std::getline(w, wl));
    const bool more_g = static_cast<bool>(std::getline(g, gl));
    if (!more_w && !more_g) return "identical";
    if (!more_w || !more_g || wl != gl) {
      return "line " + std::to_string(line) + "\n want: " + (more_w ? wl : "<end>") +
             "\n got:  " + (more_g ? gl : "<end>");
    }
  }
}

TEST(CliGolden, EverySubcommandMatchesTheFixture) {
  std::vector<std::string> got;
  for (const GoldenCase& c : golden_cases()) got.push_back(record_of(c));
  if (std::getenv("VPMEM_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out{VPMEM_CLI_GOLDEN};
    ASSERT_TRUE(out.is_open()) << VPMEM_CLI_GOLDEN;
    out << "# vpmem_cli golden outputs: see tests/exec/cli_golden_test.cpp\n";
    for (const std::string& record : got) out << record;
    FAIL() << "golden fixture rewritten; rerun without VPMEM_UPDATE_GOLDEN to check it";
  }
  std::ifstream in{VPMEM_CLI_GOLDEN};
  ASSERT_TRUE(in.is_open()) << VPMEM_CLI_GOLDEN;
  const std::vector<std::string> want = fixture_records(in);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(want[i] == got[i]) << "invocation " << i << " differs at "
                                   << first_difference(want[i], got[i]);
  }
}

}  // namespace
}  // namespace vpmem::cli_test
