// Table-driven argv fuzzing of vpmem_cli (binary path via VPMEM_CLI_PATH).
// The grammar is read back from the usage the CLI prints with no
// arguments, which its grammar table generates: one line per subcommand
// with its positional slots and the options it accepts.  From it, a fixed
// seed draws thousands of command lines: valid and off-by-one positional
// counts, junk numbers, each subcommand's own options, options borrowed
// from other subcommands, and options missing their value.  Every case
// must exit with a documented code (0-8) within a deadline, exit 2 must
// print that subcommand's usage line, and any other exit under --json must
// leave a vpmem.cli/1 or vpmem.run_report/1 document.  Draws stay small
// (numbers <= 64, n_c <= 16, IDIM arrays <= 4, --jobs <= 2, fuzz
// iterations <= 20, grids <= 4x4, no --test-crash) so no case is slow or
// spawns many threads.
// This file forks and execs, so it carries the "fork" ctest label.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cli_harness.hpp"
#include "vpmem/util/json.hpp"

namespace vpmem::cli_test {
namespace {

struct OptionSpec {
  std::string name;
  std::string meta;  ///< value placeholder; empty for a flag
  bool required = false;
};

struct CommandSpec {
  std::string name;
  std::vector<std::string> slots;   ///< positional slot names, in order
  std::vector<std::size_t> counts;  ///< accepted positional counts
  std::vector<OptionSpec> options;  ///< every accepted option but --json
};

/// Read the grammar back from the usage text: `  vpmem_cli <name> ...`
/// lines, continued on lines indented by eleven spaces.
std::vector<CommandSpec> grammar_from_usage(const std::string& usage) {
  std::vector<std::vector<std::string>> lines;
  std::istringstream in{usage};
  for (std::string line; std::getline(in, line);) {
    const bool starts = line.rfind("  vpmem_cli ", 0) == 0;
    if (!starts && (lines.empty() || line.rfind("           ", 0) != 0)) continue;
    if (starts) lines.emplace_back();
    std::istringstream words{line};
    for (std::string w; words >> w;) lines.back().push_back(w);
  }
  std::vector<CommandSpec> commands;
  for (const auto& words : lines) {
    CommandSpec c;
    c.name = words.at(1);
    bool in_group = false;  // inside "(--a x | --b y)": one of, drawn as optional
    for (std::size_t i = 2; i < words.size(); ++i) {
      std::string w = words[i];
      if (w == "|") continue;
      const bool optional = w.front() == '[';
      in_group = in_group || w.front() == '(';
      if (optional || w.front() == '(') w.erase(0, 1);
      const bool closed = w.find_first_of("])") != std::string::npos;
      w = w.substr(0, w.find_first_of("])"));
      if (w.rfind("--", 0) == 0) {
        OptionSpec o{w, "", !optional && !in_group};
        if (!closed && i + 1 < words.size() && words[i + 1].find_first_of("[(|-") != 0) {
          ++i;
          o.meta = words[i].substr(0, words[i].find_first_of("])"));
          in_group = in_group && words[i].back() != ')';
        }
        if (o.name != "--json") c.options.push_back(o);
        continue;
      }
      if (optional) c.counts.push_back(c.slots.size());
      c.slots.push_back(w.front() == '<' ? w.substr(1, w.size() - 2) : w);
    }
    c.counts.push_back(c.slots.size());
    commands.push_back(c);
  }
  return commands;
}

class Draw {
 public:
  explicit Draw(std::uint64_t seed) : rng_{seed} {}
  bool chance(double p) { return std::uniform_real_distribution<double>{0, 1}(rng_) < p; }
  std::size_t below(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>{0, n - 1}(rng_);
  }
  template <typename T>
  T pick(const std::vector<T>& from) { return from.at(below(from.size())); }
  std::string number(std::size_t lo, std::size_t hi) {
    return std::to_string(lo + below(hi - lo + 1));
  }

 private:
  std::mt19937_64 rng_;
};

const std::vector<std::string> kJunkNumbers{"", " 1", "abc", "-1", "1e3",
                                            "99999999999999999999"};

/// A numeric token for slot or option `name`: usually small and valid,
/// sometimes junk.
std::string number_for(Draw& d, const std::string& name) {
  if (d.chance(0.08)) return d.pick(kJunkNumbers);
  if (name == "--jobs") return d.number(1, 2);
  if (name == "iterations") return d.number(0, 20);
  if (name == "--throttle-ms" || name == "--retries") return d.number(0, 1);
  if (name == "m" || name == "n" || name == "inc") return d.number(1, 64);
  if (name == "nc") return d.number(1, 16);
  if (name == "arrays") return d.number(1, 4);
  return d.number(0, 64);
}

std::string value_for(Draw& d, const OptionSpec& o) {
  if (o.meta == "N") return number_for(d, o.name);
  if (o.meta == "A:B") {
    if (d.chance(0.1)) return d.pick<std::string>({" 1:2", "-3:2", "1:", "3:1", "9:", "x:y"});
    const std::size_t lo = d.below(8);
    return std::to_string(lo) + ':' + std::to_string(lo + d.below(4));
  }
  if (o.meta == "file") return d.pick<std::string>({"plan.json", "out.json", "journal.jsonl"});
  if (o.meta == "name") {
    return d.pick<std::string>({"none", "short-bank-busy", "drop-rotation", "bogus"});
  }
  if (o.meta == "LINE") {
    return d.pick<std::string>({"vpmem.fuzz/1 m=3 s=3 nc=3 map=cyclic prio=fixed cycles=7 "
                                "fault=short-bank-busy stream=b0,d1,c0,linf,t0 "
                                "stream=b2,d1,c1,linf,t0",
                                "vpmem.fuzz/1 m=3", "junk"});
  }
  if (o.meta == "SPEC") return d.pick<std::string>({"stall;boff@40:b3;bon@160:b3", "stall", "?"});
  if (o.meta.find('|') != std::string::npos) {
    std::vector<std::string> choices{"bogus"};
    std::istringstream names{o.meta};
    for (std::string n; std::getline(names, n, '|');) choices.push_back(n);
    return d.pick(choices);
  }
  return "x";
}

struct Case {
  std::vector<std::string> args;
  std::string command;  ///< empty for an unknown subcommand
  std::string json;     ///< the --json target, empty when not given
};

Case draw_case(Draw& d, const std::vector<CommandSpec>& grammar) {
  Case c;
  if (d.chance(0.01)) {
    c.args = {d.pick<std::string>({"bogus", "", "--json", "SINGLE"}), "1"};
    return c;
  }
  const CommandSpec& cmd = d.pick(grammar);
  c.command = cmd.name;
  c.args.push_back(cmd.name);
  // fuzz without a count runs 500 cases; keep every run to <= 20.
  std::size_t count = cmd.name == "fuzz" ? 1 : d.pick(cmd.counts);
  if (d.chance(0.1)) count = count == 0 || d.chance(0.5) ? count + 1 : count - 1;
  for (std::size_t k = 0; k < count; ++k) {
    const std::string slot = k < cmd.slots.size() ? cmd.slots[k] : "extra";
    c.args.push_back(slot == "name" ? d.pick<std::string>({"daxpy", "copy", "triad", "bogus"})
                                    : number_for(d, slot));
  }
  std::vector<OptionSpec> options;
  for (const OptionSpec& o : cmd.options) {
    if (o.name != "--test-crash" && (o.required ? !d.chance(0.05) : d.chance(0.3))) {
      options.push_back(o);
    }
  }
  if (d.chance(0.1)) {  // an option another subcommand takes
    const OptionSpec& borrowed = d.pick(d.pick(grammar).options);
    if (borrowed.name != "--test-crash") options.push_back(borrowed);
  }
  for (const OptionSpec& o : options) {
    c.args.push_back(o.name);
    if (!o.meta.empty()) c.args.push_back(value_for(d, o));
  }
  if (d.chance(0.6)) {
    c.json = d.chance(0.8) ? "cli.json" : "-";
    c.args.insert(c.args.end(), {"--json", c.json});
  }
  if (d.chance(0.04)) {  // an option missing its value
    const OptionSpec& o = d.pick(cmd.options.empty() ? grammar.front().options : cmd.options);
    if (!o.meta.empty()) c.args.push_back(o.name);
  }
  return c;
}

std::string label_of(const Case& c) {
  std::string label;
  for (const auto& a : c.args) label += "'" + a + "' ";
  return label;
}

/// Empty when `text` is a vpmem.cli/1 or vpmem.run_report/1 document,
/// otherwise what is wrong with it.
std::string envelope_problem(const std::string& text) {
  try {
    const Json doc = Json::parse(text);
    const std::string schema = doc.at("schema").as_string();
    if (schema == "vpmem.cli/1" || schema == "vpmem.run_report/1") return "";
    return "unexpected schema " + schema;
  } catch (const std::exception& e) {
    return std::string{"not a JSON document: "} + e.what();
  }
}

std::string usage_text() {
  TempDir dir{"argv_usage"};
  const CliRun run = run_cli_in(dir, {});
  EXPECT_EQ(run.exit_code, 2);
  return run.err;
}

TEST(CliArgv, UsageGrammarCoversEverySubcommand) {
  const std::vector<CommandSpec> grammar = grammar_from_usage(usage_text());
  std::vector<std::string> names;
  for (const auto& c : grammar) names.push_back(c.name);
  EXPECT_EQ(names, (std::vector<std::string>{"single", "pair", "render", "report", "triad",
                                             "idim", "diagnose", "kernel", "fuzz", "sweep",
                                             "faults", "trace"}));
  for (const auto& c : grammar) {
    if (c.name == "report") {
      EXPECT_EQ(c.counts, (std::vector<std::size_t>{3, 4, 6}));
      EXPECT_EQ(c.slots, (std::vector<std::string>{"m", "nc", "d1", "d2", "b1", "b2"}));
    }
    if (c.name == "sweep") {
      std::size_t required = 0;
      for (const auto& o : c.options) required += o.required ? 1 : 0;
      EXPECT_EQ(required, 2u);  // --d1 and --d2
    }
  }
}

TEST(CliArgv, OptionsASubcommandDoesNotReadExitTwoWithItsUsageLine) {
  TempDir dir{"argv_foreign"};
  const std::vector<std::vector<std::string>> cases{
      {"single", "16", "4", "1", "--jobs", "4"},
      {"single", "16", "4", "1", "--jobs", "4", "--d1", "zz", "foo"},
      {"triad", "1024", "2", "--sections", "3"},
      {"triad", "1024", "2", "--same-cpu", "--sections", "3"},
      {"trace", "12", "3", "1", "7", "--attribution"},
      {"idim", "16", "4", "1", "3", "10", "--cycles", "5"},
      {"pair", "12", "3", "1", "7", "--length", "4"},
  };
  for (const auto& args : cases) {
    std::vector<std::string> with_json = args;
    with_json.insert(with_json.end(), {"--json", "cli.json"});
    const CliRun run = run_cli_in(dir, with_json);
    std::string label;
    for (const auto& a : args) label += a + ' ';
    EXPECT_EQ(run.exit_code, 2) << label;
    EXPECT_NE(run.err.find("usage:\n  vpmem_cli " + args.front() + ' '), std::string::npos)
        << label << "\n" << run.err;
    EXPECT_FALSE(fs::exists(dir.file("cli.json"))) << label;
  }
}

/// What is wrong with the outcome of case `c`, or "" when it is clean.
std::string problem_of(const Case& c, const CliRun& run, const TempDir& dir) {
  if (run.exit_code < 0 || run.exit_code > 8) {
    return "undocumented exit " + std::to_string(run.exit_code);
  }
  if (run.err.find("Sanitizer") != std::string::npos ||
      run.err.find("runtime error") != std::string::npos) {
    return "sanitizer report";
  }
  if (run.exit_code == 2) {
    const std::string line = "vpmem_cli " + (c.command.empty() ? "" : c.command + ' ');
    return run.err.find("usage:\n  " + line) == std::string::npos ? "no usage line" : "";
  }
  if (c.json.empty()) return "";
  return envelope_problem(c.json == "-" ? run.out : slurp(dir.file(c.json)));
}

TEST(CliArgv, TwoThousandDrawnCommandLinesExitCleanly) {
  const std::vector<CommandSpec> grammar = grammar_from_usage(usage_text());
  ASSERT_EQ(grammar.size(), 12u);
  // Three invocations in flight at a time, each in its own directory.
  std::vector<std::unique_ptr<TempDir>> dirs;
  for (int k = 0; k < 3; ++k) {
    dirs.push_back(std::make_unique<TempDir>("argv_fuzz" + std::to_string(k)));
  }
  Draw draw{0x5eed0c11};
  int failures = 0;
  for (int drawn = 0; drawn < 2004 && failures < 10; drawn += 3) {
    std::vector<std::pair<Case, pid_t>> flight;
    for (const auto& dir : dirs) {
      Case c = draw_case(draw, grammar);
      for (const auto& entry : fs::directory_iterator{dir->path()}) fs::remove_all(entry.path());
      std::ofstream{dir->file("plan.json")}
          << R"({"schema": "vpmem.fault_plan/1", "policy": "stall", "events": [)"
             R"({"kind": "bank_offline", "cycle": 40, "bank": 3}]})";
      const pid_t pid = start_cli_in(*dir, c.args, /*timeout_seconds=*/20);
      flight.emplace_back(std::move(c), pid);
    }
    for (std::size_t k = 0; k < flight.size(); ++k) {
      const auto& [c, pid] = flight[k];
      const CliRun run = finish_cli(pid, *dirs[k]);
      if (const std::string problem = problem_of(c, run, *dirs[k]); !problem.empty()) {
        ++failures;
        ADD_FAILURE() << problem << "\n  args: " << label_of(c)
                      << "\n  stderr: " << run.err.substr(0, 400);
      }
    }
  }
  EXPECT_EQ(failures, 0);
}

}  // namespace
}  // namespace vpmem::cli_test
