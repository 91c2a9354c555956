// The full X-MP kernel grid pinned in ctest: every kernel x INC 1..16 x
// other CPU off/on x n in {1024, 4096}, plus every kernel x INC
// multitasked over both CPUs (n = 1024), plus a few kernel shapes outside
// the catalog.  Each run's cycles, per-kind
// conflicts and a digest of every port's PortStats must match
// golden/kernel_grid.txt, so any engine or KernelDriver change that
// alters a simulated X-MP output fails here.
//
// To regenerate after an intended output change:
//   VPMEM_UPDATE_GOLDEN=1 ./xmp_kernel_grid_test
// and say in the change why the numbers moved.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "vpmem/util/hash.hpp"
#include "vpmem/xmp/kernels.hpp"

namespace vpmem::xmp {
namespace {

void append_stats(std::ostringstream& os, const std::vector<sim::PortStats>& ports) {
  for (const sim::PortStats& p : ports) {
    os << p.grants << ',' << p.bank_conflicts << ',' << p.simultaneous_conflicts << ','
       << p.section_conflicts << ',' << p.fault_conflicts << ',' << p.first_grant_cycle << ','
       << p.last_grant_cycle << ',' << p.longest_stall << ',' << p.current_stall << ';';
  }
  os << '|';
}

std::string line_of(const std::string& kernel, i64 inc, bool other, i64 n, bool multitask,
                    i64 cycles, const sim::ConflictTotals& c,
                    const std::vector<const std::vector<sim::PortStats>*>& groups) {
  std::ostringstream stats;
  std::size_t ports = 0;
  for (const auto* group : groups) {
    append_stats(stats, *group);
    ports += group->size();
  }
  std::ostringstream os;
  os << kernel << " inc=" << inc << " other=" << (other ? 1 : 0) << " n=" << n
     << " multitask=" << (multitask ? 1 : 0) << " cycles=" << cycles << " bank=" << c.bank
     << " simultaneous=" << c.simultaneous << " section=" << c.section << " fault=" << c.fault
     << " ports=" << ports << " stats=" << hex64(fnv1a64(stats.str()));
  return os.str();
}

std::vector<std::string> grid_lines() {
  const XmpConfig config;
  std::vector<std::string> lines;
  for (const KernelSpec& spec : all_kernels()) {
    for (i64 inc = 1; inc <= 16; ++inc) {
      for (const bool other : {false, true}) {
        for (const i64 n : {i64{1024}, i64{4096}}) {
          TriadSetup setup;
          setup.n = n;
          setup.inc = inc;
          const TriadResult r = run_kernel(config, spec, setup, other);
          lines.push_back(line_of(spec.name, inc, other, n, false, r.cycles, r.conflicts,
                                  {&r.triad_ports, &r.background_ports}));
        }
      }
    }
    for (i64 inc = 1; inc <= 16; ++inc) {
      TriadSetup setup;
      setup.n = 1024;
      setup.inc = inc;
      const MultitaskResult r = run_kernel_multitasked(config, spec, setup);
      lines.push_back(line_of(spec.name, inc, false, setup.n, true, r.cycles, r.conflicts,
                              {&r.cpu0_ports, &r.cpu1_ports}));
    }
  }
  // Shapes outside the catalog: a load port serving a gathered operand
  // and a later plain one, many loads without a store, a store-only
  // kernel, a wide scatter; n = 1000 leaves a short last strip.
  const std::vector<KernelSpec> shapes{
      {.name = "gather4", .loads = 4, .store = true, .gather = true},
      {.name = "load5", .loads = 5, .store = false},
      {.name = "fill", .loads = 0, .store = true},
      {.name = "scatter3", .loads = 3, .store = true, .scatter = true},
  };
  for (const KernelSpec& spec : shapes) {
    for (i64 inc = 1; inc <= 4; ++inc) {
      for (const bool other : {false, true}) {
        TriadSetup setup;
        setup.n = 1000;
        setup.inc = inc;
        const TriadResult r = run_kernel(config, spec, setup, other);
        lines.push_back(line_of(spec.name, inc, other, setup.n, false, r.cycles, r.conflicts,
                                {&r.triad_ports, &r.background_ports}));
      }
    }
  }
  return lines;
}

TEST(KernelGrid, MatchesGoldenFixture) {
  const std::vector<std::string> got = grid_lines();
  ASSERT_EQ(got.size(), 7u * (16 * 2 * 2 + 16) + 4 * 4 * 2);
  if (const char* update = std::getenv("VPMEM_UPDATE_GOLDEN"); update != nullptr) {
    std::ofstream out{VPMEM_KERNEL_GRID_GOLDEN};
    ASSERT_TRUE(out.is_open()) << VPMEM_KERNEL_GRID_GOLDEN;
    out << "# xmp kernel grid: see tests/xmp/kernel_grid_test.cpp\n";
    for (const std::string& line : got) out << line << '\n';
    FAIL() << "golden fixture rewritten; rerun without VPMEM_UPDATE_GOLDEN to check it";
  }
  std::ifstream in{VPMEM_KERNEL_GRID_GOLDEN};
  ASSERT_TRUE(in.is_open()) << VPMEM_KERNEL_GRID_GOLDEN;
  std::vector<std::string> want;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line.front() != '#') want.push_back(line);
  }
  ASSERT_EQ(want.size(), got.size());
  int reported = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i] && reported++ < 10) {
      ADD_FAILURE() << "want " << want[i] << "\n got  " << got[i];
    }
  }
  EXPECT_EQ(reported, 0) << "kernel runs differ from the golden fixture";
}

}  // namespace
}  // namespace vpmem::xmp
