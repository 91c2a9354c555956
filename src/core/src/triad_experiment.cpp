#include "vpmem/core/triad_experiment.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <thread>

#include "vpmem/exec/pool.hpp"

namespace vpmem::core {

namespace {

TriadRow triad_row(const TriadExperiment& experiment, i64 inc) {
  xmp::TriadSetup setup = experiment.setup;
  setup.inc = inc;
  const xmp::TriadResult contended =
      xmp::run_triad(experiment.machine, setup, /*other_cpu_active=*/true);
  const xmp::TriadResult dedicated =
      xmp::run_triad(experiment.machine, setup, /*other_cpu_active=*/false);
  TriadRow row;
  row.inc = inc;
  row.cycles_contended = contended.cycles;
  row.cycles_dedicated = dedicated.cycles;
  row.conflicts_contended = contended.conflicts;
  row.conflicts_dedicated = dedicated.conflicts;
  row.background_goodput = contended.background_goodput();
  return row;
}

}  // namespace

std::vector<TriadRow> run_triad_experiment(const TriadExperiment& experiment,
                                           std::size_t workers,
                                           obs::SweepTelemetry* telemetry) {
  if (experiment.inc_min < 1 || experiment.inc_max < experiment.inc_min) {
    throw std::invalid_argument{"run_triad_experiment: bad INC range"};
  }
  const auto count = static_cast<std::size_t>(experiment.inc_max - experiment.inc_min + 1);
  const std::size_t hw = std::max(1U, std::thread::hardware_concurrency());
  const auto jobs = static_cast<int>(workers == 0 ? hw : std::min(workers, hw));
  std::vector<TriadRow> rows(count);
  // parallel_for must not see an exception; keep each row's and rethrow
  // the first (in INC order) on the caller.
  std::vector<std::exception_ptr> errors(count);
  exec::parallel_for(static_cast<i64>(count), jobs, [&](i64 index, int /*worker*/) {
    const auto i = static_cast<std::size_t>(index);
    try {
      const obs::Stopwatch watch;
      rows[i] = triad_row(experiment, experiment.inc_min + index);
      if (telemetry != nullptr) {
        telemetry->record_point(watch.seconds(),
                                rows[i].cycles_contended + rows[i].cycles_dedicated);
      }
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return rows;
}

Table triad_table(const std::vector<TriadRow>& rows) {
  Table table{{"INC", "cycles(a)", "cycles(b)", "bank(c)", "section(d)", "simult(e)",
               "slowdown", "otherCPU b_eff"},
              "Fig. 10 — triad A(I)=B(I)+C(I)*D(I), n=1024, Cray X-MP model "
              "(a: other CPU active, b: dedicated; c-e: conflicts of the contended run)"};
  for (const auto& r : rows) {
    table.add_row({cell(static_cast<long long>(r.inc)),
                   cell(static_cast<long long>(r.cycles_contended)),
                   cell(static_cast<long long>(r.cycles_dedicated)),
                   cell(static_cast<long long>(r.conflicts_contended.bank)),
                   cell(static_cast<long long>(r.conflicts_contended.section)),
                   cell(static_cast<long long>(r.conflicts_contended.simultaneous)),
                   cell(r.interference_factor(), 3), cell(r.background_goodput, 3)});
  }
  return table;
}

}  // namespace vpmem::core
