// Figures as data: every figure and ablation of the evaluation is a Figure
// record that floc_figures runs through one harness. A record declares its
// table columns and a case list; the runner owns everything else once — the
// header, the parallel sweep, table printing, the run manifest and
// --metrics-out. World builders (scenario configs, telemetry attachments,
// bespoke CSVs and journals) stay in the figure's own case functions.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/bench_common.h"

namespace floc::bench {

struct Column {
  const char* name;
  // printf format for one double, e.g. "%8.3f". nullptr keeps the column in
  // the rows (a summary reads it) but out of the printed table.
  const char* format;
};

// One table row: numbers named by the figure's columns, in column order. A
// NaN prints as "-" (no value, e.g. an attack that was never detected).
struct Row {
  std::string label;
  std::vector<double> values;
  // Rows of one group print under a "--- group ---" sub-header (a scheme,
  // a topology, an attack strategy); empty means ungrouped.
  std::string group{};
  // Set by the runner before the summary sees the rows.
  const std::vector<Column>* columns = nullptr;

  double operator[](std::string_view column) const;
};

struct CaseOutput {
  std::vector<Row> rows;
  std::vector<std::string> artifacts{};  // files the case wrote, in order
  // Final values of the case's metric registry, written by the runner as
  // "<metrics_stem>.metrics.{csv,json}" under --metrics-out.
  std::string metrics_stem{};
  MetricSnapshot metrics{};
};

// One independent world of the sweep. `run` executes on a pool thread: it
// must own everything it mutates and print nothing.
struct Case {
  std::string label;   // manifest run label
  std::uint64_t seed;  // the run's derived seed, as recorded in the manifest
  std::function<CaseOutput()> run;
};

struct Figure {
  const char* name;   // CLI name and artifact/manifest stem
  const char* title;
  const char* paper;  // the paper's expectation, printed under the title
  const char* label_header;
  std::vector<Column> columns;
  std::function<std::vector<Case>(const BenchArgs&)> cases;
  const char* footer = nullptr;  // printed after the table
  // Optional: prints computed footer lines, may write summary artifacts,
  // and returns the exit status (nonzero when a scorecard check fails).
  std::function<int(const std::vector<Row>&, std::vector<std::string>*)>
      summary{};
  // Optional extra manifest config entries.
  std::function<std::vector<std::pair<std::string, double>>(const BenchArgs&)>
      notes{};
};

// Runs one figure end to end; returns its exit status.
int run_figure(const Figure& fig, const BenchArgs& a);

// Section VI: the Fig. 5 packet-level tree.
Figure fig02();
Figure fig03();
Figure fig04();
Figure fig06();
Figure fig07();
Figure fig08();
Figure fig09();
Figure fig10();
// Section VII: the Internet-scale tick model.
Figure fig11_12();
Figure fig13();
Figure fig14();
Figure fig15();
Figure ablation_inet();
// Ablations and scorecards.
Figure ablation_floc();
Figure ablation_timed_attacks();
Figure ablation_churn();
Figure ablation_adaptive();
Figure ablation_state_exhaust();

}  // namespace floc::bench
