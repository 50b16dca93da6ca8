// floc_figures: every figure and ablation of the evaluation, as records run
// by one harness (bench/figure.h).
//
//   floc_figures NAME [--paper|--quick] [--scale F] [--seed N] [--jobs N]
//                     [--metrics-out csv|json|none]
//
// Prints the figure's table and writes its artifacts plus
// "<NAME>.manifest.json" into the working directory. Stdout and every
// artifact except the manifest are byte-identical at any --jobs value.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/figure.h"

namespace floc::bench {

double Row::operator[](std::string_view column) const {
  if (columns != nullptr) {
    for (std::size_t i = 0; i < columns->size() && i < values.size(); ++i) {
      if ((*columns)[i].name == column) return values[i];
    }
  }
  std::fprintf(stderr, "row '%s' has no column '%.*s'\n", label.c_str(),
               static_cast<int>(column.size()), column.data());
  std::abort();
}

namespace {

// A cell as printed: the column's format, or "-" for a missing value.
std::string cell(const Column& c, double v) {
  if (std::isnan(v)) return "-";
  char buf[64];
  std::snprintf(buf, sizeof(buf), c.format, v);
  return buf;
}

std::size_t column_width(const Column& c) {
  return std::max(std::strlen(c.name), cell(c, 0.0).size());
}

void print_table(const Figure& fig, const std::vector<Row>& rows) {
  std::size_t label_width = std::strlen(fig.label_header);
  for (const Row& r : rows) label_width = std::max(label_width, r.label.size());
  const auto label_w = static_cast<int>(label_width);

  std::printf("%-*s", label_w, fig.label_header);
  for (const Column& c : fig.columns) {
    if (c.format == nullptr) continue;
    std::printf(" %*s", static_cast<int>(column_width(c)), c.name);
  }
  std::printf("\n");
  const std::string* group = nullptr;
  for (const Row& r : rows) {
    if (!r.group.empty() && (group == nullptr || *group != r.group)) {
      if (group != nullptr) std::printf("\n");
      std::printf("--- %s ---\n", r.group.c_str());
      group = &r.group;
    }
    std::printf("%-*s", label_w, r.label.c_str());
    for (std::size_t i = 0; i < fig.columns.size(); ++i) {
      const Column& c = fig.columns[i];
      if (c.format == nullptr) continue;
      std::printf(" %*s", static_cast<int>(column_width(c)),
                  cell(c, r.values[i]).c_str());
    }
    std::printf("\n");
  }
}

}  // namespace

int run_figure(const Figure& fig, const BenchArgs& a) {
  std::printf("==== %s ====\n", fig.title);
  std::printf("paper: %s\n", fig.paper);
  std::printf("run:   scale=%.2f duration=%.0fs (measured from %.0fs)%s\n\n",
              a.scale, a.duration, a.measure_start,
              a.paper ? " [PAPER SCALE]" : "");
  RunManifest manifest(fig.name, a);
  if (fig.notes) {
    for (const auto& [key, value] : fig.notes(a)) manifest.note(key, value);
  }

  const std::vector<Case> cases = fig.cases(a);
  struct Timed {
    CaseOutput out;
    double wall_seconds = 0.0;
  };
  auto results = runner::run_indexed<Timed>(
      a.jobs, cases.size(), [&cases](std::size_t i) {
        Timed t;
        t.wall_seconds =
            runner::timed_seconds([&] { t.out = cases[i].run(); });
        return t;
      });

  // Merge in submission order: manifest runs and artifacts, then rows.
  std::vector<Row> rows;
  for (std::size_t i = 0; i < results.size(); ++i) {
    CaseOutput& out = results[i].out;
    manifest.add_run(cases[i].label, cases[i].seed, results[i].wall_seconds);
    for (const auto& path : out.artifacts) manifest.add_artifact(path);
    if (!out.metrics_stem.empty()) {
      const std::string path = save_metrics(out.metrics, a, out.metrics_stem);
      if (!path.empty()) manifest.add_artifact(path);
    }
    for (Row& r : out.rows) {
      if (r.values.size() != fig.columns.size()) {
        std::fprintf(stderr, "%s: row '%s' has %zu values for %zu columns\n",
                     fig.name, r.label.c_str(), r.values.size(),
                     fig.columns.size());
        std::abort();
      }
      r.columns = &fig.columns;
      rows.push_back(std::move(r));
    }
  }

  print_table(fig, rows);
  if (fig.footer != nullptr) std::printf("\n%s\n", fig.footer);
  int status = 0;
  if (fig.summary) {
    std::vector<std::string> artifacts;
    status = fig.summary(rows, &artifacts);
    for (const auto& path : artifacts) manifest.add_artifact(path);
  }
  manifest.write();
  return status;
}

}  // namespace floc::bench

int main(int argc, char** argv) {
  using namespace floc::bench;
  // The one list of figures, in paper order.
  const Figure figures[] = {
      fig02(),         fig03(),         fig04(),
      fig06(),         fig07(),         fig08(),
      fig09(),         fig10(),         fig11_12(),
      fig13(),         fig14(),         fig15(),
      ablation_floc(), ablation_timed_attacks(),
      ablation_inet(), ablation_churn(), ablation_adaptive(),
      ablation_state_exhaust(),
  };
  const Figure* fig = nullptr;
  for (const Figure& f : figures) {
    if (argc > 1 && std::strcmp(argv[1], f.name) == 0) fig = &f;
  }
  if (fig == nullptr) {
    std::fprintf(stderr,
                 "usage: %s NAME [--paper|--quick] [--scale F] [--seed N] "
                 "[--jobs N] [--metrics-out csv|json|none]\nfigures:\n",
                 argv[0]);
    for (const Figure& f : figures) {
      std::fprintf(stderr, "  %-24s %s\n", f.name, f.title);
    }
    return 2;
  }
  // Flags follow the name; "floc_figures NAME" is the program name that
  // BenchArgs' usage line shows.
  std::string program = std::string(argv[0]) + " " + argv[1];
  argv[1] = program.data();
  return run_figure(*fig, BenchArgs::parse(argc - 1, argv + 1));
}
