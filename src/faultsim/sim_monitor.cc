#include "faultsim/sim_monitor.h"

#include <utility>

#include "telemetry/flight_recorder.h"

namespace floc {

void SimMonitor::add_check(std::string name, Check fn) {
  checks_.push_back(Named{std::move(name), std::move(fn)});
}

void SimMonitor::watch_queue(std::string name, const QueueDisc* q) {
  add_check(std::move(name), [q](TimeSec now, std::string* detail) {
    return q->audit(now, detail);
  });
}

void SimMonitor::run_checks(TimeSec now) {
  for (const Named& c : checks_) {
    ++checks_run_;
    std::string detail;
    if (c.fn(now, &detail)) continue;
    violations_.push_back(Violation{now, c.name, detail});
    if (journal_ != nullptr) {
      journal_->record(now, telemetry::EventKind::kInvariantViolation, c.name,
                       detail);
    }
    if (recorder_ != nullptr) {
      telemetry::IncidentTrigger trig;
      trig.source = telemetry::IncidentTrigger::Source::kInvariant;
      trig.time = now;
      trig.name = c.name;
      trig.detail = detail;
      recorder_->capture(trig);
    }
    if (report_ != nullptr) {
      std::fprintf(report_, "[SimMonitor] t=%.6f invariant '%s' violated: %s\n",
                   now, c.name.c_str(), detail.c_str());
    }
  }
}

void SimMonitor::attach(Simulator* sim, TimeSec period, TimeSec until) {
  run_checks(sim->now());
  // Self-rescheduling tick; stops past `until` so the event queue drains.
  struct Tick {
    SimMonitor* mon;
    Simulator* sim;
    TimeSec period;
    TimeSec until;
    void operator()() const {
      mon->run_checks(sim->now());
      if (sim->now() + period <= until) {
        sim->schedule_in(period, Tick{mon, sim, period, until});
      }
    }
  };
  static_assert(Simulator::Callback::fits_inline<Tick>());
  sim->schedule_in(period, Tick{this, sim, period, until});
}

}  // namespace floc
