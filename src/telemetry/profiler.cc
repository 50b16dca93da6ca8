#include "telemetry/profiler.h"

#include <chrono>

namespace floc::telemetry {

std::uint64_t clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Profiler::Section* Profiler::section(const std::string& name) {
  const auto it = index_.find(name);
  if (it != index_.end()) return sections_[it->second].get();
  auto s = std::make_unique<Section>();
  s->name = name;
  index_.emplace(name, sections_.size());
  sections_.push_back(std::move(s));
  return sections_.back().get();
}

}  // namespace floc::telemetry
