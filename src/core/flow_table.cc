#include "core/flow_table.h"

namespace floc {

FlowRecord& OriginPathState::touch_flow(std::uint64_t acct_key, TimeSec now,
                                        const StateBudgetConfig* budget,
                                        std::uint64_t decay_salt,
                                        std::uint64_t* evicted,
                                        EvictScratch* scratch) {
  auto it = flows_.find(acct_key);
  if (it == flows_.end()) {
    if (budget != nullptr && budget->enabled()) {
      EvictScratch local;
      const std::size_t n = enforce_budget(
          flows_, *budget, decay_salt, scratch != nullptr ? *scratch : local,
          [](std::uint64_t, const FlowRecord& fr) {
            // kLowestOffenseFirst keeps flows with drop (MTD) history: an
            // attacker churning accounting keys cannot push its own
            // offending records out through innocents.
            return EvictRank{static_cast<double>(fr.total_drops),
                             fr.touch_stamp};
          },
          [](std::uint64_t, const FlowRecord&) {});
      if (evicted != nullptr) *evicted += n;
    }
    it = flows_.try_emplace(acct_key).first;
    it->second.first_seen = now;
  }
  it->second.last_seen = now;
  it->second.touch_stamp = ++touch_counter_;
  return it->second;
}

FlowRecord* OriginPathState::find_flow(std::uint64_t acct_key) {
  auto it = flows_.find(acct_key);
  return it == flows_.end() ? nullptr : &it->second;
}

std::size_t OriginPathState::expire_flows(TimeSec now, TimeSec timeout) {
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (it->second.last_seen < now - timeout) {
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }
  return flows_.size();
}

}  // namespace floc
