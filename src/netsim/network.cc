#include "netsim/network.h"

#include <cassert>
#include <deque>

#include "netsim/drop_tail.h"

namespace floc {

Router* Network::add_router(const std::string& name, AsNumber as) {
  const int id = static_cast<int>(nodes_.size());
  auto r = std::make_unique<Router>(this, id, name, as);
  Router* out = r.get();
  nodes_.push_back(std::move(r));
  adjacency_.emplace_back();
  return out;
}

Host* Network::add_host(const std::string& name, AsNumber as) {
  const int id = static_cast<int>(nodes_.size());
  const auto addr = static_cast<HostAddr>(hosts_.size() + 1);
  auto h = std::make_unique<Host>(this, id, name, addr, as);
  Host* out = h.get();
  nodes_.push_back(std::move(h));
  adjacency_.emplace_back();
  hosts_.push_back(out);
  return out;
}

Network::Duplex Network::connect(Node* a, Node* b, BitsPerSec bandwidth,
                                 TimeSec delay, std::unique_ptr<QueueDisc> q_ab,
                                 std::unique_ptr<QueueDisc> q_ba) {
  if (!q_ab) q_ab = std::make_unique<DropTailQueue>(default_queue_packets_);
  if (!q_ba) q_ba = std::make_unique<DropTailQueue>(default_queue_packets_);
  auto lab = std::make_unique<Link>(sim_, b, bandwidth, delay, std::move(q_ab));
  auto lba = std::make_unique<Link>(sim_, a, bandwidth, delay, std::move(q_ba));
  Duplex d{lab.get(), lba.get()};
  adjacency_[static_cast<std::size_t>(a->id())].emplace_back(b->id(), d.ab);
  adjacency_[static_cast<std::size_t>(b->id())].emplace_back(a->id(), d.ba);
  links_.push_back(std::move(lab));
  links_.push_back(std::move(lba));
  return d;
}

void Network::build_routes() {
  const std::size_t n = nodes_.size();
  routes_.assign(hosts_.size() * n, nullptr);
  route_stride_ = n;

  // BFS outward from each destination host; an edge u->v discovered while
  // expanding v means u reaches dst via its link to v.
  std::vector<int> dist(n);
  std::deque<int> frontier;
  for (std::size_t h = 0; h < hosts_.size(); ++h) {
    Link** table = routes_.data() + h * n;
    std::fill(dist.begin(), dist.end(), -1);
    frontier.clear();
    const int root = hosts_[h]->id();
    dist[static_cast<std::size_t>(root)] = 0;
    frontier.push_back(root);
    while (!frontier.empty()) {
      const int v = frontier.front();
      frontier.pop_front();
      for (const auto& [u, link_uv] : adjacency_[static_cast<std::size_t>(v)]) {
        // adjacency_[v] holds links *out of* v; we need links into v, i.e.
        // from the neighbor u pointing at v. Find u's link to v below.
        (void)link_uv;
        if (dist[static_cast<std::size_t>(u)] != -1) continue;
        dist[static_cast<std::size_t>(u)] = dist[static_cast<std::size_t>(v)] + 1;
        for (const auto& [w, link_uw] : adjacency_[static_cast<std::size_t>(u)]) {
          if (w == v) {
            table[static_cast<std::size_t>(u)] = link_uw;
            break;
          }
        }
        frontier.push_back(u);
      }
    }
  }
}

Link* Network::next_hop(int node_id, HostAddr dst) const {
  // dst 0 wraps to a huge index, so one check rejects it and any address
  // past the last host.
  const std::size_t i = (static_cast<std::size_t>(dst) - 1) * route_stride_ +
                        static_cast<std::size_t>(node_id);
  return i < routes_.size() ? routes_[i] : nullptr;
}

Host* Network::host_by_addr(HostAddr a) const {
  const std::size_t h = static_cast<std::size_t>(a) - 1;
  return h < hosts_.size() ? hosts_[h] : nullptr;
}

}  // namespace floc
