// Network container: owns nodes and links, computes static shortest-path
// routes (BFS per destination host).
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "netsim/link.h"
#include "netsim/node.h"
#include "netsim/simulator.h"

namespace floc {

class Network {
 public:
  explicit Network(Simulator* sim) : sim_(sim) {}

  Router* add_router(const std::string& name, AsNumber as);
  Host* add_host(const std::string& name, AsNumber as);

  // Create a duplex connection a<->b. Each direction gets its own Link; the
  // supplied queues default to drop-tail with `default_queue_packets`.
  struct Duplex {
    Link* ab;
    Link* ba;
  };
  Duplex connect(Node* a, Node* b, BitsPerSec bandwidth, TimeSec delay,
                 std::unique_ptr<QueueDisc> q_ab = nullptr,
                 std::unique_ptr<QueueDisc> q_ba = nullptr);

  // Recompute routing tables; must be called after topology changes and
  // before traffic starts.
  void build_routes();

  // Next link out of node `node_id` toward host `dst`, or nullptr.
  Link* next_hop(int node_id, HostAddr dst) const;

  Simulator* sim() const { return sim_; }
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t host_count() const { return hosts_.size(); }
  Host* host_by_addr(HostAddr a) const;

  void set_default_queue_packets(std::size_t n) { default_queue_packets_ = n; }

 private:
  Simulator* sim_;
  std::size_t default_queue_packets_ = 100;

  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<Host*> hosts_;  // indexed by HostAddr - 1

  // adjacency_[node] = {(neighbor node id, link from node to neighbor)}
  std::vector<std::vector<std::pair<int, Link*>>> adjacency_;

  // routes_[(dst_addr - 1) * route_stride_ + node_id] = next link from node
  // toward dst: one flat table, so a lookup is one bounds check and one load.
  // The stride is the node count when the routes were built.
  std::vector<Link*> routes_;
  std::size_t route_stride_ = 0;
};

}  // namespace floc
