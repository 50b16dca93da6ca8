#include "netsim/node.h"

#include "netsim/link.h"
#include "netsim/network.h"

namespace floc {

void Router::receive(PacketRef p) {
  Link* next = net_->next_hop(id(), p->dst);
  if (next == nullptr) {
    ++unroutable_;
    return;
  }
  next->send(std::move(p));
}

void Host::receive(PacketRef p) {
  auto it = agents_.find(p->flow);
  Agent* a = (it != agents_.end()) ? it->second : default_agent_;
  if (a == nullptr) {
    ++undeliverable_;
    return;
  }
  // The agent consumes the packet in its slot; the slot returns to the slab
  // when `p` dies on return.
  a->on_packet(std::move(*p));
}

}  // namespace floc
