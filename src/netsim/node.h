// Nodes: routers forward by destination, hosts deliver to transport agents.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "netsim/packet.h"
#include "netsim/packet_fifo.h"

namespace floc {

class Network;
class Link;

// A transport endpoint attached to a host (TCP source, sink, CBR source...).
class Agent {
 public:
  virtual ~Agent() = default;
  virtual void on_packet(Packet&& p) = 0;
};

class Node {
 public:
  Node(Network* net, int id, std::string name)
      : net_(net), id_(id), name_(std::move(name)) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // Take ownership of an arriving packet's slot.
  virtual void receive(PacketRef p) = 0;

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  Network* network() const { return net_; }

 protected:
  Network* net_;

 private:
  int id_;
  std::string name_;
};

class Router : public Node {
 public:
  Router(Network* net, int id, std::string name, AsNumber as)
      : Node(net, id, std::move(name)), as_(as) {}

  // Forward the slot to the next hop's link (or release it, unroutable).
  void receive(PacketRef p) override;

  AsNumber as_number() const { return as_; }
  std::uint64_t unroutable() const { return unroutable_; }

 private:
  AsNumber as_;
  std::uint64_t unroutable_ = 0;
};

class Host : public Node {
 public:
  Host(Network* net, int id, std::string name, HostAddr addr, AsNumber as)
      : Node(net, id, std::move(name)), addr_(addr), as_(as) {}

  void receive(PacketRef p) override;

  // A host forwards received packets to the agent registered for the flow,
  // or to the default agent (servers accept flows they have not seen).
  void register_agent(FlowId flow, Agent* a) { agents_[flow] = a; }
  void set_default_agent(Agent* a) { default_agent_ = a; }

  HostAddr addr() const { return addr_; }
  AsNumber as_number() const { return as_; }
  std::uint64_t undeliverable() const { return undeliverable_; }

 private:
  HostAddr addr_;
  AsNumber as_;
  std::unordered_map<FlowId, Agent*> agents_;
  Agent* default_agent_ = nullptr;
  std::uint64_t undeliverable_ = 0;
};

}  // namespace floc
