#include "core/traffic_tree.h"

#include <cassert>

namespace floc {

TrafficTree::TrafficTree(const std::vector<PathSnapshot>& paths)
    : paths_(paths) {
  nodes_.push_back(Node{});  // root: empty prefix (the router's own domain)
  for (std::size_t pi = 0; pi < paths_.size(); ++pi) {
    const PathId& p = paths_[pi].path;
    int cur = 0;
    for (int h = 0; h < p.length(); ++h) {
      const AsNumber as = p.at(h);
      int next = child_with_as(cur, as);
      if (next < 0) {
        next = static_cast<int>(nodes_.size());
        Node n;
        n.prefix = nodes_[static_cast<std::size_t>(cur)].prefix;
        n.prefix.push_origin(as);
        n.parent = cur;
        nodes_.push_back(std::move(n));
        nodes_[static_cast<std::size_t>(cur)].children.push_back(next);
      }
      cur = next;
    }
    assert(nodes_[static_cast<std::size_t>(cur)].leaf_index < 0 &&
           "duplicate path in snapshot");
    nodes_[static_cast<std::size_t>(cur)].leaf_index = static_cast<int>(pi);
    // Accumulate along the ancestor chain.
    for (int a = cur; a != -1; a = nodes_[static_cast<std::size_t>(a)].parent) {
      Node& n = nodes_[static_cast<std::size_t>(a)];
      n.leaf_count += 1;
      n.conf_sum += paths_[pi].conformance;
      n.flow_sum += paths_[pi].flows;
      n.conf_flow_sum += paths_[pi].conformance * paths_[pi].flows;
    }
  }
}

int TrafficTree::child_with_as(int node, AsNumber as) const {
  for (int c : nodes_[static_cast<std::size_t>(node)].children) {
    const PathId& pfx = nodes_[static_cast<std::size_t>(c)].prefix;
    if (pfx.at(pfx.length() - 1) == as) return c;
  }
  return -1;
}

double TrafficTree::mean_conformance(int i) const {
  const Node& n = nodes_[static_cast<std::size_t>(i)];
  return n.leaf_count ? n.conf_sum / n.leaf_count : 1.0;
}

double TrafficTree::legit_aggregation_cost(int i) const {
  const Node& n = nodes_[static_cast<std::size_t>(i)];
  if (n.leaf_count == 0 || n.flow_sum <= 0.0) return 0.0;
  const double mean = n.conf_sum / n.leaf_count;
  const double weighted = n.conf_flow_sum / n.flow_sum;
  return mean - weighted;
}

int TrafficTree::reduction(int i) const {
  const Node& n = nodes_[static_cast<std::size_t>(i)];
  return n.leaf_count > 0 ? n.leaf_count - 1 : 0;
}

bool TrafficTree::is_ancestor(int a, int b) const {
  for (int cur = b; cur != -1; cur = nodes_[static_cast<std::size_t>(cur)].parent) {
    if (cur == a) return true;
  }
  return false;
}

std::vector<int> TrafficTree::internal_nodes(bool include_root) const {
  std::vector<int> out;
  for (int i = include_root ? 0 : 1; i < node_count(); ++i) {
    const Node& n = nodes_[static_cast<std::size_t>(i)];
    if (n.leaf_count >= 2) out.push_back(i);
  }
  return out;
}

std::vector<int> TrafficTree::paths_under(int i) const {
  std::vector<int> out;
  std::vector<int> stack{i};
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    const Node& n = nodes_[static_cast<std::size_t>(v)];
    if (n.leaf_index >= 0) out.push_back(n.leaf_index);
    for (int c : n.children) stack.push_back(c);
  }
  return out;
}

}  // namespace floc
