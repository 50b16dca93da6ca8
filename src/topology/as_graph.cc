#include "topology/as_graph.h"

#include <cassert>

namespace floc {

int AsGraph::add_as(AsNumber asn, int parent, double population) {
  const int id = static_cast<int>(nodes_.size());
  AsNode n;
  n.asn = asn;
  n.parent = parent;
  n.population = population;
  if (parent >= 0) {
    assert(parent < id);
    n.depth = nodes_[static_cast<std::size_t>(parent)].depth + 1;
    nodes_[static_cast<std::size_t>(parent)].children.push_back(id);
  }
  nodes_.push_back(std::move(n));
  return id;
}

PathId AsGraph::path_of(int i) const {
  // Collect ancestors root-side first.
  std::vector<AsNumber> rev;
  for (int cur = i; cur != root() && cur != -1;
       cur = nodes_[static_cast<std::size_t>(cur)].parent) {
    rev.push_back(nodes_[static_cast<std::size_t>(cur)].asn);
  }
  PathId p;
  const int n = std::min<int>(static_cast<int>(rev.size()), PathId::kMaxHops);
  // rev is origin-side first; reverse to nearest-to-root first, and if the
  // chain is deeper than kMaxHops keep the root-side hops (coarser locales).
  for (int k = static_cast<int>(rev.size()) - 1;
       k >= static_cast<int>(rev.size()) - n; --k) {
    p.push_origin(rev[static_cast<std::size_t>(k)]);
  }
  return p;
}

std::vector<int> AsGraph::chain_to_root(int i) const {
  std::vector<int> out;
  for (int cur = i; cur != -1; cur = nodes_[static_cast<std::size_t>(cur)].parent) {
    out.push_back(cur);
    if (cur == root()) break;
  }
  return out;
}

int AsGraph::max_depth() const {
  int d = 0;
  for (const auto& n : nodes_) d = std::max(d, n.depth);
  return d;
}

double AsGraph::mean_depth() const {
  if (nodes_.empty()) return 0.0;
  double s = 0.0;
  for (const auto& n : nodes_) s += n.depth;
  return s / static_cast<double>(nodes_.size());
}

}  // namespace floc
