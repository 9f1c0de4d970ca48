#pragma once

#include <vector>

#include "routing/lsdb.hpp"

namespace f2t::routing {

/// True when `to` is reachable from `from` over the LSDB graph's two-way
/// edges (breadth-first search; a router always reaches itself).
inline bool lsdb_reachable(const Lsdb& lsdb, net::Ipv4Addr from,
                           net::Ipv4Addr to) {
  if (from == to) return true;
  const LinkStateGraph& g = lsdb.graph();
  const RouterIndex src = g.index_of(from);
  const RouterIndex dst = g.index_of(to);
  if (src == kNoRouter || dst == kNoRouter) return false;
  std::vector<bool> seen(g.node_count(), false);
  std::vector<RouterIndex> frontier{src};
  seen[src] = true;
  for (std::size_t next = 0; next < frontier.size(); ++next) {
    if (frontier[next] == dst) return true;
    for (const DenseEdge& e : g.edges(frontier[next])) {
      if (e.two_way && !seen[e.to]) {
        seen[e.to] = true;
        frontier.push_back(e.to);
      }
    }
  }
  return false;
}

}  // namespace f2t::routing
