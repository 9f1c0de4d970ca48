#include "routing/spf.hpp"

#include <algorithm>
#include <stdexcept>

#include "routing/smallvec.hpp"

namespace f2t::routing {

namespace {

using FirstHopSet = SpfArrays::FirstHopSet;

void insert_first_hop(FirstHopSet& set, std::uint16_t index) {
  const auto it = std::lower_bound(set.begin(), set.end(), index);
  if (it != set.end() && *it == index) return;
  const auto pos = static_cast<std::size_t>(it - set.begin());
  set.push_back(index);
  std::rotate(set.begin() + pos, set.end() - 1, set.end());
}

/// Returns true when `into` gained at least one element.
bool union_first_hops(FirstHopSet& into, const FirstHopSet& from) {
  const std::size_t before = into.size();
  for (const std::uint16_t index : from) insert_first_hop(into, index);
  return into.size() != before;
}

/// The computing router's own attachment points, pre-sorted: neighbor
/// addresses ascending with the local ports reaching each one. First-hop
/// sets store indices into `neighbors`, so emission order matches the
/// former std::set<Ipv4Addr> iteration exactly.
struct SelfView {
  std::vector<net::Ipv4Addr> neighbors;
  std::vector<SmallVec<net::PortId, 4>> ports;  // parallel to neighbors

  int index_of(net::Ipv4Addr addr) const {
    const auto it = std::lower_bound(neighbors.begin(), neighbors.end(), addr);
    if (it == neighbors.end() || *it != addr) return -1;
    return static_cast<int>(it - neighbors.begin());
  }
};

SelfView build_self_view(const std::vector<LocalAdjacency>& adjacency) {
  SelfView view;
  view.neighbors.reserve(adjacency.size());
  for (const LocalAdjacency& adj : adjacency) {
    view.neighbors.push_back(adj.neighbor);
  }
  std::sort(view.neighbors.begin(), view.neighbors.end());
  view.neighbors.erase(
      std::unique(view.neighbors.begin(), view.neighbors.end()),
      view.neighbors.end());
  view.ports.resize(view.neighbors.size());
  // Parallel links to the same neighbor keep their adjacency (port-id)
  // order, matching the former ports_of map construction.
  for (const LocalAdjacency& adj : adjacency) {
    view.ports[static_cast<std::size_t>(view.index_of(adj.neighbor))]
        .push_back(adj.port);
  }
  return view;
}

void heap_push(SpfArrays& a, int dist, std::uint32_t addr, RouterIndex node) {
  a.heap.push_back(SpfArrays::HeapItem{dist, addr, node});
  std::push_heap(a.heap.begin(), a.heap.end());
}

SpfArrays::HeapItem heap_pop(SpfArrays& a) {
  std::pop_heap(a.heap.begin(), a.heap.end());
  const SpfArrays::HeapItem item = a.heap.back();
  a.heap.pop_back();
  return item;
}

/// Full Dijkstra from `self` into `a` (starts a fresh epoch). Edge rules
/// mirror OSPF: from `self`, trust only live local adjacencies (the
/// SelfView gate) with costs from self's own LSA; from anyone else,
/// require the precomputed two-way flag. Kept out of line, as is
/// `emit_routes`: GCC 12 inlines both into their one caller,
/// `SpfSolver::run`, and that made a k=24 OSPF converge 5-8% slower
/// (Release, 4-thread Xeon).
[[gnu::noinline]] void dijkstra_full(const LinkStateGraph& g,
                                     RouterIndex self, const SelfView& view,
                                     SpfArrays& a) {
  a.begin(g.node_count());
  a.touch(self);
  a.dist[self] = 0;
  heap_push(a, 0, g.router_of(self).value(), self);
  while (!a.heap.empty()) {
    const SpfArrays::HeapItem item = heap_pop(a);
    const RouterIndex u = item.node;
    if (a.is_settled(u)) continue;
    a.settle(u);
    const int du = a.dist[u];
    for (const DenseEdge& e : g.edges(u)) {
      const RouterIndex v = e.to;
      int hop_index = -1;
      if (u == self) {
        hop_index = view.index_of(g.router_of(v));
        if (hop_index < 0) continue;
      } else if (!e.two_way) {
        continue;
      }
      const int nd = du + e.cost;
      FirstHopSet& hv = a.touch(v);
      // Push only on a strict improvement: a tie would push a duplicate
      // (dist, addr) key, so settle order is the same without it.
      if (nd < a.dist[v]) {
        a.dist[v] = nd;
        hv.clear();
        heap_push(a, nd, g.router_of(v).value(), v);
      }
      if (nd == a.dist[v]) {
        if (u == self) {
          insert_first_hop(hv, static_cast<std::uint16_t>(hop_index));
        } else {
          union_first_hops(hv, a.hops[u]);
        }
      }
    }
  }
}

/// Emits routes from the tree in `a`: one route per (reachable
/// destination, redistributed prefix), with the first-hop indices mapped
/// back to local ports. Always a full O(nodes) pass — which is what lets
/// prefix-only LSA churn reuse the cached tree untouched.
[[gnu::noinline]] std::vector<Route> emit_routes(
    const LinkStateGraph& g, RouterIndex self, const SelfView& view,
    const SpfArrays& a) {
  std::vector<Route> routes;
  const std::size_t n = g.node_count();
  for (RouterIndex i = 0; i < n; ++i) {
    if (i == self || !a.reached(i)) continue;
    const FirstHopSet& hv = a.hops[i];
    if (hv.empty()) continue;
    const Lsa* lsa = g.lsa_of(i);
    if (lsa == nullptr || lsa->prefixes.empty()) continue;
    std::vector<NextHop> next_hops;
    for (const std::uint16_t hop_index : hv) {
      const net::Ipv4Addr hop = view.neighbors[hop_index];
      for (const net::PortId port : view.ports[hop_index]) {
        next_hops.push_back(NextHop{port, hop});
      }
    }
    if (next_hops.empty()) continue;
    for (const net::Prefix& prefix : lsa->prefixes) {
      routes.push_back(Route{prefix, next_hops, RouteSource::kOspf});
    }
  }
  return routes;
}

/// Starts a fresh epoch on a mark vector sized for `n` nodes.
void begin_marks(std::vector<std::uint32_t>& marks, std::uint32_t& epoch,
                 std::size_t n) {
  if (marks.size() < n) marks.resize(n, 0u);
  if (++epoch == 0) {
    std::fill(marks.begin(), marks.end(), 0u);
    epoch = 1;
  }
}

}  // namespace

DestinationSpf::DestinationSpf(const Lsdb& view) : graph_(view.graph()) {
  const LinkStateGraph& g = graph_;
  const std::size_t n = g.node_count();
  if (n >= kFar) {
    throw std::length_error("DestinationSpf: too many routers for uint16");
  }
  for (RouterIndex i = 0; i < n; ++i) {
    for (const DenseEdge& e : g.edges(i)) {
      if (e.cost != 1) {
        throw std::invalid_argument("DestinationSpf: view link cost != 1");
      }
    }
    const Lsa* lsa = g.lsa_of(i);
    if (lsa != nullptr && !lsa->prefixes.empty()) dests_.push_back(i);
  }
  const std::size_t width = dests_.size();
  dist_.assign(n * width, kFar);
  // Each BFS runs on a node-indexed level array that fits in L1, then is
  // scattered into its table column.
  std::vector<std::uint16_t> level(n);
  std::vector<RouterIndex> queue(n);
  for (std::size_t slot = 0; slot < width; ++slot) {
    std::fill(level.begin(), level.end(), kFar);
    const RouterIndex d = dests_[slot];
    level[d] = 0;
    queue[0] = d;
    std::size_t head = 0;
    std::size_t tail = 1;
    while (head < tail) {
      const RouterIndex x = queue[head++];
      const auto next = static_cast<std::uint16_t>(level[x] + 1);
      for (const DenseEdge& e : g.edges(x)) {
        if (!e.two_way || level[e.to] != kFar) continue;
        level[e.to] = next;
        queue[tail++] = e.to;
      }
    }
    for (std::size_t i = 0; i < n; ++i) dist_[i * width + slot] = level[i];
  }
}

std::vector<Route> DestinationSpf::routes_for(
    net::Ipv4Addr self, const std::vector<LocalAdjacency>& adjacency) const {
  const LinkStateGraph& g = graph_;
  const RouterIndex self_index = g.index_of(self);
  if (self_index == kNoRouter) return {};
  const SelfView view = build_self_view(adjacency);
  const std::size_t width = dests_.size();

  // Table row of each usable first hop, parallel to view.neighbors: the
  // neighbor must be live locally and listed in self's LSA, the same gate
  // dijkstra_full applies to self's edges.
  std::vector<const std::uint16_t*> rows(view.neighbors.size(), nullptr);
  for (const DenseEdge& e : g.edges(self_index)) {
    const int hop_index = view.index_of(g.router_of(e.to));
    if (hop_index < 0) {
      throw std::invalid_argument(
          "DestinationSpf: view lists a neighbor missing from adjacency");
    }
    rows[static_cast<std::size_t>(hop_index)] = dist_.data() + e.to * width;
  }
  std::vector<std::uint16_t> best(width, kFar);
  for (const std::uint16_t* row : rows) {
    if (row == nullptr) continue;
    for (std::size_t slot = 0; slot < width; ++slot) {
      best[slot] = std::min(best[slot], row[slot]);
    }
  }

  std::vector<Route> routes;
  for (std::size_t slot = 0; slot < width; ++slot) {
    const RouterIndex d = dests_[slot];
    if (d == self_index || best[slot] == kFar) continue;
    std::vector<NextHop> next_hops;
    for (std::size_t h = 0; h < rows.size(); ++h) {
      if (rows[h] == nullptr || rows[h][slot] != best[slot]) continue;
      for (const net::PortId port : view.ports[h]) {
        next_hops.push_back(NextHop{port, view.neighbors[h]});
      }
    }
    for (const net::Prefix& prefix : g.lsa_of(d)->prefixes) {
      routes.push_back(Route{prefix, next_hops, RouteSource::kOspf});
    }
  }
  return routes;
}

namespace {

/// Subtree repair after a two-way link between `ev.u` and `ev.v` (both
/// != self) disappeared; the graph no longer holds the edge, the event
/// carries its former costs.
///
/// Phase 1 finds the affected set A: if the dead edge lay on any shortest
/// path (dist[parent] + cost == dist[child]), every node with a shortest
/// path through it is a descendant of the child along shortest-path-DAG
/// edges, so a DAG-edge BFS from the child over-approximates exactly the
/// nodes whose distance or first-hop set may change; everything outside A
/// keeps its final state. Phase 2 resets A and seeds each member from its
/// unaffected parents (including `self`, handled specially because its
/// edges are gated by local adjacency, not the two-way flag). Phase 3 is
/// Dijkstra restricted to A: parents settle strictly before children
/// (costs are verified positive), so first-hop sets copied/unioned at
/// settle time are final.
void repair_link_down(const LinkStateGraph& g, RouterIndex self,
                      const SelfView& view, SpfArrays& a, const GraphEvent& ev,
                      std::vector<RouterIndex>& affected,
                      std::vector<RouterIndex>& stack,
                      std::vector<std::uint32_t>& affected_mark,
                      std::uint32_t& affected_epoch,
                      std::vector<std::uint32_t>& settled_mark,
                      std::uint32_t& settled_epoch) {
  const int du = a.distance(ev.u);
  const int dv = a.distance(ev.v);
  RouterIndex seed = kNoRouter;
  if (du != SpfArrays::kUnreached && dv == du + ev.cost_uv) {
    seed = ev.v;
  } else if (dv != SpfArrays::kUnreached && du == dv + ev.cost_vu) {
    seed = ev.u;
  }
  if (seed == kNoRouter) return;  // the dead edge was on no shortest path

  begin_marks(affected_mark, affected_epoch, g.node_count());
  const auto in_affected = [&](RouterIndex i) {
    return affected_mark[i] == affected_epoch;
  };
  affected.clear();
  stack.clear();
  affected_mark[seed] = affected_epoch;
  affected.push_back(seed);
  stack.push_back(seed);
  while (!stack.empty()) {
    const RouterIndex x = stack.back();
    stack.pop_back();
    const int dx = a.dist[x];  // finite: every member was reached
    for (const DenseEdge& e : g.edges(x)) {
      if (!e.two_way) continue;
      const RouterIndex b = e.to;
      if (b == self || in_affected(b)) continue;
      if (a.distance(b) == dx + e.cost) {
        affected_mark[b] = affected_epoch;
        affected.push_back(b);
        stack.push_back(b);
      }
    }
  }

  a.heap.clear();
  for (const RouterIndex b : affected) a.set_unreached(b);
  for (const RouterIndex b : affected) {
    int best = SpfArrays::kUnreached;
    FirstHopSet& hb = a.hops[b];
    // `self` as boundary parent: its edge to b is usable iff self's LSA
    // lists b AND a live local port reaches b. Not discoverable from b's
    // own edge list (b may not advertise self back), hence the probe.
    const net::Ipv4Addr baddr = g.router_of(b);
    if (const int ni = view.index_of(baddr); ni >= 0) {
      if (const DenseEdge* se = g.find_edge(self, b)) {
        best = se->cost;
        insert_first_hop(hb, static_cast<std::uint16_t>(ni));
      }
    }
    for (const DenseEdge& e : g.edges(b)) {
      if (!e.two_way) continue;
      const RouterIndex y = e.to;
      if (y == self || in_affected(y)) continue;
      const int dy = a.distance(y);
      if (dy == SpfArrays::kUnreached) continue;
      const int cand = dy + e.rev_cost;  // cost of the y→b direction
      if (cand < best) {
        best = cand;
        hb = a.hops[y];
      } else if (cand == best) {
        union_first_hops(hb, a.hops[y]);
      }
    }
    if (best != SpfArrays::kUnreached) {
      a.dist[b] = best;
      heap_push(a, best, baddr.value(), b);
    }
  }

  begin_marks(settled_mark, settled_epoch, g.node_count());
  while (!a.heap.empty()) {
    const SpfArrays::HeapItem item = heap_pop(a);
    const RouterIndex u = item.node;
    if (item.dist > a.dist[u] || settled_mark[u] == settled_epoch) continue;
    settled_mark[u] = settled_epoch;
    const int duu = a.dist[u];
    for (const DenseEdge& e : g.edges(u)) {
      if (!e.two_way) continue;
      const RouterIndex v = e.to;
      if (v == self || !in_affected(v)) continue;
      const int nd = duu + e.cost;
      if (nd < a.dist[v]) {
        a.dist[v] = nd;
        a.hops[v] = a.hops[u];
        heap_push(a, nd, g.router_of(v).value(), v);
      } else if (nd == a.dist[v]) {
        union_first_hops(a.hops[v], a.hops[u]);
      }
    }
  }
}

/// Tree growth after a two-way link between `ev.u` and `ev.v` (both
/// != self) appeared; the graph already holds the edge.
///
/// Label-correcting pass seeded at the reached endpoints: every
/// improvement (a strictly smaller distance, or a first-hop set gaining
/// members at equal distance) is pushed and its children re-relaxed.
/// Improvements propagate in nondecreasing distance order, distances only
/// decrease toward their final values, and equal-distance unions only add
/// hops that some shortest path really uses — so the pass converges to
/// exactly the full-Dijkstra fixpoint without touching unaffected nodes.
void repair_link_up(const LinkStateGraph& g, RouterIndex self, SpfArrays& a,
                    const GraphEvent& ev) {
  a.heap.clear();
  if (a.distance(ev.u) != SpfArrays::kUnreached) {
    heap_push(a, a.dist[ev.u], g.router_of(ev.u).value(), ev.u);
  }
  if (a.distance(ev.v) != SpfArrays::kUnreached) {
    heap_push(a, a.dist[ev.v], g.router_of(ev.v).value(), ev.v);
  }
  while (!a.heap.empty()) {
    const SpfArrays::HeapItem item = heap_pop(a);
    const RouterIndex u = item.node;
    if (a.distance(u) == SpfArrays::kUnreached || item.dist > a.dist[u]) {
      continue;  // stale entry
    }
    const int du = a.dist[u];
    for (const DenseEdge& e : g.edges(u)) {
      if (!e.two_way) continue;
      const RouterIndex v = e.to;
      if (v == self) continue;
      const int nd = du + e.cost;
      FirstHopSet& hv = a.touch(v);
      if (nd < a.dist[v]) {
        a.dist[v] = nd;
        hv = a.hops[u];
        heap_push(a, nd, g.router_of(v).value(), v);
      } else if (nd == a.dist[v]) {
        if (union_first_hops(hv, a.hops[u])) {
          heap_push(a, nd, g.router_of(v).value(), v);
        }
      }
    }
  }
}

}  // namespace

std::vector<Route> SpfSolver::run(const Lsdb& lsdb, net::Ipv4Addr self,
                                  const std::vector<LocalAdjacency>& adjacency) {
  const LinkStateGraph& g = lsdb.graph();
  const RouterIndex self_index = g.index_of(self);
  last_incremental_ = false;
  if (self_index == kNoRouter) {
    have_state_ = false;
    return {};
  }
  const SelfView view = build_self_view(adjacency);

  // Classify the delta since the cached tree. Anything not provably
  // confined to one two-way link away from `self` falls back to a full
  // run; origin-only (one-way) churn elsewhere is invisible to this
  // router's SPF and is skipped outright.
  bool incremental = false;
  const GraphEvent* structural = nullptr;
  GraphEvent structural_storage;
  if (have_state_ && graph_ == &g && self_index_ == self_index &&
      !g.has_nonpositive_cost() && last_adjacency_ == adjacency) {
    events_.clear();
    if (g.changes_since(last_version_, events_)) {
      bool confined = true;
      int structural_count = 0;
      for (const GraphEvent& ev : events_) {
        if (ev.u == self_index || ev.v == self_index) {
          confined = false;
          break;
        }
        switch (ev.kind) {
          case GraphEventKind::kOriginOnly:
            break;  // one-way membership change away from self: no effect
          case GraphEventKind::kCostChange:
            confined = false;
            break;
          case GraphEventKind::kLinkUp:
          case GraphEventKind::kLinkDown:
            // Subtree repair needs strictly positive costs on both
            // directions (also covers edges already gone from the graph,
            // which has_nonpositive_cost no longer counts).
            if (ev.cost_uv <= 0 || ev.cost_vu <= 0) {
              confined = false;
              break;
            }
            ++structural_count;
            structural_storage = ev;
            structural = &structural_storage;
            break;
        }
        if (!confined) break;
      }
      incremental = confined && structural_count <= 1;
      if (structural_count == 0) structural = nullptr;
    }
  }

  if (incremental) {
    arrays_.ensure(g.node_count());
    if (structural != nullptr) {
      if (structural->kind == GraphEventKind::kLinkDown) {
        repair_link_down(g, self_index, view, arrays_, *structural, affected_,
                         stack_, affected_mark_, affected_epoch_,
                         settled_mark_, settled_epoch_);
      } else {
        repair_link_up(g, self_index, arrays_, *structural);
      }
    }
    last_incremental_ = true;
  } else {
    dijkstra_full(g, self_index, view, arrays_);
  }

  graph_ = &g;
  last_version_ = g.version();
  self_index_ = self_index;
  last_adjacency_ = adjacency;
  have_state_ = true;
  return emit_routes(g, self_index, view, arrays_);
}

}  // namespace f2t::routing
