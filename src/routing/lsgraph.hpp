#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "routing/lsa.hpp"
#include "routing/smallvec.hpp"

namespace f2t::routing {

/// Stable index of a router inside a LinkStateGraph. Assigned the first
/// time an address appears (as an LSA origin or a link target) and never
/// recycled, so SPF state keyed by index survives LSA churn.
using RouterIndex = std::uint32_t;
inline constexpr RouterIndex kNoRouter = ~RouterIndex{0};

/// One directed adjacency in the dense graph, owned by the advertising
/// router. `two_way` caches OSPF's bidirectional check (the peer also
/// advertises the reverse direction), so SPF never rescans the peer's
/// LSA per relaxed edge; `rev_cost` is the peer's advertised cost back
/// (meaningful only while `two_way`), which incremental repair needs when
/// walking in-edges through a node's own edge list.
struct DenseEdge {
  RouterIndex to = kNoRouter;
  int cost = 1;
  int rev_cost = 1;
  bool two_way = false;
};

/// A tree-relevant change recorded by the graph as LSAs are accepted.
/// Consumers (SpfSolver) replay these to decide whether the delta since
/// their last run is confined enough for an incremental repair.
enum class GraphEventKind : std::uint8_t {
  kLinkUp,      ///< pair (u,v) became two-way
  kLinkDown,    ///< pair (u,v) stopped being two-way
  kCostChange,  ///< an advertised cost changed (conservative: full SPF)
  kOriginOnly,  ///< one-way membership change: only the origin's own SPF
                ///< (which trusts local adjacency over the two-way check)
                ///< can be affected
};

struct GraphEvent {
  GraphEventKind kind = GraphEventKind::kCostChange;
  RouterIndex u = kNoRouter;  ///< for kOriginOnly: the origin
  RouterIndex v = kNoRouter;
  /// Directional costs of the pair at event time. For kLinkDown these are
  /// the removed costs (no longer available from the graph itself).
  int cost_uv = 1;
  int cost_vu = 1;
};

/// Scratch state for a full SPF run over the dense graph: flat
/// index-addressed arrays with versioned stamps, so starting a run is an
/// O(1) epoch bump instead of a per-run clear/rehash. A slot is live only
/// while its stamp matches the current epoch; stale slots read as
/// "unreached, empty first hops" and are lazily reset on first write.
struct SpfArrays {
  /// First-hop neighbors as indices into the computing router's sorted
  /// neighbor list (ECMP fan-out ≤ port count; fits inline).
  using FirstHopSet = SmallVec<std::uint16_t, 8>;
  static constexpr int kUnreached = std::numeric_limits<int>::max();

  std::vector<int> dist;
  std::vector<FirstHopSet> hops;
  std::vector<std::uint32_t> stamp;    ///< dist/hops live iff == epoch
  std::vector<std::uint32_t> settled;  ///< node settled iff == epoch
  std::uint32_t epoch = 0;

  /// Binary heap reused across runs: (dist, router address, index) with
  /// the address as tie-break, mirroring the original implementation's
  /// deterministic ordering.
  struct HeapItem {
    int dist;
    std::uint32_t addr;
    RouterIndex node;
    friend bool operator<(const HeapItem& a, const HeapItem& b) {
      // std::push_heap keeps the *largest* on top; invert for a min-heap.
      if (a.dist != b.dist) return a.dist > b.dist;
      return a.addr > b.addr;
    }
  };
  std::vector<HeapItem> heap;

  /// Grows the arrays to `n` nodes and starts a new run epoch.
  void begin(std::size_t n);
  /// Grows the arrays without invalidating live state (incremental SPF
  /// keeps its tree across runs while new routers appear).
  void ensure(std::size_t n);

  bool reached(RouterIndex i) const {
    return stamp[i] == epoch && dist[i] != kUnreached;
  }
  int distance(RouterIndex i) const {
    return stamp[i] == epoch ? dist[i] : kUnreached;
  }
  bool is_settled(RouterIndex i) const { return settled[i] == epoch; }
  void settle(RouterIndex i) { settled[i] = epoch; }
  void unsettle(RouterIndex i) { settled[i] = epoch - 1; }

  /// Makes slot `i` live (lazily clearing stale contents) and returns it.
  FirstHopSet& touch(RouterIndex i) {
    if (stamp[i] != epoch) {
      stamp[i] = epoch;
      dist[i] = kUnreached;
      hops[i].clear();
    }
    return hops[i];
  }
  void set_unreached(RouterIndex i) {
    touch(i);
    dist[i] = kUnreached;
    hops[i].clear();
  }
};

/// Dense materialization of the LSDB's router graph.
///
/// Owned by `Lsdb` and patched in place every time `Lsdb::consider`
/// accepts an LSA, instead of being rebuilt per SPF run: router→index
/// interning, per-router adjacency arrays with the two-way check
/// precomputed per edge, the newest LSA per index (for prefix emission
/// without hashing), and a bounded change log that lets `SpfSolver`
/// classify the delta since its previous run.
class LinkStateGraph {
 public:
  RouterIndex index_of(net::Ipv4Addr router) const {
    const auto it = index_.find(router);
    return it == index_.end() ? kNoRouter : it->second;
  }
  net::Ipv4Addr router_of(RouterIndex i) const { return routers_[i]; }
  std::size_t node_count() const { return routers_.size(); }

  /// Newest LSA of the router at index `i` (null if the address was only
  /// ever seen as a link target).
  const Lsa* lsa_of(RouterIndex i) const { return lsas_[i].get(); }

  const std::vector<DenseEdge>& edges(RouterIndex i) const { return adj_[i]; }

  /// Monotone change counter: one tick per recorded GraphEvent. Equal
  /// versions guarantee an identical two-way edge set and costs.
  std::uint64_t version() const { return version_; }

  /// Appends the events with version in (since, version()] to `out`,
  /// oldest first. Returns false when the log has been trimmed past
  /// `since` (caller must fall back to a full computation).
  bool changes_since(std::uint64_t since, std::vector<GraphEvent>& out) const;

  /// True if any advertised cost is ≤ 0. Incremental repair assumes
  /// strictly positive costs (parents strictly closer than children);
  /// degenerate databases force the full path.
  bool has_nonpositive_cost() const { return nonpositive_entries_ > 0; }

  /// Patches the graph for an accepted LSA. `previous` is the LSA it
  /// replaced (null on first sight of the origin).
  void apply(const LsaPtr& lsa, const Lsa* previous);

  /// Directed edge from→to, or null. Degree-bounded linear scan.
  const DenseEdge* find_edge(RouterIndex from, RouterIndex to) const;

 private:
  RouterIndex intern(net::Ipv4Addr router);
  DenseEdge* find_edge_mut(RouterIndex from, RouterIndex to);
  void record(GraphEventKind kind, RouterIndex u, RouterIndex v,
              int cost_uv, int cost_vu);
  void track_cost(int cost, int delta);

  std::vector<net::Ipv4Addr> routers_;
  std::vector<LsaPtr> lsas_;
  std::vector<std::vector<DenseEdge>> adj_;
  std::unordered_map<net::Ipv4Addr, RouterIndex> index_;

  std::uint64_t version_ = 0;
  std::uint64_t log_base_ = 0;  ///< events_[0] has version log_base_ + 1
  std::vector<GraphEvent> events_;
  int nonpositive_entries_ = 0;

  // The log only exists to classify small deltas; once it outgrows this
  // bound every consumer would fall back to full SPF anyway, so the old
  // half is dropped and `changes_since` reports the trim.
  static constexpr std::size_t kMaxLog = 512;
};

}  // namespace f2t::routing
