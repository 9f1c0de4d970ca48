#pragma once

#include <cstdint>
#include <vector>

#include "net/ids.hpp"
#include "routing/lsdb.hpp"
#include "routing/lsgraph.hpp"
#include "routing/route.hpp"

namespace f2t::routing {

/// Inputs describing the computing router's own attachment points:
/// every local port that faces another router, with the peer's id.
/// Only detected-up ports should be listed.
struct LocalAdjacency {
  net::PortId port = net::kInvalidPort;
  net::Ipv4Addr neighbor;

  friend bool operator==(const LocalAdjacency&, const LocalAdjacency&) =
      default;
};

/// Shortest-path-first calculation (Dijkstra with ECMP).
///
/// Edges require two-way agreement (u lists v AND v lists u), as in OSPF,
/// so a router whose LSA is stale cannot attract traffic over a dead link
/// for longer than flooding takes. For every destination router, all
/// equal-cost first hops are retained; routes are emitted for each prefix
/// the destination redistributes, mapping first-hop routers back to the
/// local ports in `adjacency` (parallel links to the same neighbor all
/// become next hops, which is how the testbed's doubled across links form
/// a 2-wide ECMP group).
///
/// Runs on the LSDB's dense link-state graph: the two-way check is read
/// from precomputed per-edge flags and the per-run state lives in flat
/// index-addressed arrays (the graph's shared scratch), so a run performs
/// no hashing and no per-run clearing.
std::vector<Route> compute_spf(const Lsdb& lsdb, net::Ipv4Addr self,
                               const std::vector<LocalAdjacency>& adjacency);

/// Reachability probe on the LSDB graph (two-way check applied); used by
/// tests and topology validation.
bool lsdb_reachable(const Lsdb& lsdb, net::Ipv4Addr from, net::Ipv4Addr to);

/// Destination-rooted route computation over a whole view, for a
/// controller that computes every router's routes from one database.
///
/// Construction runs one reverse BFS over the two-way edges per
/// prefix-carrying router and keeps a distance table (uint16 per
/// (router, destination) pair, about 1.3 MB for a k=32 fat tree).
/// `routes_for(self, adjacency)` then reads self's routes off that table:
/// self's next hops toward d are the neighbors j it links to whose
/// distance to d is minimal, emitted in `compute_spf`'s order
/// (destinations by RouterIndex, next hops by neighbor address, then by
/// port in adjacency order).
///
/// Unit-cost invariant: BFS is exact only because every view link costs
/// 1 (`CentralController::view_of` advertises each link at cost 1); the
/// constructor throws std::invalid_argument on any other cost.
///
/// Equivalence: with unit costs, `routes_for(self, adjacency)` equals
/// `compute_spf(view, self, adjacency)` exactly, order included, provided
/// every neighbor self's view LSA lists also appears in `adjacency` (the
/// controller derives both from the same detected-up ports); otherwise it
/// throws std::invalid_argument. Pinned by tests/test_spf_incremental.cpp.
/// Reads `view`'s graph by reference, so it must not outlive `view`.
class DestinationSpf {
 public:
  explicit DestinationSpf(const Lsdb& view);

  std::vector<Route> routes_for(
      net::Ipv4Addr self, const std::vector<LocalAdjacency>& adjacency) const;

 private:
  static constexpr std::uint16_t kFar = 0xFFFF;

  const LinkStateGraph& graph_;
  std::vector<RouterIndex> dests_;  ///< prefix-carrying routers, by index
  /// dist_[node * dests_.size() + slot]: hops from node to dests_[slot].
  std::vector<std::uint16_t> dist_;
};

/// Incremental SPF engine: one instance per computing router.
///
/// `run` returns exactly what `compute_spf` would return for the same
/// (lsdb, self, adjacency) inputs — that equivalence is the contract,
/// enforced by tests/test_spf_incremental.cpp. Internally the solver keeps
/// the previous run's shortest-path tree and, when the graph's event log
/// shows the delta since then is a single two-way link coming up or going
/// down away from `self`, repairs only the affected subtree instead of
/// re-running global Dijkstra.
///
/// Fallback to a full run happens whenever confinement cannot be proven:
/// first run, event log trimmed, any cost change, any event touching
/// `self` (its relaxation trusts local adjacency, not the two-way set),
/// a changed local adjacency, more than one structural event, or any
/// non-positive cost in the database (subtree repair assumes parents are
/// strictly closer than children). Prefix-only LSA churn produces no
/// graph events, so the cached tree is reused and only route emission
/// re-runs.
class SpfSolver {
 public:
  /// Computes this router's OSPF routes. Always equivalent to
  /// `compute_spf(lsdb, self, adjacency)`.
  std::vector<Route> run(const Lsdb& lsdb, net::Ipv4Addr self,
                         const std::vector<LocalAdjacency>& adjacency);

  /// True when the previous `run` repaired the cached tree instead of
  /// recomputing it (including the no-structural-change case).
  bool last_run_incremental() const { return last_incremental_; }

  /// Drops the cached tree; the next `run` recomputes from scratch.
  void reset() { have_state_ = false; }

 private:
  // Identity of the graph the cached tree was computed on. Compared by
  // address: a different (or reconstructed) Lsdb invalidates the state.
  const LinkStateGraph* graph_ = nullptr;
  std::uint64_t last_version_ = 0;
  RouterIndex self_index_ = kNoRouter;
  std::vector<LocalAdjacency> last_adjacency_;
  bool have_state_ = false;
  bool last_incremental_ = false;

  SpfArrays arrays_;  ///< persistent shortest-path tree, epoch-stamped

  // Repair scratch, reused across runs (see spf.cpp for the algorithms).
  std::vector<GraphEvent> events_;
  std::vector<RouterIndex> affected_;
  std::vector<RouterIndex> stack_;
  std::vector<std::uint32_t> affected_mark_;
  std::uint32_t affected_epoch_ = 0;
  std::vector<std::uint32_t> settled_mark_;
  std::uint32_t settled_epoch_ = 0;
};

}  // namespace f2t::routing
