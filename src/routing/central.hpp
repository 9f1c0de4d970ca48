#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "net/l3switch.hpp"
#include "routing/lsdb.hpp"
#include "routing/spf.hpp"

namespace f2t::routing {

/// Timing model of a centralized routing scheme (§V "Centralized Routing
/// DCNs", in the spirit of PortLand [26]): the switch that detects a
/// failure reports it to the controller over an out-of-band channel, the
/// controller recomputes routes from its global view, and pushes new FIBs
/// to every affected switch. Recovery therefore costs
///   detection + report + (batch) + compute + push + FIB update,
/// and F²Tree's local reroute covers exactly that window.
struct CentralConfig {
  sim::Time report_delay = sim::millis(2);   ///< switch -> controller
  sim::Time batch_window = sim::millis(10);  ///< coalesce nearby reports
  sim::Time compute_delay = sim::millis(30); ///< global route computation
  sim::Time push_delay = sim::millis(2);     ///< controller -> switch
  sim::Time fib_update_delay = sim::millis(10);
};

/// The controller plus its per-switch agents. Replaces the distributed
/// protocol entirely: switches run no routing code, they only report port
/// state transitions; the controller owns the global topology view and
/// writes every FIB.
///
/// Route computation is destination-rooted (`DestinationSpf`): holding the
/// whole view, the controller runs one reverse BFS per prefix-carrying
/// switch (512 at k=32, instead of one Dijkstra per switch, 1,280) and
/// reads every switch's ECMP next hops off the resulting distance table.
/// BFS is exact because the view advertises every link at cost 1 (see
/// `view_of`); the routes equal `compute_spf`'s for each switch, order
/// included. The initial converge and every report-triggered recompute
/// share one body and differ only in delivery: synchronous FIB install
/// versus a scheduled push per switch.
class CentralController {
 public:
  explicit CentralController(const CentralConfig& config = {})
      : config_(config) {}

  struct Counters {
    std::uint64_t reports = 0;
    std::uint64_t computations = 0;
    std::uint64_t fib_pushes = 0;
  };

  /// Registers a switch (and optionally the prefixes it originates, e.g.
  /// a ToR's rack subnet). Call for every switch before converge().
  void manage(net::L3Switch& sw, std::vector<net::Prefix> prefixes = {});

  /// Computes routes from the current global view and installs them on
  /// every managed switch synchronously (initial convergence at t = 0).
  void converge();

  const Counters& counters() const { return counters_; }
  const CentralConfig& config() const { return config_; }

  /// Observer fired when a pushed FIB actually lands on a switch (after
  /// push + FIB-update delay). Unset by default; one branch per push.
  using PushHook = std::function<void(net::L3Switch&)>;
  void set_push_hook(PushHook hook) { push_hook_ = std::move(hook); }

 private:
  struct Managed {
    net::L3Switch* sw = nullptr;
    std::vector<net::Prefix> prefixes;
  };

  void on_report(net::L3Switch& sw);
  /// Computes every managed switch's routes from a fresh view, then per
  /// switch either installs them now or schedules the push (`push`).
  void compute_and_deliver(bool push);
  Lsdb build_view() const;
  /// The switch's detected-up switch-facing ports; its view LSA lists
  /// exactly these neighbors.
  static std::vector<LocalAdjacency> adjacency_of(const Managed& m);
  LsaPtr view_of(const Managed& m) const;

  CentralConfig config_;
  std::vector<Managed> switches_;
  sim::Simulator* sim_ = nullptr;
  sim::EventId pending_compute_ = sim::kInvalidEventId;
  std::uint64_t view_version_ = 0;
  Counters counters_;
  PushHook push_hook_;
};

}  // namespace f2t::routing
