#pragma once

#include <functional>
#include <vector>

#include "net/node.hpp"
#include "routing/fib.hpp"
#include "routing/route_cache.hpp"

namespace f2t::net {

/// Layer-3 switch: the data plane of the reproduction.
///
/// Matches the paper's production-DCN model (§II-B): all ports are bundled
/// into one L3 interface with a single address (the router id); forwarding
/// is longest-prefix match over the FIB with ECMP among usable next hops.
/// "Usable" is judged by the *locally detected* port state, which lags the
/// physical state by the failure-detection delay — that lag is the floor
/// on any recovery scheme, F²Tree included.
class L3Switch : public Node {
 public:
  struct Counters {
    std::uint64_t forwarded = 0;
    std::uint64_t local_delivered = 0;
    std::uint64_t dropped_no_route = 0;
    std::uint64_t dropped_ttl = 0;
    std::uint64_t control_in = 0;
  };

  /// Why this switch dropped a packet (the link layer has its own
  /// reasons; see Link::DropKind).
  enum class DropReason { kNoRoute, kTtlExpired };

  /// Called for control-plane (Protocol::kRouting) packets.
  using ControlHandler = std::function<void(PortId, const Packet&)>;
  /// Observer of detected port up/down transitions.
  using PortStateHandler = std::function<void(PortId, bool)>;
  /// Forwarding tap: (packet, ingress-or-kInvalidPort, egress).
  using ForwardTap = std::function<void(const Packet&, PortId, PortId)>;
  /// Observer of local forwarding drops (no route / TTL death).
  using DropHandler = std::function<void(const Packet&, DropReason)>;

  L3Switch(sim::Simulator& simulator, NodeId id, std::string name,
           Ipv4Addr router_id);

  Ipv4Addr router_id() const { return router_id_; }

  routing::Fib& fib() { return fib_; }
  const routing::Fib& fib() const { return fib_; }

  void receive(PortId p, Packet packet) override;

  /// Routes a packet that originates at this switch (control plane) or
  /// arrived from a link. Looks up the FIB, applies ECMP, transmits.
  /// `ingress` is only used for the tap. Returns false when dropped.
  bool forward(Packet packet, PortId ingress = kInvalidPort);

  /// Locally detected port state (true = believed up).
  bool port_detected_up(PortId p) const;
  void set_port_detected(PortId p, bool up);

  /// Resolved usable next hops for `dst` under the current FIB contents
  /// and detected port state, served from the per-switch route cache
  /// (invalidated by FIB generation + port epoch; see ResolvedRouteCache).
  /// The returned reference is valid until the next resolution.
  const routing::Fib::HopVec& resolve_next_hops(Ipv4Addr dst) const;

  /// Monotone count of detected port-state *transitions*; part of the
  /// route cache's invalidation stamp.
  std::uint64_t port_epoch() const { return port_epoch_; }

  const routing::ResolvedRouteCache& route_cache() const {
    return route_cache_;
  }

  /// Source of the most recent next-hop resolution (kStatic = the F²Tree
  /// backup took over). Valid until the next forward/resolve.
  routing::RouteSource last_resolved_source() const {
    return route_cache_.last_source();
  }

  /// Appends a control-plane handler; every handler sees every
  /// Protocol::kRouting packet and filters by payload type itself, so a
  /// routing protocol and a BFD session manager can share the wire.
  void add_control_handler(ControlHandler handler) {
    if (handler) control_handlers_.push_back(std::move(handler));
  }
  std::size_t control_handler_count() const {
    return control_handlers_.size();
  }
  void add_port_state_handler(PortStateHandler handler) {
    port_state_handlers_.push_back(std::move(handler));
  }

  /// Appends a forwarding tap; every tap sees every forwarded packet, so
  /// a packet tracer and the observability journal can coexist.
  void add_forward_tap(ForwardTap tap) {
    forward_taps_.push_back(std::move(tap));
  }
  std::size_t forward_tap_count() const { return forward_taps_.size(); }

  void set_drop_handler(DropHandler handler) {
    drop_handler_ = std::move(handler);
  }

  const Counters& counters() const { return counters_; }

 private:
  void ensure_port_state(PortId p) const;

  Ipv4Addr router_id_;
  routing::Fib fib_;
  mutable std::vector<bool> detected_up_;  // grown lazily as ports attach
  mutable routing::ResolvedRouteCache route_cache_;
  std::uint64_t port_epoch_ = 0;
  std::vector<ControlHandler> control_handlers_;
  std::vector<PortStateHandler> port_state_handlers_;
  std::vector<ForwardTap> forward_taps_;
  DropHandler drop_handler_;
  Counters counters_;
};

}  // namespace f2t::net
