#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"

namespace f2t::net {

/// Data-plane packet tracer: hooks the forwarding tap of every switch in
/// a network and records each forwarding decision. Unlike
/// failure::trace_route (which *predicts* a path from FIB state), this
/// observes what the data plane actually did — including transient
/// bounces, reroutes mid-flight and TTL deaths — which is how the tests
/// verify fast-reroute paths packet by packet.
///
/// Built entirely on the public `L3Switch::add_forward_tap`, so it needs
/// no library plumbing. Tracing costs a hash-map append per forwarded
/// packet. The tracer appends its tap, so it coexists with other tap users
/// (e.g. the observability journal).
class PacketTracer {
 public:
  struct Hop {
    sim::Time at = 0;
    NodeId node = kInvalidNode;
    PortId ingress = kInvalidPort;
    PortId egress = kInvalidPort;
  };

  /// Attaches to every switch currently in the network.
  explicit PacketTracer(Network& network) : network_(network) {
    for (L3Switch* sw : network_.switches()) {
      const NodeId id = sw->id();
      sw->add_forward_tap(
          [this, id](const Packet& packet, PortId ingress, PortId egress) {
            by_uid_[packet.uid].push_back(
                Hop{network_.simulator().now(), id, ingress, egress});
            ++events_;
          });
    }
  }

  /// Hop sequence of one packet (by uid), in forwarding order.
  const std::vector<Hop>& hops_of(std::uint64_t uid) const {
    const auto it = by_uid_.find(uid);
    return it == by_uid_.end() ? empty_ : it->second;
  }

  /// Switch names visited by a packet, in order.
  std::vector<std::string> path_names(std::uint64_t uid) const {
    std::vector<std::string> names;
    for (const Hop& hop : hops_of(uid)) {
      names.push_back(network_.node(hop.node).name());
    }
    return names;
  }

  /// Total forwarding events recorded.
  std::size_t event_count() const { return events_; }

  /// Number of distinct packets seen.
  std::size_t packet_count() const { return by_uid_.size(); }

  /// Drops accumulated state (e.g. between experiment phases).
  void clear() {
    by_uid_.clear();
    events_ = 0;
  }

 private:
  Network& network_;
  std::unordered_map<std::uint64_t, std::vector<Hop>> by_uid_;
  std::vector<Hop> empty_;
  std::size_t events_ = 0;
};

}  // namespace f2t::net
