#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"

namespace f2t::topo {

enum class TopologyKind { kFatTree, kF2Tree, kLeafSpine, kVl2 };

const char* topology_kind_name(TopologyKind kind);

/// Ring attachment of one switch in an F²-rewired topology: the reserved
/// ports to its across neighbours, ordered rightward then leftward (then
/// right+2 / left-2 when the ring is 4 wide).
struct RingPorts {
  std::vector<net::PortId> right;  ///< ports toward (index+1), (index+2)…
  std::vector<net::PortId> left;   ///< ports toward (index-1), (index-2)…
};

/// Everything a built topology exposes to experiments: the layer rosters,
/// pod structure, hosts, and (for F² variants) the ring metadata needed to
/// configure backup routes and to construct the paper's failure
/// conditions.
struct BuiltTopology {
  net::Network* network = nullptr;
  TopologyKind kind = TopologyKind::kFatTree;
  int ports = 0;       ///< N, the homogeneous switch port count
  bool f2 = false;     ///< rewired with across rings?
  int ring_width = 0;  ///< 0, 2 or 4

  std::vector<net::L3Switch*> tors;
  std::vector<net::L3Switch*> aggs;
  std::vector<net::L3Switch*> cores;  ///< spines for Leaf-Spine, ints for VL2

  struct Pod {
    std::vector<net::L3Switch*> aggs;
    std::vector<net::L3Switch*> tors;
  };
  std::vector<Pod> pods;
  std::vector<std::vector<net::L3Switch*>> core_groups;

  std::vector<net::Host*> hosts;
  std::unordered_map<const net::L3Switch*, std::vector<net::Host*>>
      hosts_of_tor;
  std::unordered_map<const net::L3Switch*, net::Prefix> subnet_of_tor;

  std::unordered_map<const net::L3Switch*, RingPorts> rings;

  /// All switches, ToR first, then aggregation, then core.
  std::vector<net::L3Switch*> all_switches() const;

  /// The pod index containing an aggregation switch, or -1.
  int pod_of_agg(const net::L3Switch* sw) const;
  /// Position of an agg within its pod, or -1.
  int index_in_pod(const net::L3Switch* sw) const;

  /// ToR of a host (the peer on its uplink).
  net::L3Switch* tor_of_host(const net::Host* host) const;

  std::string summary() const;
};

// --- Clos building blocks ----------------------------------------------
// The builders compose these in one order: cores, then pods (each pod's
// aggs before its ToRs), then links in call order, then hosts. Switch
// and host ids, link order and port numbers all follow from that order.

/// An empty topology over `network`; F²-rewired iff `ring_width > 0`.
BuiltTopology start_topology(net::Network& network, TopologyKind kind,
                             int ports, int ring_width);

/// Throws std::invalid_argument ("<what>: ...") when a role's count or the
/// hosts per ToR exceed the address plan, or when an F²-rewired topology
/// has more ToRs than the backup-prefix chain covers. Counts are 64-bit so
/// that callers can multiply out a port count without overflowing.
void check_address_plan(const char* what, std::int64_t tors,
                        std::int64_t aggs, std::int64_t cores,
                        int hosts_per_tor, bool f2);

/// `groups` core groups of `per_group` switches named "<name><index>",
/// numbered group-major.
void add_core_groups(BuiltTopology& topo, int groups, int per_group,
                     const char* name = "core");

/// `pods` pods, each of `aggs_per_pod` aggs then `tors_per_pod` ToRs.
void add_pods(BuiltTopology& topo, int pods, int aggs_per_pod,
              int tors_per_pod);

/// Full agg x ToR bipartite links inside every pod, agg-major.
void wire_pods(BuiltTopology& topo);

/// The ring of across links over `members`: offsets 1..width/2, each a
/// full lap, recording each link's ports as right (from) and left (to).
void build_ring(BuiltTopology& topo,
                const std::vector<net::L3Switch*>& members, int width);

/// `hosts_per_tor` hosts on every ToR, addressed from the ToR's subnet.
void attach_hosts(BuiltTopology& topo, int hosts_per_tor);

}  // namespace f2t::topo
