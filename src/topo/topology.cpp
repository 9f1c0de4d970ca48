#include "topo/topology.hpp"

#include <sstream>
#include <stdexcept>

#include "topo/addressing.hpp"

namespace f2t::topo {

const char* topology_kind_name(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kFatTree: return "fat-tree";
    case TopologyKind::kF2Tree: return "f2tree";
    case TopologyKind::kLeafSpine: return "leaf-spine";
    case TopologyKind::kVl2: return "vl2";
  }
  return "?";
}

std::vector<net::L3Switch*> BuiltTopology::all_switches() const {
  std::vector<net::L3Switch*> out;
  out.reserve(tors.size() + aggs.size() + cores.size());
  out.insert(out.end(), tors.begin(), tors.end());
  out.insert(out.end(), aggs.begin(), aggs.end());
  out.insert(out.end(), cores.begin(), cores.end());
  return out;
}

int BuiltTopology::pod_of_agg(const net::L3Switch* sw) const {
  for (std::size_t p = 0; p < pods.size(); ++p) {
    for (const net::L3Switch* agg : pods[p].aggs) {
      if (agg == sw) return static_cast<int>(p);
    }
  }
  return -1;
}

int BuiltTopology::index_in_pod(const net::L3Switch* sw) const {
  for (const Pod& pod : pods) {
    for (std::size_t i = 0; i < pod.aggs.size(); ++i) {
      if (pod.aggs[i] == sw) return static_cast<int>(i);
    }
  }
  // Also allow core-group lookup: index within its group.
  for (const auto& group : core_groups) {
    for (std::size_t i = 0; i < group.size(); ++i) {
      if (group[i] == sw) return static_cast<int>(i);
    }
  }
  return -1;
}

net::L3Switch* BuiltTopology::tor_of_host(const net::Host* host) const {
  for (const auto& [tor, tor_hosts] : hosts_of_tor) {
    for (const net::Host* h : tor_hosts) {
      if (h == host) return const_cast<net::L3Switch*>(tor);
    }
  }
  return nullptr;
}

std::string BuiltTopology::summary() const {
  std::ostringstream os;
  os << topology_kind_name(kind) << " N=" << ports << (f2 ? " (F2)" : "")
     << ": " << tors.size() << " ToR, " << aggs.size() << " agg, "
     << cores.size() << " core, " << hosts.size() << " hosts, "
     << network->link_count() << " links";
  return os.str();
}

BuiltTopology start_topology(net::Network& network, TopologyKind kind,
                             int ports, int ring_width) {
  BuiltTopology topo;
  topo.network = &network;
  topo.kind = kind;
  topo.ports = ports;
  topo.f2 = ring_width > 0;
  topo.ring_width = ring_width;
  return topo;
}

void check_address_plan(const char* what, std::int64_t tors,
                        std::int64_t aggs, std::int64_t cores,
                        int hosts_per_tor, bool f2) {
  if (tors > AddressPlan::kMaxTors || aggs > AddressPlan::kMaxAggs ||
      cores > AddressPlan::kMaxCores ||
      hosts_per_tor > AddressPlan::kMaxHostsPerTor) {
    throw std::invalid_argument(std::string(what) +
                                ": exceeds address plan capacity");
  }
  // F² backup routes cover hosts via the Table II prefix chain, which only
  // reaches the first 256 ToR subnets.
  if (f2 && tors > AddressPlan::kMaxBackupCoveredTors) {
    throw std::invalid_argument(
        std::string(what) +
        ": F^2 rewiring exceeds the backup-prefix cover (256 ToRs)");
  }
}

void add_core_groups(BuiltTopology& topo, int groups, int per_group,
                     const char* name) {
  for (int j = 0; j < groups; ++j) {
    auto& group = topo.core_groups.emplace_back();
    for (int i = 0; i < per_group; ++i) {
      const int c = static_cast<int>(topo.cores.size());
      group.push_back(&topo.network->add_switch(
          name + std::to_string(c), AddressPlan::core_router_id(c)));
      topo.cores.push_back(group.back());
    }
  }
}

void add_pods(BuiltTopology& topo, int pods, int aggs_per_pod,
              int tors_per_pod) {
  net::Network& network = *topo.network;
  for (int p = 0; p < pods; ++p) {
    BuiltTopology::Pod& pod = topo.pods.emplace_back();
    for (int a = 0; a < aggs_per_pod; ++a) {
      const int i = static_cast<int>(topo.aggs.size());
      pod.aggs.push_back(&network.add_switch("agg" + std::to_string(i),
                                             AddressPlan::agg_router_id(i)));
      topo.aggs.push_back(pod.aggs.back());
    }
    for (int t = 0; t < tors_per_pod; ++t) {
      const int i = static_cast<int>(topo.tors.size());
      pod.tors.push_back(&network.add_switch("tor" + std::to_string(i),
                                             AddressPlan::tor_router_id(i)));
      topo.tors.push_back(pod.tors.back());
    }
  }
}

void wire_pods(BuiltTopology& topo) {
  for (const BuiltTopology::Pod& pod : topo.pods) {
    for (net::L3Switch* agg : pod.aggs) {
      for (net::L3Switch* tor : pod.tors) {
        topo.network->connect_default(*agg, *tor);
      }
    }
  }
}

void build_ring(BuiltTopology& topo,
                const std::vector<net::L3Switch*>& members, int width) {
  const std::size_t n = members.size();
  if (n < 2) return;  // a 1-switch "ring" leaves reserved ports unused
  for (std::size_t offset = 1; offset <= static_cast<std::size_t>(width / 2);
       ++offset) {
    for (std::size_t i = 0; i < n; ++i) {
      net::L3Switch& from = *members[i];
      net::L3Switch& to = *members[(i + offset) % n];
      topo.network->connect_default(from, to);
      topo.rings[&from].right.push_back(
          static_cast<net::PortId>(from.port_count() - 1));
      topo.rings[&to].left.push_back(
          static_cast<net::PortId>(to.port_count() - 1));
    }
  }
}

void attach_hosts(BuiltTopology& topo, int hosts_per_tor) {
  for (std::size_t t = 0; t < topo.tors.size(); ++t) {
    net::L3Switch* tor = topo.tors[t];
    const int index = static_cast<int>(t);
    topo.subnet_of_tor[tor] = AddressPlan::tor_subnet(index);
    for (int h = 0; h < hosts_per_tor; ++h) {
      net::Host& host = topo.network->add_host(
          "h" + std::to_string(t) + "_" + std::to_string(h),
          AddressPlan::host_addr(index, h), tor);
      topo.hosts.push_back(&host);
      topo.hosts_of_tor[tor].push_back(&host);
    }
  }
}

}  // namespace f2t::topo
