#include "topo/leafspine.hpp"

#include <stdexcept>
#include <string>

#include "topo/addressing.hpp"

namespace f2t::topo {

BuiltTopology build_leaf_spine(net::Network& network,
                               const LeafSpineOptions& options) {
  const int n = options.ports;
  if (n < 4 || n % 2 != 0) {
    throw std::invalid_argument("leaf-spine: ports must be even and >= 4");
  }
  const int spines = n / 2;
  // The F² rewiring frees two downward ports on every spine by taking two
  // leaves out of service; the remaining leaves keep their full uplink
  // fan-out, so every spine's across neighbour still reaches every leaf.
  const int leaves = options.f2_rewire ? n - 2 : n;
  const int hosts_per_leaf =
      options.hosts_per_leaf >= 0 ? options.hosts_per_leaf : n / 2;
  check_address_plan("leaf-spine", leaves, 0, spines, hosts_per_leaf,
                     options.f2_rewire);

  BuiltTopology topo = start_topology(network, TopologyKind::kLeafSpine, n,
                                      options.f2_rewire ? 2 : 0);
  // Spines sit at the "core" tier of the generic description, in one core
  // group: the ring (if any) spans them all.
  add_core_groups(topo, 1, spines, "spine");
  for (int l = 0; l < leaves; ++l) {
    topo.tors.push_back(&network.add_switch("leaf" + std::to_string(l),
                                            AddressPlan::tor_router_id(l)));
  }

  for (net::L3Switch* spine : topo.cores) {
    for (net::L3Switch* leaf : topo.tors) {
      network.connect_default(*spine, *leaf);
    }
  }
  if (options.f2_rewire) build_ring(topo, topo.cores, 2);
  attach_hosts(topo, hosts_per_leaf);
  return topo;
}

}  // namespace f2t::topo
