#include "topo/f2tree.hpp"

#include <stdexcept>

namespace f2t::topo {

BuiltTopology build_f2tree_scaled(net::Network& network,
                                  const F2TreeScaledOptions& options) {
  const int n = options.ports;
  if (n < 6 || n % 2 != 0) {
    throw std::invalid_argument(
        "f2tree scaled: ports must be even and >= 6 "
        "(N=4 leaves no room for a ToR ring pod)");
  }
  const int half = n / 2;
  const int pods = n - 2;
  const int tors_per_pod = half - 1;
  const int cores_per_group = half - 1;
  const int hosts_per_tor =
      options.hosts_per_tor >= 0 ? options.hosts_per_tor : half;
  check_address_plan("f2tree scaled", std::int64_t{pods} * tors_per_pod,
                     std::int64_t{pods} * half,
                     std::int64_t{half} * cores_per_group, hosts_per_tor,
                     true);

  BuiltTopology topo = start_topology(network, TopologyKind::kF2Tree, n, 2);
  add_core_groups(topo, half, cores_per_group);
  add_pods(topo, pods, half, tors_per_pod);
  // Inside each pod every agg spends N/2 - 1 downward ports, every ToR
  // spends N/2 upward ports.
  wire_pods(topo);

  // Agg j of every pod connects to all N/2 - 1 cores of group j.
  for (const auto& pod : topo.pods) {
    for (std::size_t a = 0; a < pod.aggs.size(); ++a) {
      for (net::L3Switch* core : topo.core_groups[a]) {
        network.connect_default(*pod.aggs[a], *core);
      }
    }
  }

  for (const auto& pod : topo.pods) build_ring(topo, pod.aggs, 2);
  for (const auto& group : topo.core_groups) build_ring(topo, group, 2);
  attach_hosts(topo, hosts_per_tor);
  return topo;
}

}  // namespace f2t::topo
