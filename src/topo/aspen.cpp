#include "topo/aspen.hpp"

#include <stdexcept>

namespace f2t::topo {

BuiltTopology build_aspen_tree(net::Network& network,
                               const AspenOptions& options) {
  const int n = options.ports;
  const int f = options.fault_tolerance;
  if (n < 4 || n % 2 != 0) {
    throw std::invalid_argument("aspen: ports must be even and >= 4");
  }
  if (f < 1) throw std::invalid_argument("aspen: fault tolerance must be >= 1");
  // f > N/2 could never divide N; testing it first keeps 2*(f+1) in range.
  if (f > n / 2 || n % (2 * (f + 1)) != 0) {
    throw std::invalid_argument(
        "aspen: ports must be divisible by 2*(f+1)");
  }
  const int half = n / 2;
  const int pods = n / (f + 1);
  const int cores_per_group = half / (f + 1);
  const int hosts_per_tor =
      options.hosts_per_tor >= 0 ? options.hosts_per_tor : half;
  check_address_plan("aspen", std::int64_t{pods} * half,
                     std::int64_t{pods} * half,
                     std::int64_t{half} * cores_per_group, hosts_per_tor,
                     false);

  // An (engineered) fat-tree family with standard fat-tree pods.
  BuiltTopology topo = start_topology(network, TopologyKind::kFatTree, n, 0);
  add_core_groups(topo, half, cores_per_group);
  add_pods(topo, pods, half, half);
  wire_pods(topo);

  // The fault-tolerant layer: agg j connects each core of group j with
  // f+1 parallel links.
  for (const auto& pod : topo.pods) {
    for (std::size_t a = 0; a < pod.aggs.size(); ++a) {
      for (net::L3Switch* core : topo.core_groups[a]) {
        for (int dup = 0; dup <= f; ++dup) {
          network.connect_default(*pod.aggs[a], *core);
        }
      }
    }
  }
  attach_hosts(topo, hosts_per_tor);
  return topo;
}

}  // namespace f2t::topo
