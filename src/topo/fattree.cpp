#include "topo/fattree.hpp"

#include <stdexcept>

namespace f2t::topo {

BuiltTopology build_fat_tree(net::Network& network,
                             const FatTreeOptions& options) {
  const int n = options.ports;
  if (n < 4 || n % 2 != 0) {
    throw std::invalid_argument("fat tree: ports must be even and >= 4");
  }
  if (options.f2_rewire) {
    if (options.ring_width != 2 && options.ring_width != 4) {
      throw std::invalid_argument("fat tree: ring_width must be 2 or 4");
    }
    // Each agg/core must keep at least one downward and one upward link.
    if (options.ring_width / 2 >= n / 2) {
      throw std::invalid_argument(
          "fat tree: ring_width too large for this port count");
    }
  }
  const int half = n / 2;
  const int hosts_per_tor =
      options.hosts_per_tor >= 0 ? options.hosts_per_tor : half;
  // The checked ToR count is the unrewired one, N²/2, in both modes.
  const std::int64_t n2 = std::int64_t{n} * n;
  check_address_plan("fat tree", n2 / 2, n2 / 2, n2 / 4, hosts_per_tor,
                     options.f2_rewire);
  const int ring_width = options.f2_rewire ? options.ring_width : 0;
  const int skip = ring_width / 2;

  BuiltTopology topo = start_topology(
      network,
      options.f2_rewire ? TopologyKind::kF2Tree : TopologyKind::kFatTree, n,
      ring_width);
  // Core group j serves agg j of every pod. The rewiring frees one
  // downward port per agg per ring link pair by taking one ToR per pod out
  // of service (the paper's prototype removes both pod uplinks of S7 in
  // Fig 1(b)): the remaining ToRs keep their full uplink fan-out, which is
  // what guarantees the across neighbour always owns a working downlink
  // to the destination ToR.
  add_core_groups(topo, half, half);
  add_pods(topo, n, half, half - skip);
  wire_pods(topo);

  // Agg a of pod p uplinks to core group a, minus the `skip` cores from
  // index p (mod N/2) on, whose ports the rewiring frees for the rings.
  for (int p = 0; p < n; ++p) {
    const auto& pod = topo.pods[static_cast<std::size_t>(p)];
    for (int a = 0; a < half; ++a) {
      const auto& group = topo.core_groups[static_cast<std::size_t>(a)];
      for (int i = 0; i < half; ++i) {
        if ((i - p % half + half) % half < skip) continue;
        network.connect_default(*pod.aggs[static_cast<std::size_t>(a)],
                                *group[static_cast<std::size_t>(i)]);
      }
    }
  }

  if (options.f2_rewire) {
    for (const auto& pod : topo.pods) build_ring(topo, pod.aggs, ring_width);
    for (const auto& group : topo.core_groups) {
      build_ring(topo, group, ring_width);
    }
  }
  attach_hosts(topo, hosts_per_tor);
  return topo;
}

}  // namespace f2t::topo
