#include "topo/vl2.hpp"

#include <stdexcept>

namespace f2t::topo {

BuiltTopology build_vl2(net::Network& network, const Vl2Options& options) {
  const int n = options.ports;
  if (n < 4 || n % 2 != 0) {
    throw std::invalid_argument("vl2: ports must be even and >= 4");
  }
  const int ints = n / 2;
  const int pairs = n / 2;
  // A pair of aggs serves N/2 dual-homed ToRs; the F² rewiring takes one
  // ToR per pair out of service to free one downward port on each agg of
  // the pair, keeping the rest dual-homed.
  const int tors_per_pair = options.f2_rewire ? n / 2 - 1 : n / 2;
  check_address_plan("vl2", std::int64_t{pairs} * tors_per_pair, n, ints,
                     options.hosts_per_tor, options.f2_rewire);

  BuiltTopology topo = start_topology(network, TopologyKind::kVl2, n,
                                      options.f2_rewire ? 2 : 0);
  add_core_groups(topo, 1, ints, "int");
  add_pods(topo, pairs, 2, tors_per_pair);

  // Aggregation <-> intermediate full bipartite mesh. With the rewiring,
  // aggregation switch a frees one uplink (to intermediate a mod N/2).
  for (std::size_t a = 0; a < topo.aggs.size(); ++a) {
    for (std::size_t i = 0; i < topo.cores.size(); ++i) {
      if (options.f2_rewire && i == a % topo.cores.size()) continue;
      network.connect_default(*topo.aggs[a], *topo.cores[i]);
    }
  }

  // Dual-homed ToRs (all in-service ToRs keep both uplinks). ToR-major,
  // unlike wire_pods: the link order, and so the link ids, follow it.
  for (const auto& pod : topo.pods) {
    for (net::L3Switch* tor : pod.tors) {
      for (net::L3Switch* agg : pod.aggs) network.connect_default(*agg, *tor);
    }
  }

  // Per-pair across rings: two parallel links between the pair members
  // (exactly like a 2-agg fat-tree pod in the testbed prototype).
  if (options.f2_rewire) {
    for (const auto& pod : topo.pods) build_ring(topo, pod.aggs, 2);
  }
  attach_hosts(topo, options.hosts_per_tor);
  return topo;
}

}  // namespace f2t::topo
