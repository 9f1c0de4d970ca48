#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>

#include "core/scalability.hpp"
#include "sim/simulator.hpp"
#include "topo/aspen.hpp"
#include "topo/backup_routes.hpp"
#include "topo/f2tree.hpp"
#include "topo/fattree.hpp"
#include "topo/leafspine.hpp"
#include "topo/validate.hpp"
#include "topo/vl2.hpp"

namespace f2t::topo {
namespace {

class TopologyTest : public ::testing::Test {
 protected:
  sim::Simulator sim_{1};
  net::Network network_{sim_};
};

TEST_F(TopologyTest, FatTreeCountsMatchClosedForm) {
  for (const int n : {4, 6, 8}) {
    sim::Simulator sim(1);
    net::Network network(sim);
    const auto topo = build_fat_tree(network, FatTreeOptions{.ports = n});
    EXPECT_EQ(static_cast<double>(topo.all_switches().size()),
              core::Scalability::fat_tree_switches(n))
        << "n=" << n;
    EXPECT_EQ(static_cast<double>(topo.hosts.size()),
              core::Scalability::fat_tree_nodes(n))
        << "n=" << n;
    EXPECT_TRUE(validate_topology(topo).empty());
  }
}

TEST_F(TopologyTest, FatTreeLinkCount) {
  const auto topo = build_fat_tree(network_, FatTreeOptions{.ports = 4});
  // k=4: 16 agg-tor + 16 agg-core + 16 host links.
  EXPECT_EQ(network_.link_count(), 48u);
}

TEST_F(TopologyTest, ScaledF2TreeMatchesTable1ClosedForm) {
  for (const int n : {6, 8, 10}) {
    sim::Simulator sim(1);
    net::Network network(sim);
    const auto topo = build_f2tree_scaled(network, F2TreeScaledOptions{n, -1});
    EXPECT_EQ(static_cast<double>(topo.all_switches().size()),
              core::Scalability::f2tree_switches(n))
        << "n=" << n;
    EXPECT_EQ(static_cast<double>(topo.hosts.size()),
              core::Scalability::f2tree_nodes(n))
        << "n=" << n;
    EXPECT_TRUE(validate_topology(topo).empty());
  }
}

TEST_F(TopologyTest, RewiredF2TreeSacrificesOneTorPerPod) {
  // The prototype transformation (Fig 1(b)) takes one ToR per pod out of
  // service to free one downward port on every aggregation switch; the
  // remaining ToRs keep their full uplink fan-out.
  sim::Simulator sim_a(1), sim_b(1);
  net::Network fat(sim_a), f2(sim_b);
  const auto fat_topo = build_fat_tree(fat, FatTreeOptions{.ports = 8});
  const auto f2_topo = build_f2tree(f2, 8);
  EXPECT_EQ(fat_topo.tors.size(), 32u);
  EXPECT_EQ(f2_topo.tors.size(), 24u);  // 8 pods x (4 - 1)
  EXPECT_EQ(f2_topo.hosts.size(), 96u);
  EXPECT_TRUE(validate_topology(f2_topo).empty());
  // Every agg keeps a downlink to every in-service ToR of its pod.
  for (const auto& pod : f2_topo.pods) {
    for (const auto* agg : pod.aggs) {
      for (const auto* tor : pod.tors) {
        EXPECT_NE(f2.find_link(*agg, *tor), nullptr)
            << agg->name() << " " << tor->name();
      }
    }
  }
}

TEST_F(TopologyTest, RewiredF2TreeRespectsPortBudget) {
  const auto topo = build_f2tree(network_, 8);
  for (const auto* sw : topo.all_switches()) {
    EXPECT_LE(static_cast<int>(sw->port_count()), 8) << sw->name();
  }
}

TEST_F(TopologyTest, RewiredF2TreeEveryAggAndCoreHasRing) {
  const auto topo = build_f2tree(network_, 8);
  for (const auto* sw : topo.aggs) {
    ASSERT_TRUE(topo.rings.contains(sw)) << sw->name();
    EXPECT_EQ(topo.rings.at(sw).right.size(), 1u);
    EXPECT_EQ(topo.rings.at(sw).left.size(), 1u);
  }
  for (const auto* sw : topo.cores) {
    ASSERT_TRUE(topo.rings.contains(sw)) << sw->name();
  }
  // ToRs never get across links.
  for (const auto* sw : topo.tors) {
    EXPECT_FALSE(topo.rings.contains(sw)) << sw->name();
  }
}

TEST_F(TopologyTest, RewiredF2TreeTorsKeepFullUplinkFanout) {
  const auto topo = build_f2tree(network_, 8);
  for (const auto* tor : topo.tors) {
    EXPECT_EQ(tor->port_count(), 8u) << tor->name();  // 4 up + 4 hosts
  }
}

TEST_F(TopologyTest, TestbedPrototypeN4HasDoubledAcrossLinks) {
  // Fig 1(b): 2-agg pods turn the "ring" into two parallel links.
  const auto topo = build_f2tree(network_, 4);
  for (const auto& pod : topo.pods) {
    ASSERT_EQ(pod.aggs.size(), 2u);
    const auto links = network_.find_links(*pod.aggs[0], *pod.aggs[1]);
    EXPECT_EQ(links.size(), 2u);
  }
}

TEST_F(TopologyTest, RingWidth4BuildsWhenPortsAllow) {
  const auto topo = build_f2tree(network_, 8, /*ring_width=*/4);
  EXPECT_TRUE(validate_topology(topo).empty());
  for (const auto* sw : topo.aggs) {
    EXPECT_EQ(topo.rings.at(sw).right.size(), 2u);
    EXPECT_EQ(topo.rings.at(sw).left.size(), 2u);
  }
}

TEST_F(TopologyTest, RingWidth4RejectedOnSmallSwitches) {
  EXPECT_THROW(build_f2tree(network_, 4, /*ring_width=*/4),
               std::invalid_argument);
}

TEST_F(TopologyTest, RejectsBadPortCounts) {
  EXPECT_THROW(build_fat_tree(network_, FatTreeOptions{.ports = 3}),
               std::invalid_argument);
  EXPECT_THROW(build_fat_tree(network_, FatTreeOptions{.ports = 5}),
               std::invalid_argument);
  EXPECT_THROW(build_f2tree_scaled(network_, F2TreeScaledOptions{4, -1}),
               std::invalid_argument);
}

TEST_F(TopologyTest, LeafSpineCounts) {
  const auto topo =
      build_leaf_spine(network_, LeafSpineOptions{.ports = 8});
  EXPECT_EQ(topo.cores.size(), 4u);   // spines
  EXPECT_EQ(topo.tors.size(), 8u);    // leaves
  EXPECT_EQ(topo.hosts.size(), 32u);
  EXPECT_TRUE(validate_topology(topo).empty());
}

TEST_F(TopologyTest, LeafSpineF2SacrificesTwoLeaves) {
  const auto topo = build_leaf_spine(
      network_, LeafSpineOptions{.ports = 8, .f2_rewire = true});
  EXPECT_TRUE(validate_topology(topo).empty());
  EXPECT_EQ(topo.tors.size(), 6u);  // two leaves taken out of service
  for (const auto* leaf : topo.tors) {
    EXPECT_EQ(leaf->port_count(), 8u) << leaf->name();  // 4 up + 4 hosts
  }
  for (const auto* spine : topo.cores) {
    ASSERT_TRUE(topo.rings.contains(spine));
    EXPECT_EQ(spine->port_count(), 8u) << spine->name();  // 6 down + 2 ring
  }
}

TEST_F(TopologyTest, Vl2CountsMatchTable1) {
  const auto topo = build_vl2(network_, Vl2Options{.ports = 8});
  EXPECT_EQ(static_cast<double>(topo.hosts.size()),
            core::Scalability::vl2_nodes(8));
  EXPECT_TRUE(validate_topology(topo).empty());
}

TEST_F(TopologyTest, Vl2F2AggsGetRings) {
  const auto topo =
      build_vl2(network_, Vl2Options{.ports = 8, .f2_rewire = true});
  EXPECT_TRUE(validate_topology(topo).empty());
  for (const auto* agg : topo.aggs) {
    ASSERT_TRUE(topo.rings.contains(agg)) << agg->name();
  }
  for (const auto* inter : topo.cores) {
    EXPECT_FALSE(topo.rings.contains(inter)) << inter->name();
  }
}

TEST_F(TopologyTest, BackupRoutesInstalledOnEveryRingSwitch) {
  auto topo = build_f2tree(network_, 8);
  const auto report = install_backup_routes(topo);
  EXPECT_EQ(report.switches_configured,
            static_cast<int>(topo.aggs.size() + topo.cores.size()));
  EXPECT_EQ(report.routes_installed, report.switches_configured * 2);
  for (const auto& [sw, ring] : topo.rings) {
    const auto r16 = sw->fib().find(net::Prefix::parse("10.11.0.0/16"),
                                    routing::RouteSource::kStatic);
    const auto r15 = sw->fib().find(net::Prefix::parse("10.10.0.0/15"),
                                    routing::RouteSource::kStatic);
    ASSERT_TRUE(r16.has_value()) << sw->name();
    ASSERT_TRUE(r15.has_value()) << sw->name();
    // /16 points rightward, /15 leftward (the paper's loop avoidance).
    EXPECT_EQ(r16->next_hops.at(0).port, ring.right.at(0)) << sw->name();
    EXPECT_EQ(r15->next_hops.at(0).port, ring.left.at(0)) << sw->name();
  }
}

/// FNV-1a over everything construction order decides: switches (name,
/// router id) in creation order, links (endpoint names, ports) in link
/// order, each switch's ring ports, and hosts (name, address). The DOT
/// export omits ports and hosts, so this is what pins them.
std::uint64_t wiring_fingerprint(net::Network& network,
                                 const BuiltTopology& topo) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto byte = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  };
  const auto word = [&byte](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  const auto text = [&byte](const std::string& s) {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
    byte(0);
  };
  for (const net::L3Switch* sw : network.switches()) {
    text(sw->name());
    word(sw->router_id().value());
  }
  for (const net::Link* link : network.links()) {
    text(link->end_a().node->name());
    word(link->end_a().port);
    text(link->end_b().node->name());
    word(link->end_b().port);
  }
  for (const net::L3Switch* sw : network.switches()) {
    const auto it = topo.rings.find(sw);
    if (it == topo.rings.end()) continue;
    text(sw->name());
    word(static_cast<std::uint32_t>(it->second.right.size()));
    for (const net::PortId port : it->second.right) word(port);
    word(static_cast<std::uint32_t>(it->second.left.size()));
    for (const net::PortId port : it->second.left) word(port);
  }
  for (const net::Host* host : network.hosts()) {
    text(host->name());
    word(host->addr().value());
  }
  return h;
}

TEST_F(TopologyTest, WiringFingerprintPinned) {
  // Campaign artifacts and the perfbench reference hashes depend on the
  // exact construction order, so any builder change must keep these.
  using Build = std::function<BuiltTopology(net::Network&)>;
  const struct {
    const char* name;
    Build build;
    std::uint64_t expected;
  } cases[] = {
      {"fat-4", [](net::Network& n) {
         return build_fat_tree(n, FatTreeOptions{.ports = 4});
       }, 0xf0ff395f773075c9ull},
      {"fat-8", [](net::Network& n) {
         return build_fat_tree(n, FatTreeOptions{.ports = 8});
       }, 0xfa9c63e58d3d5557ull},
      {"f2-4", [](net::Network& n) { return build_f2tree(n, 4); },
       0x5e56b6dd4a6c8fd9ull},
      {"f2-8", [](net::Network& n) { return build_f2tree(n, 8); },
       0x057ac28af95fb0edull},
      {"f2-8-ring4", [](net::Network& n) { return build_f2tree(n, 8, 4); },
       0x6ff9a18034b32c63ull},
      {"f2scaled-6", [](net::Network& n) {
         return build_f2tree_scaled(n, F2TreeScaledOptions{.ports = 6});
       }, 0xc275b7e3065dc69eull},
      {"f2scaled-8", [](net::Network& n) {
         return build_f2tree_scaled(n, F2TreeScaledOptions{.ports = 8});
       }, 0x148a1dca166d143dull},
      {"leafspine-8", [](net::Network& n) {
         return build_leaf_spine(n, LeafSpineOptions{.ports = 8});
       }, 0x08e82c8806229addull},
      {"leafspine-f2-8", [](net::Network& n) {
         return build_leaf_spine(
             n, LeafSpineOptions{.ports = 8, .f2_rewire = true});
       }, 0x55ea0d489728d375ull},
      {"vl2-8", [](net::Network& n) {
         return build_vl2(n, Vl2Options{.ports = 8});
       }, 0x3621b323e32c430bull},
      {"vl2-f2-8", [](net::Network& n) {
         return build_vl2(n, Vl2Options{.ports = 8, .f2_rewire = true});
       }, 0x39ff259eec6b0fb7ull},
      {"aspen-8", [](net::Network& n) {
         return build_aspen_tree(n, AspenOptions{.ports = 8});
       }, 0x57f7b0dc743aa81bull},
      {"aspen-12-f2", [](net::Network& n) {
         return build_aspen_tree(
             n, AspenOptions{.ports = 12, .fault_tolerance = 2});
       }, 0x51fc5a6d7fcae9cfull},
  };
  for (const auto& c : cases) {
    sim::Simulator sim(1);
    net::Network network(sim);
    const BuiltTopology topo = c.build(network);
    EXPECT_EQ(wiring_fingerprint(network, topo), c.expected)
        << c.name << ": 0x" << std::hex << wiring_fingerprint(network, topo);
  }
}

TEST_F(TopologyTest, ScalabilityFormulas) {
  using S = core::Scalability;
  EXPECT_DOUBLE_EQ(S::fat_tree_nodes(8), 128);
  EXPECT_DOUBLE_EQ(S::f2tree_nodes(8), 72);
  EXPECT_DOUBLE_EQ(S::fat_tree_switches(8), 80);
  EXPECT_DOUBLE_EQ(S::f2tree_switches(8), 54);
  // The paper's headline: at 128 ports F²Tree supports ~2% fewer nodes.
  EXPECT_NEAR(S::f2tree_node_cost_fraction(128), 0.031, 0.01);
  EXPECT_LT(S::f2tree_node_cost_fraction(128), 0.035);
  const auto rows = core::table1(8);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[2].name, "F2Tree");
  EXPECT_THROW(core::table1(5), std::invalid_argument);
  EXPECT_THROW(core::table1(8, 0), std::invalid_argument);
}

}  // namespace
}  // namespace f2t::topo
