#include <gtest/gtest.h>

#include <stdexcept>
#include <unordered_set>

#include "net/network.hpp"
#include "topo/addressing.hpp"
#include "topo/f2tree.hpp"
#include "topo/fattree.hpp"
#include "topo/leafspine.hpp"
#include "topo/validate.hpp"
#include "topo/vl2.hpp"

namespace f2t::topo {
namespace {

TEST(AddressPlanScale, LegacyQuadLayoutUnchanged) {
  // The first 256 indices of every role keep the paper's exact addresses;
  // any drift here would invalidate every recorded campaign artifact.
  EXPECT_EQ(AddressPlan::tor_router_id(0).str(), "10.11.0.1");
  EXPECT_EQ(AddressPlan::tor_router_id(255).str(), "10.11.255.1");
  EXPECT_EQ(AddressPlan::agg_router_id(17).str(), "10.12.17.1");
  EXPECT_EQ(AddressPlan::core_router_id(255).str(), "10.13.255.1");
  EXPECT_EQ(AddressPlan::host_addr(3, 0).str(), "10.11.3.10");
  EXPECT_EQ(AddressPlan::tor_subnet(9).str(), "10.11.9.0/24");
}

TEST(AddressPlanScale, ExtensionBandsAreDisjoint) {
  EXPECT_EQ(AddressPlan::tor_router_id(256).str(), "10.32.0.1");
  EXPECT_EQ(AddressPlan::agg_router_id(256).str(), "10.64.0.1");
  EXPECT_EQ(AddressPlan::core_router_id(256).str(), "10.96.0.1");
  EXPECT_EQ(AddressPlan::tor_router_id(256 + 511).str(), "10.33.255.1");
  // Every role id across the full plan is globally unique.
  std::unordered_set<std::uint32_t> seen;
  for (int i = 0; i < AddressPlan::kMaxTors; i += 97) {
    EXPECT_TRUE(seen.insert(AddressPlan::tor_router_id(i).value()).second);
    EXPECT_TRUE(seen.insert(AddressPlan::agg_router_id(i).value()).second);
    EXPECT_TRUE(seen.insert(AddressPlan::core_router_id(i).value()).second);
  }
  EXPECT_THROW(AddressPlan::tor_router_id(AddressPlan::kMaxTors),
               std::out_of_range);
}

TEST(AddressPlanScale, BigFatTreesBuildCollisionFree) {
  // k = 32/48/64 exceed the legacy 256-per-role plan; the validator's
  // address check proves the extension bands never collide. One host per
  // ToR keeps the k=64 build (5120 switches) fast.
  for (const int k : {32, 48, 64}) {
    sim::Simulator sim(1);
    net::Network net(sim);
    const auto topo = build_fat_tree(
        net, FatTreeOptions{.ports = k, .hosts_per_tor = 1});
    EXPECT_EQ(topo.tors.size(), static_cast<std::size_t>(k * k / 2));
    EXPECT_EQ(topo.aggs.size(), static_cast<std::size_t>(k * k / 2));
    EXPECT_EQ(topo.cores.size(), static_cast<std::size_t>(k * k / 4));
    const auto violations = validate_topology(topo);
    EXPECT_TRUE(violations.empty())
        << "k=" << k << ": " << violations.front();
  }
}

TEST(AddressPlanScale, BigVl2AndLeafSpineBuild) {
  {
    sim::Simulator sim(1);
    net::Network net(sim);
    // n=48 VL2: 24 pairs x 24 ToRs = 576 ToRs, past the legacy plan.
    const auto topo =
        build_vl2(net, Vl2Options{.ports = 48, .hosts_per_tor = 1});
    EXPECT_EQ(topo.tors.size(), 576u);
    EXPECT_TRUE(validate_topology(topo).empty());
  }
  {
    sim::Simulator sim(1);
    net::Network net(sim);
    const auto topo = build_leaf_spine(
        net, LeafSpineOptions{.ports = 64, .hosts_per_leaf = 1});
    EXPECT_EQ(topo.tors.size(), 64u);
    EXPECT_TRUE(validate_topology(topo).empty());
  }
}

TEST(AddressPlanScale, F2RewiringKeepsBackupCover) {
  // Rewired builders rely on the Table II prefix chain, which covers only
  // the first 256 ToR subnets: big rewired builds must refuse.
  sim::Simulator sim(1);
  net::Network net(sim);
  EXPECT_THROW(
      build_fat_tree(net, FatTreeOptions{.ports = 32, .f2_rewire = true,
                                         .hosts_per_tor = 1}),
      std::invalid_argument);
  EXPECT_THROW(build_vl2(net, Vl2Options{.ports = 48, .f2_rewire = true,
                                         .hosts_per_tor = 1}),
               std::invalid_argument);
  // 258 leaves and 34 x 17 = 578 ToRs.
  EXPECT_THROW(build_leaf_spine(net, LeafSpineOptions{.ports = 260,
                                                      .f2_rewire = true,
                                                      .hosts_per_leaf = 1}),
               std::invalid_argument);
  EXPECT_THROW(build_f2tree_scaled(net, F2TreeScaledOptions{.ports = 36}),
               std::invalid_argument);
  // Every refusal comes before the first switch is built.
  EXPECT_EQ(net.node_count(), 0u);
}

TEST(AddressPlanScale, OversizedBuildsThrowBeforeBuilding) {
  // Host h of a ToR is .10+h of its /24, so the plan holds 240 per ToR;
  // the bound applies to the requested count, not to the N/2 default.
  sim::Simulator sim(1);
  net::Network net(sim);
  EXPECT_THROW(build_fat_tree(net, FatTreeOptions{.ports = 8,
                                                  .hosts_per_tor = 250}),
               std::invalid_argument);
  // Switch counts grow with N², which must not wrap around int and slip
  // under the capacity check.
  EXPECT_THROW(build_fat_tree(net, FatTreeOptions{.ports = 65536,
                                                  .hosts_per_tor = 1}),
               std::invalid_argument);
  EXPECT_THROW(
      build_f2tree_scaled(
          net, F2TreeScaledOptions{.ports = 1 << 20, .hosts_per_tor = 1}),
      std::invalid_argument);
  EXPECT_EQ(net.node_count(), 0u);
  const auto topo = build_fat_tree(
      net, FatTreeOptions{.ports = 4, .hosts_per_tor = 240});
  EXPECT_EQ(topo.hosts.back()->addr().str(), "10.11.7.249");
}

}  // namespace
}  // namespace f2t::topo
