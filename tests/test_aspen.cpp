#include <gtest/gtest.h>

#include <limits>

#include "core/f2tree.hpp"
#include "topo/aspen.hpp"

namespace f2t::topo {
namespace {

TEST(Aspen, CountsMatchTable1ClosedForm) {
  for (const auto& [n, f] : std::vector<std::pair<int, int>>{
           {8, 1}, {8, 3}, {12, 1}, {12, 2}}) {
    sim::Simulator sim(1);
    net::Network net(sim);
    const auto topo = build_aspen_tree(
        net, AspenOptions{.ports = n, .fault_tolerance = f,
                          .hosts_per_tor = -1});
    EXPECT_EQ(static_cast<double>(topo.hosts.size()),
              core::Scalability::aspen_nodes(n, f))
        << "n=" << n << " f=" << f;
    EXPECT_EQ(static_cast<double>(topo.all_switches().size()),
              core::Scalability::aspen_switches(n, f))
        << "n=" << n << " f=" << f;
    EXPECT_TRUE(validate_topology(topo).empty());
  }
}

TEST(Aspen, FaultTolerantLayerHasParallelLinks) {
  sim::Simulator sim(1);
  net::Network net(sim);
  const auto topo = build_aspen_tree(
      net, AspenOptions{.ports = 8, .fault_tolerance = 1, .hosts_per_tor = -1});
  auto* agg = topo.pods[0].aggs[0];
  auto* core = topo.core_groups[0][0];
  EXPECT_EQ(net.find_links(*agg, *core).size(), 2u);  // f+1 = 2
  // ToR layer stays single-homed per agg.
  auto* tor = topo.pods[0].tors[0];
  EXPECT_EQ(net.find_links(*agg, *tor).size(), 1u);
}

TEST(Aspen, RejectsBadParameters) {
  sim::Simulator sim(1);
  net::Network net(sim);
  EXPECT_THROW(build_aspen_tree(net, AspenOptions{.ports = 8,
                                                  .fault_tolerance = 0,
                                                  .hosts_per_tor = -1}),
               std::invalid_argument);
  EXPECT_THROW(build_aspen_tree(net, AspenOptions{.ports = 8,
                                                  .fault_tolerance = 2,
                                                  .hosts_per_tor = -1}),
               std::invalid_argument);  // 8 % 6 != 0
  EXPECT_THROW(build_aspen_tree(net, AspenOptions{.ports = 7,
                                                  .fault_tolerance = 1,
                                                  .hosts_per_tor = -1}),
               std::invalid_argument);
  // 2*(f+1) must not overflow into a division by zero.
  constexpr int kHuge = std::numeric_limits<int>::max();
  EXPECT_THROW(build_aspen_tree(net, AspenOptions{.ports = 8,
                                                  .fault_tolerance = kHuge,
                                                  .hosts_per_tor = -1}),
               std::invalid_argument);
}

TEST(Aspen, CoreLayerFailureRecoversViaEcmpOverDuplicates) {
  core::Testbed bed([](net::Network& n) {
    return build_aspen_tree(n, AspenOptions{.ports = 8, .fault_tolerance = 1,
                                            .hosts_per_tor = -1});
  });
  bed.converge();
  const auto plan =
      failure::build_condition(bed.topo(), failure::Condition::kC2);
  ASSERT_TRUE(plan.has_value());
  transport::UdpSink sink(bed.stack_of(*plan->dst), plan->dport);
  transport::UdpCbrSender::Options so;
  so.sport = plan->sport;
  so.dport = plan->dport;
  so.stop = sim::seconds(2);
  transport::UdpCbrSender sender(bed.stack_of(*plan->src), plan->dst->addr(),
                                 so);
  sender.start();
  for (net::Link* link : plan->fail_links) {
    bed.injector().fail_at(*link, sim::millis(380));
  }
  bed.sim().run(sim::seconds(3));
  std::vector<sim::Time> arrivals;
  for (const auto& a : sink.arrivals()) arrivals.push_back(a.at);
  const auto loss = stats::find_connectivity_loss(arrivals, sim::millis(380));
  ASSERT_TRUE(loss.has_value());
  EXPECT_LE(loss->duration(), sim::millis(70));  // ECMP over the twin link
}

TEST(Aspen, TorLayerFailureStillControlPlaneBound) {
  core::Testbed bed([](net::Network& n) {
    return build_aspen_tree(n, AspenOptions{.ports = 8, .fault_tolerance = 1,
                                            .hosts_per_tor = -1});
  });
  bed.converge();
  const auto plan =
      failure::build_condition(bed.topo(), failure::Condition::kC1);
  ASSERT_TRUE(plan.has_value());
  transport::UdpSink sink(bed.stack_of(*plan->dst), plan->dport);
  transport::UdpCbrSender::Options so;
  so.sport = plan->sport;
  so.dport = plan->dport;
  so.stop = sim::seconds(2);
  transport::UdpCbrSender sender(bed.stack_of(*plan->src), plan->dst->addr(),
                                 so);
  sender.start();
  for (net::Link* link : plan->fail_links) {
    bed.injector().fail_at(*link, sim::millis(380));
  }
  bed.sim().run(sim::seconds(3));
  std::vector<sim::Time> arrivals;
  for (const auto& a : sink.arrivals()) arrivals.push_back(a.at);
  const auto loss = stats::find_connectivity_loss(arrivals, sim::millis(380));
  ASSERT_TRUE(loss.has_value());
  EXPECT_GE(loss->duration(), sim::millis(260));  // the paper's critique
}

}  // namespace
}  // namespace f2t::topo
