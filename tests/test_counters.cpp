#include <gtest/gtest.h>

#include "net/network.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"
#include "support/packet_tracer.hpp"

namespace f2t {
namespace {

// Coverage for counter paths the recovery-centric suites never exercise:
// local switch drops, control-plane ingress accounting, ECN marking and
// tracer state reset between experiment phases.

net::Packet data_packet(net::Ipv4Addr dst, std::uint8_t ttl = 64) {
  net::Packet p;
  p.dst = dst;
  p.size_bytes = 100;
  p.ttl = ttl;
  return p;
}

TEST(SwitchCounters, NoRouteDropIsCountedAndReported) {
  sim::Simulator sim(1);
  net::Network net(sim);
  auto& a = net.add_switch("a", net::Ipv4Addr(10, 0, 0, 1));

  net::L3Switch::DropReason seen{};
  int drops = 0;
  a.set_drop_handler([&](const net::Packet&, net::L3Switch::DropReason r) {
    seen = r;
    ++drops;
  });

  EXPECT_FALSE(a.forward(data_packet(net::Ipv4Addr(10, 99, 0, 1))));
  EXPECT_EQ(a.counters().dropped_no_route, 1u);
  EXPECT_EQ(a.counters().forwarded, 0u);
  EXPECT_EQ(drops, 1);
  EXPECT_EQ(seen, net::L3Switch::DropReason::kNoRoute);
}

TEST(SwitchCounters, TtlExpiryIsCountedAndReported) {
  sim::Simulator sim(1);
  net::Network net(sim);
  auto& a = net.add_switch("a", net::Ipv4Addr(10, 0, 0, 1));

  net::L3Switch::DropReason seen{};
  a.set_drop_handler([&seen](const net::Packet&,
                             net::L3Switch::DropReason r) { seen = r; });

  // ttl=1 decrements to zero at this hop: the packet dies here even if a
  // route exists, and the FIB is never consulted.
  EXPECT_FALSE(a.forward(data_packet(net::Ipv4Addr(10, 99, 0, 1), 1)));
  EXPECT_EQ(a.counters().dropped_ttl, 1u);
  EXPECT_EQ(a.counters().dropped_no_route, 0u);
  EXPECT_EQ(seen, net::L3Switch::DropReason::kTtlExpired);
}

TEST(SwitchCounters, ControlPacketsAreCountedNotForwarded) {
  sim::Simulator sim(1);
  net::Network net(sim);
  auto& a = net.add_switch("a", net::Ipv4Addr(10, 0, 0, 1));

  int control_seen = 0;
  net::PortId control_port = net::kInvalidPort;
  a.add_control_handler([&](net::PortId p, const net::Packet&) {
    ++control_seen;
    control_port = p;
  });

  net::Packet p = data_packet(net::Ipv4Addr(10, 99, 0, 1));
  p.proto = net::Protocol::kRouting;
  a.receive(2, p);
  EXPECT_EQ(a.counters().control_in, 1u);
  EXPECT_EQ(a.counters().forwarded, 0u);
  EXPECT_EQ(control_seen, 1);
  EXPECT_EQ(control_port, 2);

  // A switch without a handler still counts the packet, not forwards it.
  auto& bare = net.add_switch("bare", net::Ipv4Addr(10, 0, 0, 2));
  ASSERT_EQ(bare.control_handler_count(), 0u);
  bare.receive(2, p);
  EXPECT_EQ(bare.counters().control_in, 1u);
  EXPECT_EQ(bare.counters().forwarded, 0u);
}

TEST(SwitchCounters, LocalDeliveryIsCounted) {
  sim::Simulator sim(1);
  net::Network net(sim);
  auto& a = net.add_switch("a", net::Ipv4Addr(10, 0, 0, 1));
  a.receive(0, data_packet(net::Ipv4Addr(10, 0, 0, 1)));
  EXPECT_EQ(a.counters().local_delivered, 1u);
  EXPECT_EQ(a.counters().forwarded, 0u);
}

TEST(DropTailQueue, EcnMarksAboveThreshold) {
  net::DropTailQueue q(4);
  q.set_ecn_threshold(2);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(q.push(data_packet(net::Ipv4Addr(10, 0, 0, 9))));
  }
  // Pushes 3 and 4 arrive while size() >= 2, so exactly those are marked.
  EXPECT_EQ(q.marked(), 2u);
  EXPECT_EQ(q.enqueued(), 4u);
  EXPECT_EQ(q.dropped(), 0u);
  EXPECT_FALSE(q.pop()->ecn_ce);
  EXPECT_FALSE(q.pop()->ecn_ce);
  EXPECT_TRUE(q.pop()->ecn_ce);
  EXPECT_TRUE(q.pop()->ecn_ce);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(DropTailQueue, ZeroThresholdDisablesMarking) {
  net::DropTailQueue q(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(q.push(data_packet(net::Ipv4Addr(10, 0, 0, 9))));
  }
  EXPECT_EQ(q.marked(), 0u);
  EXPECT_FALSE(q.push(data_packet(net::Ipv4Addr(10, 0, 0, 9))));  // tail drop
  EXPECT_EQ(q.dropped(), 1u);
}

TEST(PacketTracer, ClearResetsStateBetweenPhases) {
  sim::Simulator sim(1);
  net::Network net(sim);
  auto& a = net.add_switch("a", net::Ipv4Addr(10, 0, 0, 1));
  auto& b = net.add_switch("b", net::Ipv4Addr(10, 0, 0, 2));
  net.connect(a, b);
  a.fib().install(routing::Route{net::Prefix::parse("10.11.0.0/16"),
                                 {routing::NextHop{0, b.router_id()}},
                                 routing::RouteSource::kStatic});
  net::PacketTracer tracer(net);

  net::Packet p = data_packet(net::Ipv4Addr(10, 11, 0, 1));
  p.uid = 5;
  EXPECT_TRUE(a.forward(p));
  EXPECT_EQ(tracer.event_count(), 1u);
  EXPECT_EQ(tracer.packet_count(), 1u);
  ASSERT_EQ(tracer.hops_of(5).size(), 1u);
  EXPECT_EQ(tracer.hops_of(5)[0].egress, 0);

  // Phase boundary: clear() must forget everything but keep tracing.
  tracer.clear();
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.packet_count(), 0u);
  EXPECT_TRUE(tracer.hops_of(5).empty());

  p.uid = 6;
  EXPECT_TRUE(a.forward(p));
  EXPECT_EQ(tracer.event_count(), 1u);
  EXPECT_EQ(tracer.hops_of(6).size(), 1u);
  EXPECT_TRUE(tracer.hops_of(5).empty());
}

}  // namespace
}  // namespace f2t
