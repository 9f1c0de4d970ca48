#include <gtest/gtest.h>

#include "core/f2tree.hpp"
#include "support/packet_tracer.hpp"

namespace f2t::net {
namespace {

TEST(PacketTracer, RecordsForwardingHops) {
  core::Testbed bed([](net::Network& n) { return topo::build_f2tree(n, 4); });
  bed.converge();
  PacketTracer tracer(bed.network());

  auto& topo = bed.topo();
  auto& src = bed.stack_of(*topo.hosts.front());
  transport::UdpSink sink(bed.stack_of(*topo.hosts.back()), 9000);
  transport::UdpCbrSender::Options so;
  so.stop = sim::millis(1);  // a handful of packets
  transport::UdpCbrSender sender(src, topo.hosts.back()->addr(), so);
  sender.start();
  bed.sim().run(sim::millis(10));

  ASSERT_GT(sink.packets_received(), 0u);
  EXPECT_GT(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.packet_count(), sender.packets_sent());
  // Every traced packet crossed tor -> agg -> core(s) -> agg -> tor; in
  // the 4-port rewired prototype inter-pod paths may need one core-ring
  // hop (each core gave up two pod links).
  const auto names = tracer.path_names(1);  // first uid from this stack
  ASSERT_GE(names.size(), 5u);
  ASSERT_LE(names.size(), 6u);
  EXPECT_EQ(names.front().substr(0, 3), "tor");
  EXPECT_EQ(names[2].substr(0, 4), "core");
  EXPECT_EQ(names.back().substr(0, 3), "tor");
}

TEST(PacketTracer, ObservesFastRerouteDetour) {
  core::Testbed bed([](net::Network& n) { return topo::build_f2tree(n, 8); });
  bed.converge();
  const auto plan =
      failure::build_condition(bed.topo(), failure::Condition::kC1);
  ASSERT_TRUE(plan.has_value());

  PacketTracer tracer(bed.network());
  auto& src = bed.stack_of(*plan->src);
  transport::UdpSink sink(bed.stack_of(*plan->dst), plan->dport);

  for (net::Link* link : plan->fail_links) {
    bed.injector().fail_at(*link, sim::millis(10));
  }
  // One probe during the fast-reroute window (after 70 ms detection,
  // before ~220 ms convergence).
  net::Packet probe;
  probe.dst = plan->dst->addr();
  probe.proto = Protocol::kUdp;
  probe.sport = plan->sport;
  probe.dport = plan->dport;
  probe.size_bytes = 100;
  bed.sim().at(sim::millis(100), [&] { src.send(probe); });
  bed.sim().run(sim::millis(150));

  ASSERT_EQ(sink.packets_received(), 1u);
  // The data plane actually relayed through the across neighbour: the
  // path contains Sx followed by another agg of the same pod.
  const auto names = tracer.path_names(1);
  ASSERT_EQ(names.size(), 6u);  // tor agg core agg agg tor
  EXPECT_EQ(names[3], plan->sx->name());
  EXPECT_EQ(names[4].substr(0, 3), "agg");
  EXPECT_NE(names[4], plan->sx->name());
}

TEST(PacketTracer, ClearResets) {
  sim::Simulator sim(1);
  Network net(sim);
  auto& sw = net.add_switch("sw", Ipv4Addr(10, 12, 0, 1));
  auto& h1 = net.add_host("h1", Ipv4Addr(10, 11, 0, 10), &sw);
  net.add_host("h2", Ipv4Addr(10, 11, 0, 11), &sw);
  (void)h1;
  PacketTracer tracer(net);
  Packet p;
  p.uid = 42;
  p.src = Ipv4Addr(10, 11, 0, 10);
  p.dst = Ipv4Addr(10, 11, 0, 11);
  p.ttl = 8;
  sim.at(0, [&] { sw.forward(p); });
  sim.run();
  EXPECT_EQ(tracer.hops_of(42).size(), 1u);
  tracer.clear();
  EXPECT_EQ(tracer.hops_of(42).size(), 0u);
  EXPECT_EQ(tracer.event_count(), 0u);
}

}  // namespace
}  // namespace f2t::net
