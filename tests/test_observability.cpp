#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/f2tree.hpp"
#include "core/runner.hpp"
#include "obs/attach.hpp"
#include "obs/timeline.hpp"
#include "support/packet_tracer.hpp"

namespace f2t {
namespace {

// ---------------------------------------------------------------- metrics

TEST(Metrics, CounterGaugeHistogramRoundTrip) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("a.count");
  c.inc();
  c.inc(4);
  registry.gauge("a.gauge").set(2.5);
  obs::Histogram& h = registry.histogram("a.hist", {1, 10, 100});
  h.observe(0.5);
  h.observe(50);
  h.observe(1e6);  // overflow bucket

  const auto snap = registry.snapshot(sim::millis(7));
  EXPECT_EQ(snap.at, sim::millis(7));
  EXPECT_DOUBLE_EQ(snap.value_of("a.count"), 5.0);
  EXPECT_DOUBLE_EQ(snap.value_of("a.gauge"), 2.5);
  EXPECT_DOUBLE_EQ(snap.value_of("missing"), -1.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 3u);
  ASSERT_EQ(snap.histograms[0].counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(snap.histograms[0].counts[0], 1u);
  EXPECT_EQ(snap.histograms[0].counts[2], 1u);
  EXPECT_EQ(snap.histograms[0].counts[3], 1u);
}

TEST(Metrics, SameNameSameKindIsShared) {
  obs::MetricsRegistry registry;
  registry.counter("shared").inc();
  registry.counter("shared").inc();
  EXPECT_EQ(registry.counter("shared").value(), 2u);
  // Same name, different kind: loud failure, not silent shadowing.
  EXPECT_THROW(registry.gauge("shared"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("shared", {1.0}), std::invalid_argument);
}

TEST(Metrics, ProbesAreSampledAtSnapshotTime) {
  obs::MetricsRegistry registry;
  double source = 1;
  registry.register_probe("probe", [&source] { return source; });
  source = 42;
  const auto snap = registry.snapshot(0);
  EXPECT_DOUBLE_EQ(snap.value_of("probe"), 42.0);
}

TEST(Metrics, JsonIsSchemaVersioned) {
  obs::MetricsRegistry registry;
  registry.counter("x").inc();
  registry.histogram("h", {1}).observe(2);
  std::ostringstream os;
  registry.snapshot(sim::millis(3)).write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"at_ns\": 3000000"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"x\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// ---------------------------------------------------------------- journal

TEST(Journal, RecordsAndSerializesJsonl) {
  obs::EventJournal journal;
  obs::Event down;
  down.at = sim::millis(10);
  down.type = obs::EventType::kLinkDown;
  down.link = 3;
  journal.record(down);
  obs::Event drop;
  drop.at = sim::millis(11);
  drop.type = obs::EventType::kPacketDrop;
  drop.reason = obs::DropReason::kLinkDown;
  drop.proto = static_cast<std::uint8_t>(net::Protocol::kUdp);
  drop.uid = 99;
  journal.record(drop);

  std::ostringstream os;
  journal.write_jsonl(os);
  const std::string text = os.str();
  // Header line + one line per event.
  EXPECT_NE(text.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"stream\": \"f2t-events\""), std::string::npos);
  EXPECT_NE(text.find("\"events\": 2"), std::string::npos);
  EXPECT_NE(text.find("\"type\": \"link_down\""), std::string::npos);
  EXPECT_NE(text.find("\"reason\": \"link_down\""), std::string::npos);
  std::size_t lines = 0;
  for (const char ch : text) {
    if (ch == '\n') ++lines;
  }
  EXPECT_EQ(lines, 3u);

  journal.clear();
  EXPECT_EQ(journal.size(), 0u);
}

TEST(Journal, BoundedCapacityDropsAndCounts) {
  obs::EventJournal journal;
  EXPECT_EQ(journal.capacity(), obs::EventJournal::kDefaultCapacity);
  journal.set_capacity(2);
  obs::Event e;
  e.type = obs::EventType::kPacketDelivered;
  for (int i = 0; i < 5; ++i) {
    e.at = sim::millis(i);
    journal.record(e);
  }
  // The earliest records are kept (the ones the timeline needs), the
  // overflow is counted instead of silently truncated.
  EXPECT_EQ(journal.size(), 2u);
  EXPECT_EQ(journal.dropped(), 3u);
  EXPECT_EQ(journal.events().back().at, sim::millis(1));

  std::ostringstream os;
  journal.write_jsonl(os);
  EXPECT_NE(os.str().find("\"dropped\": 3"), std::string::npos);

  // An unbounded-in-practice journal never emits the key: pre-existing
  // artifacts stay byte-identical.
  obs::EventJournal calm;
  calm.record(e);
  std::ostringstream os2;
  calm.write_jsonl(os2);
  EXPECT_EQ(os2.str().find("\"dropped\""), std::string::npos);

  journal.clear();
  EXPECT_EQ(journal.dropped(), 0u);
}

TEST(Journal, EveryEventTypeHasADistinctName) {
  // Guard for new EventType values: event_type_name must cover the whole
  // enum with unique, non-placeholder names (the JSONL schema keys on
  // them). Fails when someone appends a type without a name, or forgets
  // to bump kEventTypeCount.
  std::set<std::string> names;
  for (std::size_t i = 0; i < obs::kEventTypeCount; ++i) {
    const char* name =
        obs::event_type_name(static_cast<obs::EventType>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "?") << "EventType value " << i << " lacks a name";
    EXPECT_TRUE(names.insert(name).second)
        << "duplicate event_type_name: " << name;
  }
  EXPECT_EQ(names.size(), obs::kEventTypeCount);
}

// --------------------------------------------------------------- timeline

TEST(Timeline, DerivesMilestonesFromSyntheticJournal) {
  std::vector<obs::Event> events;
  auto push = [&events](sim::Time at, obs::EventType type) {
    obs::Event e;
    e.at = at;
    e.type = type;
    events.push_back(e);
  };
  // Steady deliveries every 1 ms, failure at 100 ms, gap until 160 ms.
  for (sim::Time t = sim::millis(1); t <= sim::millis(100);
       t += sim::millis(1)) {
    obs::Event e;
    e.at = t;
    e.type = obs::EventType::kPacketDelivered;
    e.proto = static_cast<std::uint8_t>(net::Protocol::kUdp);
    events.push_back(e);
  }
  push(sim::millis(100), obs::EventType::kLinkDown);
  events.back().link = 7;
  // Two data drops inside the gap, one control drop (must not count).
  obs::Event d;
  d.at = sim::millis(105);
  d.type = obs::EventType::kPacketDrop;
  d.proto = static_cast<std::uint8_t>(net::Protocol::kUdp);
  events.push_back(d);
  d.at = sim::millis(110);
  events.push_back(d);
  d.at = sim::millis(112);
  d.proto = static_cast<std::uint8_t>(net::Protocol::kRouting);
  events.push_back(d);
  push(sim::millis(160), obs::EventType::kPortDetectedDown);
  push(sim::millis(161), obs::EventType::kBackupActivated);
  push(sim::millis(360), obs::EventType::kSpfRun);
  push(sim::millis(370), obs::EventType::kFibInstall);
  for (sim::Time t = sim::millis(162); t <= sim::millis(400);
       t += sim::millis(1)) {
    obs::Event e;
    e.at = t;
    e.type = obs::EventType::kPacketDelivered;
    e.proto = static_cast<std::uint8_t>(net::Protocol::kUdp);
    events.push_back(e);
  }

  const obs::RecoveryTimeline timeline(events);
  ASSERT_EQ(timeline.failures().size(), 1u);
  const auto& f = timeline.failures()[0];
  EXPECT_EQ(f.failed_at, sim::millis(100));
  ASSERT_EQ(f.links.size(), 1u);
  EXPECT_EQ(f.links[0], 7);
  EXPECT_EQ(f.time_to_detect(), sim::millis(60));
  EXPECT_EQ(f.backup_at, sim::millis(161));
  EXPECT_EQ(f.gap_start, sim::millis(100));
  EXPECT_EQ(f.gap_end, sim::millis(162));
  EXPECT_EQ(f.gap(), sim::millis(62));
  EXPECT_EQ(f.converged_at, sim::millis(370));
  EXPECT_EQ(f.packets_lost, 2u);  // routing drop excluded
  EXPECT_EQ(timeline.total_data_drops(), 2u);

  std::ostringstream os;
  timeline.print(os);
  EXPECT_NE(os.str().find("failure #1"), std::string::npos);
}

TEST(Timeline, GroupsSimultaneousLinkCutsIntoOneEpisode) {
  std::vector<obs::Event> events;
  for (int link = 0; link < 3; ++link) {
    obs::Event e;
    e.at = sim::millis(50);
    e.type = obs::EventType::kLinkDown;
    e.link = link;
    events.push_back(e);
  }
  const obs::RecoveryTimeline timeline(events);
  ASSERT_EQ(timeline.failures().size(), 1u);
  EXPECT_EQ(timeline.failures()[0].links.size(), 3u);
  EXPECT_FALSE(timeline.failures()[0].detected());
  EXPECT_FALSE(timeline.failures()[0].rerouted());
}

// -------------------------------------------------------------- multi-tap

TEST(ForwardTaps, MultipleTapsCoexist) {
  sim::Simulator sim(1);
  net::Network net(sim);
  auto& a = net.add_switch("a", net::Ipv4Addr(10, 0, 0, 1));
  auto& b = net.add_switch("b", net::Ipv4Addr(10, 0, 0, 2));
  net.connect(a, b);
  a.fib().install(routing::Route{net::Prefix::parse("10.11.0.0/16"),
                                 {routing::NextHop{0, b.router_id()}},
                                 routing::RouteSource::kStatic});
  int first = 0;
  int second = 0;
  a.add_forward_tap(
      [&first](const net::Packet&, net::PortId, net::PortId) { ++first; });
  a.add_forward_tap(
      [&second](const net::Packet&, net::PortId, net::PortId) { ++second; });
  EXPECT_EQ(a.forward_tap_count(), 2u);

  net::Packet p;
  p.dst = net::Ipv4Addr(10, 11, 0, 1);
  p.size_bytes = 100;
  EXPECT_TRUE(a.forward(p));
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(ForwardTaps, TracerAndJournalCoexist) {
  sim::Simulator sim(1);
  net::Network net(sim);
  auto& a = net.add_switch("a", net::Ipv4Addr(10, 0, 0, 1));
  auto& b = net.add_switch("b", net::Ipv4Addr(10, 0, 0, 2));
  net.connect(a, b);
  a.fib().install(routing::Route{net::Prefix::parse("10.11.0.0/16"),
                                 {routing::NextHop{0, b.router_id()}},
                                 routing::RouteSource::kStatic});
  net::PacketTracer tracer(net);
  obs::EventJournal journal;
  obs::attach_journal(sim, net, journal);

  net::Packet p;
  p.uid = 77;
  p.dst = net::Ipv4Addr(10, 11, 0, 1);
  p.size_bytes = 100;
  EXPECT_TRUE(a.forward(p));
  EXPECT_EQ(tracer.event_count(), 1u);
  EXPECT_EQ(tracer.hops_of(77).size(), 1u);
}

// -------------------------------------------------------------- log level

TEST(Logging, ParseLevelRoundTrip) {
  using sim::LogLevel;
  using sim::Logger;
  EXPECT_EQ(Logger::parse_level("trace"), LogLevel::kTrace);
  EXPECT_EQ(Logger::parse_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(Logger::parse_level("info"), LogLevel::kInfo);
  EXPECT_EQ(Logger::parse_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(Logger::parse_level("error"), LogLevel::kError);
  EXPECT_EQ(Logger::parse_level("off"), LogLevel::kOff);
  EXPECT_EQ(Logger::parse_level("WARN"), LogLevel::kWarn);
  EXPECT_EQ(Logger::parse_level("bogus"), std::nullopt);
  EXPECT_EQ(Logger::parse_level(""), std::nullopt);
}

// ------------------------------------------------------------ integration

TEST(Observability, DisabledByDefaultMeansNoHooks) {
  core::Testbed bed([](net::Network& n) { return topo::build_f2tree(n, 4); });
  EXPECT_FALSE(bed.observing());
  EXPECT_THROW(bed.obs(), std::logic_error);
  for (net::L3Switch* sw : bed.network().switches()) {
    EXPECT_EQ(sw->forward_tap_count(), 0u);
  }
}

TEST(Observability, TimelineMatchesConnectivityLossMeasurement) {
  // The acceptance gate of this subsystem: the journal-derived recovery
  // timeline must reproduce the paper's probe-based gap measurement for
  // the same run — same gap duration, same packets lost — and report a
  // detection time equal to the configured 60 ms detection delay.
  core::RunKnobs knobs;
  knobs.config.observe = true;
  const auto builder = core::topology_builder("f2", 4);
  const auto r =
      core::run_udp_condition(builder, failure::Condition::kC1, knobs);
  ASSERT_TRUE(r.ok);
  ASSERT_TRUE(r.observation.enabled);
  ASSERT_FALSE(r.observation.events.empty());

  const obs::RecoveryTimeline timeline(r.observation.events);
  ASSERT_EQ(timeline.failures().size(), 1u);
  const auto& f = timeline.failures()[0];
  EXPECT_EQ(f.failed_at, knobs.fail_at);
  ASSERT_TRUE(f.rerouted());
  // Identical by construction: both run find_connectivity_loss over the
  // same delivery instants.
  EXPECT_EQ(f.gap(), r.connectivity_loss);
  EXPECT_EQ(f.packets_lost, r.packets_lost);
  ASSERT_TRUE(f.detected());
  EXPECT_EQ(f.time_to_detect(), knobs.config.detection.down_delay);
  // F²Tree fast reroute: the backup activates right after detection and
  // well before the control plane converges.
  ASSERT_GE(f.backup_at, f.detected_at);
  ASSERT_TRUE(f.converged());
  EXPECT_GT(f.converged_at, f.backup_at);

  // Engine profile and metrics are filled in.
  EXPECT_GT(r.observation.profile.events_executed, 0u);
  EXPECT_GT(r.observation.profile.sim_seconds, 0.0);
  EXPECT_GT(r.observation.metrics.value_of("net.forwarded"), 0.0);
  EXPECT_GT(r.observation.metrics.value_of("sim.events_executed"), 0.0);
  EXPECT_GT(r.observation.metrics.value_of("detection.detections_fired"),
            0.0);
  EXPECT_GT(r.observation.metrics.value_of("ospf.spf_runs"), 0.0);
  EXPECT_GE(r.observation.metrics.value_of("link.dropped_down"),
            static_cast<double>(f.packets_lost));
  ASSERT_FALSE(r.observation.metrics.histograms.empty());
}

TEST(Observability, JournalOverflowSurfacesAsMetric) {
  // A deliberately tiny journal on a packet run overflows; the overflow
  // is visible as the journal.dropped_events probe instead of vanishing.
  core::RunKnobs knobs;
  knobs.config.observe = true;
  knobs.config.journal_capacity = 64;
  const auto builder = core::topology_builder("f2", 4);
  const auto r =
      core::run_udp_condition(builder, failure::Condition::kC1, knobs);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.observation.events.size(), 64u);
  EXPECT_GT(r.observation.metrics.value_of("journal.dropped_events"), 0.0);
}

TEST(Observability, JournalCoversControlPlaneMilestones) {
  core::RunKnobs knobs;
  knobs.config.observe = true;
  const auto builder = core::topology_builder("fat", 4);
  const auto r =
      core::run_udp_condition(builder, failure::Condition::kC1, knobs);
  ASSERT_TRUE(r.ok);
  bool saw_lsa = false;
  bool saw_spf = false;
  bool saw_fib = false;
  bool saw_detect = false;
  for (const obs::Event& e : r.observation.events) {
    switch (e.type) {
      case obs::EventType::kLsaOriginated: saw_lsa = true; break;
      case obs::EventType::kSpfRun: saw_spf = true; break;
      case obs::EventType::kFibInstall: saw_fib = true; break;
      case obs::EventType::kPortDetectedDown: saw_detect = true; break;
      default: break;
    }
  }
  EXPECT_TRUE(saw_lsa);
  EXPECT_TRUE(saw_spf);
  EXPECT_TRUE(saw_fib);
  EXPECT_TRUE(saw_detect);
}

TEST(Observability, CentralControllerPushIsJournaled) {
  core::RunKnobs knobs;
  knobs.config.observe = true;
  knobs.config.control_plane = core::ControlPlane::kCentral;
  const auto builder = core::topology_builder("fat", 4);
  const auto r =
      core::run_udp_condition(builder, failure::Condition::kC1, knobs);
  ASSERT_TRUE(r.ok);
  bool saw_push = false;
  for (const obs::Event& e : r.observation.events) {
    if (e.type == obs::EventType::kControllerPush) saw_push = true;
  }
  EXPECT_TRUE(saw_push);
  const obs::RecoveryTimeline timeline(r.observation.events);
  ASSERT_EQ(timeline.failures().size(), 1u);
  EXPECT_TRUE(timeline.failures()[0].converged());
}

}  // namespace
}  // namespace f2t
