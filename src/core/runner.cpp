#include "core/runner.hpp"

#include <chrono>
#include <memory>
#include <stdexcept>

#include "topo/aspen.hpp"
#include "topo/f2tree.hpp"
#include "topo/leafspine.hpp"
#include "topo/vl2.hpp"
#include "transport/fluid.hpp"
#include "transport/udp_app.hpp"
#include "transport/workload.hpp"

namespace f2t::core {

bool parse_fidelity(const std::string& name, Fidelity& out) {
  if (name == "packet") {
    out = Fidelity::kPacket;
    return true;
  }
  if (name == "flow") {
    out = Fidelity::kFlow;
    return true;
  }
  return false;
}

const char* fidelity_name(Fidelity fidelity) {
  return fidelity == Fidelity::kFlow ? "flow" : "packet";
}

Testbed::TopoBuilder topology_builder(const std::string& name, int ports,
                                      int ring_width, int aspen_f) {
  if (name == "fat") {
    return [ports](net::Network& n) {
      return topo::build_fat_tree(n, topo::FatTreeOptions{.ports = ports});
    };
  }
  if (name == "f2") {
    return [ports, ring_width](net::Network& n) {
      return topo::build_f2tree(n, ports, ring_width);
    };
  }
  if (name == "f2scaled") {
    return [ports](net::Network& n) {
      return topo::build_f2tree_scaled(n,
                                       topo::F2TreeScaledOptions{ports, -1});
    };
  }
  if (name == "leafspine" || name == "leafspine-f2") {
    const bool f2 = name == "leafspine-f2";
    return [ports, f2](net::Network& n) {
      return topo::build_leaf_spine(
          n, topo::LeafSpineOptions{.ports = ports, .f2_rewire = f2});
    };
  }
  if (name == "vl2" || name == "vl2-f2") {
    const bool f2 = name == "vl2-f2";
    return [ports, f2](net::Network& n) {
      return topo::build_vl2(
          n, topo::Vl2Options{.ports = ports, .f2_rewire = f2});
    };
  }
  if (name == "aspen") {
    return [ports, aspen_f](net::Network& n) {
      return topo::build_aspen_tree(
          n, topo::AspenOptions{.ports = ports, .fault_tolerance = aspen_f,
                                .hosts_per_tor = -1});
    };
  }
  throw std::invalid_argument("unknown topology: " + name);
}

namespace {

/// Runs the simulation to the horizon. The engine profile (event count,
/// wall clock, calendar-queue stats) is always filled — the campaign
/// engine accounts for work per shard without paying for full
/// observation; the journal and metrics snapshot are only collected when
/// observation is on, and the sampler report only when sampling is.
void run_and_observe(Testbed& bed, sim::Time horizon,
                     obs::RunObservation& observation) {
  const auto wall_start = std::chrono::steady_clock::now();
  const std::size_t executed = bed.sim().run(horizon);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  observation.profile.events_executed = executed;
  observation.profile.wall_seconds = wall.count();
  observation.profile.sim_seconds = sim::to_seconds(bed.sim().now());
  observation.profile.queue = bed.sim().scheduler().queue_stats();
  if (bed.sampling()) observation.samples = bed.sampler().report();
  if (!bed.observing()) return;
  observation.enabled = true;
  observation.metrics = bed.obs().metrics.snapshot(bed.sim().now());
  observation.events = bed.obs().journal.events();
}

/// Shared arrival accounting: per-packet delay/throughput series, the
/// optional observability histogram, and the connectivity-loss window.
/// Identical for both fidelities — the fluid path hands in the same
/// Arrival records the packet-mode sink collects.
void collect_udp_arrivals(
    Testbed& bed, UdpRun& out,
    const std::vector<transport::UdpSink::Arrival>& sink_arrivals,
    std::uint32_t wire_bytes, sim::Time fail_at) {
  const auto collect_start = std::chrono::steady_clock::now();
  obs::Histogram* delay_hist = nullptr;
  if (bed.observing()) {
    delay_hist = &bed.obs().metrics.histogram(
        "udp.delay_us", {50, 100, 250, 500, 1000, 5000, 25000, 100000});
  }
  std::vector<sim::Time> arrivals;
  arrivals.reserve(sink_arrivals.size());
  for (const auto& a : sink_arrivals) {
    arrivals.push_back(a.at);
    out.delay_series.add(a.at, sim::to_micros(a.delay));
    out.throughput.add(a.at, wire_bytes);
    if (delay_hist != nullptr) delay_hist->observe(sim::to_micros(a.delay));
  }
  if (delay_hist != nullptr) {
    // Re-snapshot so the histogram (filled after the run) is exported.
    out.observation.metrics = bed.obs().metrics.snapshot(bed.sim().now());
  }
  const auto loss = stats::find_connectivity_loss(arrivals, fail_at);
  out.ok = true;
  if (loss) out.connectivity_loss = loss->duration();
  const std::chrono::duration<double> collect =
      std::chrono::steady_clock::now() - collect_start;
  out.observation.profile.collect_wall_seconds = collect.count();
}

/// The packet-fidelity probe-flow body: attach a CBR UDP probe for the
/// plan's 5-tuple, fail the plan's links at knobs.fail_at, run to the
/// horizon and collect the paper's metrics. Condition runs and campaign
/// link-site runs differ only in how the plan is constructed.
UdpRun run_udp_plan_packet(Testbed& bed, const failure::ScenarioPlan& plan,
                           const RunKnobs& knobs) {
  UdpRun out;
  out.scenario = plan.description;
  out.site_class = plan.site_class;
  out.probe_on_path = plan.on_path;

  auto& src_stack = bed.stack_of(*plan.src);
  auto& dst_stack = bed.stack_of(*plan.dst);
  transport::UdpSink sink(dst_stack, plan.dport);
  transport::UdpCbrSender::Options so;
  so.sport = plan.sport;
  so.dport = plan.dport;
  so.stop = knobs.horizon - sim::millis(200);
  transport::UdpCbrSender sender(src_stack, plan.dst->addr(), so);
  sender.start();

  std::unique_ptr<transport::TcpWorkload> workload;
  if (knobs.workload_enabled) {
    auto wo = knobs.workload;
    if (wo.stop > knobs.horizon) wo.stop = knobs.horizon;
    workload = std::make_unique<transport::TcpWorkload>(
        bed.stacks(),
        sim::Random(sim::Random::derive_stream_seed(knobs.config.seed,
                                                    kWorkloadStream)),
        std::move(wo));
    workload->start();
  }

  failure::apply_fault(bed.topo(), bed.injector(), plan, knobs.fault,
                       knobs.fail_at);
  run_and_observe(bed, knobs.horizon, out.observation);

  if (workload != nullptr) {
    out.slo_enabled = true;
    out.slo = stats::compute_slo(workload->samples(), knobs.fail_at,
                                 knobs.horizon, knobs.horizon);
  }

  out.packets_sent = sender.packets_sent();
  out.packets_lost =
      stats::packets_lost(sender.packets_sent(), sink.packets_received());
  collect_udp_arrivals(bed, out, sink.arrivals(),
                       so.payload_bytes + net::kUdpHeaderBytes, knobs.fail_at);
  return out;
}

obs::DropReason drop_reason_of(transport::FluidProbe::LossCause cause) {
  switch (cause) {
    case transport::FluidProbe::LossCause::kNoRoute:
      return obs::DropReason::kNoRoute;
    case transport::FluidProbe::LossCause::kTtlExpired:
      return obs::DropReason::kTtlExpired;
    case transport::FluidProbe::LossCause::kChannelDown:
      return obs::DropReason::kLinkDown;
  }
  return obs::DropReason::kNone;
}

/// The flow-fidelity body: same plan, same metrics, no probe packets —
/// the FluidProbe derives the delivered set from routing-state regimes
/// and channel availability windows (see transport/fluid.hpp).
UdpRun run_udp_plan_fluid(Testbed& bed, const failure::ScenarioPlan& plan,
                          const RunKnobs& knobs) {
  if (knobs.fault.kind == failure::FaultKind::kGray) {
    throw std::invalid_argument(
        "flow fidelity cannot model gray faults (per-packet loss draws "
        "need packets); use packet fidelity");
  }
  if (knobs.config.detection.mode == routing::DetectionMode::kProbe) {
    throw std::invalid_argument(
        "flow fidelity requires oracle detection (BFD hello timing "
        "interleaves with probe serialization); use packet fidelity");
  }
  if (knobs.workload_enabled) {
    throw std::invalid_argument(
        "flow fidelity does not carry the TCP workload (no host stacks in "
        "the fluid probe model); use packet fidelity");
  }
  UdpRun out;
  out.scenario = plan.description;
  out.site_class = plan.site_class;
  out.probe_on_path = plan.on_path;

  transport::FluidProbe::Options fo;
  fo.sport = plan.sport;
  fo.dport = plan.dport;
  fo.stop = knobs.horizon - sim::millis(200);
  transport::FluidProbe probe(bed.network(), *plan.src, *plan.dst, fo);
  if (bed.observing()) {
    const auto& fs = probe.stats();
    bed.obs().metrics.register_probe("fluid.routing_changes", [&fs] {
      return static_cast<double>(fs.routing_changes);
    });
    bed.obs().metrics.register_probe("fluid.retraces", [&fs] {
      return static_cast<double>(fs.retraces);
    });
    bed.obs().metrics.register_probe("fluid.straddlers", [&fs] {
      return static_cast<double>(fs.straddlers);
    });
    bed.obs().metrics.register_probe("fluid.loop_traces", [&fs] {
      return static_cast<double>(fs.loop_traces);
    });
    bed.obs().metrics.register_probe("fluid.probe_rate_bps",
                                     [&probe] { return probe.probe_rate_bps(); });
  }
  if (bed.sampling()) {
    // Max-min rate of the probe flow, sampled like any other
    // series (the probe is constructed before the first tick fires).
    bed.sampler().add_gauge("fluid.probe_rate_bps",
                            [&probe] { return probe.probe_rate_bps(); });
  }

  failure::apply_fault(bed.topo(), bed.injector(), plan, knobs.fault,
                       knobs.fail_at);
  run_and_observe(bed, knobs.horizon, out.observation);
  probe.finalize();
  if (bed.observing()) {
    // Materialize the fluid model's derived deliveries and losses as
    // journal events so the RecoveryTimeline (and the span tracer) see
    // the same packet_delivered / packet_drop stream a packet-fidelity
    // run records. Appended after the fact — the timeline sorts
    // deliveries by time itself and counts drops by timestamp.
    auto& journal = bed.obs().journal;
    const std::int64_t dst_id = plan.dst->id();
    for (const auto& a : probe.arrivals()) {
      obs::Event e;
      e.at = a.at;
      e.type = obs::EventType::kPacketDelivered;
      e.proto = static_cast<std::uint8_t>(net::Protocol::kUdp);
      e.node = dst_id;
      e.uid = a.seq;
      journal.record(e);
    }
    for (const auto& loss : probe.losses()) {
      obs::Event e;
      e.at = loss.at;
      e.type = obs::EventType::kPacketDrop;
      e.reason = drop_reason_of(loss.cause);
      e.proto = static_cast<std::uint8_t>(net::Protocol::kUdp);
      if (loss.node != net::kInvalidNode) e.node = loss.node;
      if (loss.link != net::kInvalidLink) e.link = loss.link;
      e.uid = loss.seq;
      journal.record(e);
    }
    out.observation.events = journal.events();
  }

  out.packets_sent = probe.packets_sent();
  out.packets_lost =
      stats::packets_lost(probe.packets_sent(), probe.arrivals().size());
  out.fluid_loop_traces = probe.stats().loop_traces;
  collect_udp_arrivals(bed, out, probe.arrivals(),
                       fo.payload_bytes + net::kUdpHeaderBytes, knobs.fail_at);
  return out;
}

UdpRun run_udp_plan(Testbed& bed, const failure::ScenarioPlan& plan,
                    const RunKnobs& knobs) {
  return knobs.fidelity == Fidelity::kFlow
             ? run_udp_plan_fluid(bed, plan, knobs)
             : run_udp_plan_packet(bed, plan, knobs);
}

/// The probe-run setup both public entry points share: build and converge
/// the testbed, derive the failure plan from its topology with
/// `make_plan`, then run it (an empty run when the site does not apply).
template <class MakePlan>
UdpRun run_udp(const Testbed::TopoBuilder& builder, const RunKnobs& knobs,
               const MakePlan& make_plan) {
  const auto setup_start = std::chrono::steady_clock::now();
  Testbed bed(builder, knobs.config);
  bed.converge();
  const auto plan = make_plan(bed.topo());
  const std::chrono::duration<double> setup =
      std::chrono::steady_clock::now() - setup_start;
  if (!plan) return {};
  auto out = run_udp_plan(bed, *plan, knobs);
  out.observation.profile.setup_wall_seconds = setup.count();
  return out;
}

}  // namespace

UdpRun run_udp_condition(const Testbed::TopoBuilder& builder,
                         failure::Condition condition,
                         const RunKnobs& knobs) {
  return run_udp(builder, knobs, [condition](const topo::BuiltTopology& t) {
    return failure::build_condition(t, condition, net::Protocol::kUdp);
  });
}

UdpRun run_udp_link_site(const Testbed::TopoBuilder& builder, int site,
                         const RunKnobs& knobs) {
  return run_udp(builder, knobs, [site](const topo::BuiltTopology& t) {
    return failure::build_link_site_plan(t, site, net::Protocol::kUdp);
  });
}

TcpRun run_tcp_condition(const Testbed::TopoBuilder& builder,
                         failure::Condition condition,
                         const RunKnobs& knobs) {
  if (knobs.fidelity == Fidelity::kFlow) {
    throw std::invalid_argument(
        "flow fidelity does not model TCP (window dynamics are per-packet); "
        "use packet fidelity");
  }
  TcpRun out;
  const auto setup_start = std::chrono::steady_clock::now();
  Testbed bed(builder, knobs.config);
  bed.converge();
  const auto plan = failure::build_condition(bed.topo(), condition,
                                             net::Protocol::kTcp);
  out.observation.profile.setup_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    setup_start)
          .count();
  if (!plan) return out;

  auto& src_stack = bed.stack_of(*plan->src);
  auto& dst_stack = bed.stack_of(*plan->dst);
  transport::TcpConnection conn(src_stack, dst_stack, plan->sport,
                                plan->dport, knobs.tcp);
  std::uint64_t last = 0;
  conn.b().set_on_delivered([&](std::uint64_t d) {
    out.throughput.add(bed.sim().now(), d - last);
    last = d;
  });
  transport::PacedTcpWriter::Options wo;
  wo.stop = knobs.horizon - sim::millis(500);
  transport::PacedTcpWriter writer(conn.a(), bed.sim(), wo);
  writer.start();

  failure::apply_fault(bed.topo(), bed.injector(), *plan, knobs.fault,
                       knobs.fail_at);
  if (bed.observing()) {
    const auto& stats = conn.a().stats();
    bed.obs().metrics.register_probe("tcp.rto_fires", [&stats]() {
      return static_cast<double>(stats.rto_fires);
    });
    bed.obs().metrics.register_probe("tcp.segments_retransmitted", [&stats]() {
      return static_cast<double>(stats.segments_retransmitted);
    });
    bed.obs().metrics.register_probe("tcp.fast_retransmits", [&stats]() {
      return static_cast<double>(stats.fast_retransmits);
    });
  }
  run_and_observe(bed, knobs.horizon, out.observation);
  out.ok = true;
  out.rto_fires = conn.a().stats().rto_fires;
  out.collapse = stats::throughput_collapse_duration(
      out.throughput, sim::millis(100), knobs.fail_at, wo.stop);
  return out;
}

}  // namespace f2t::core
