#pragma once

#include <string>

#include "core/experiment.hpp"
#include "failure/scenarios.hpp"
#include "obs/timeline.hpp"
#include "stats/flow_metrics.hpp"
#include "stats/timeseries.hpp"
#include "transport/tcp.hpp"
#include "transport/workload.hpp"

namespace f2t::core {

/// Canonical experiment drivers shared by the bench harnesses, the CLI
/// tool and the tests: build a Testbed, converge, attach a probe flow,
/// inject a Table IV failure condition, and collect the paper's metrics.

/// Builders for every topology in the family, by name:
/// fat | f2 | f2scaled | leafspine | leafspine-f2 | vl2 | vl2-f2 | aspen.
/// `ring_width` applies to f2; `aspen_f` to aspen. Throws on unknown names.
Testbed::TopoBuilder topology_builder(const std::string& name, int ports,
                                      int ring_width = 2, int aspen_f = 1);

/// Transport fidelity of a probe run.
///
/// kPacket is the default and simulates every packet as events — the
/// byte-identical baseline all recorded campaign artifacts assume. kFlow
/// switches the UDP probe to the fluid model (transport/fluid.hpp): no
/// probe packets are simulated, paths are re-traced on routing-state
/// transitions, and the delivered set is derived per constant-routing
/// regime — the fast fidelity that reaches k=48/64 fat trees. Flow runs
/// refuse gray faults, probe/BFD detection and TCP (per-packet physics).
enum class Fidelity { kPacket, kFlow };

/// Parses "packet" / "flow"; returns kPacket for anything else via the
/// bool out-param being set false.
bool parse_fidelity(const std::string& name, Fidelity& out);
const char* fidelity_name(Fidelity fidelity);

/// Why flow fidelity refuses a run, or "" when it can run it. Each refused
/// knob needs per-packet physics. `CampaignSpec::validate` and the runners
/// (for direct RunKnobs callers) both throw with this text.
std::string flow_fidelity_refusal(failure::FaultKind fault,
                                  bool probe_detection, bool workload,
                                  bool tcp_probe = false);

/// Knobs for one probe-flow failure experiment.
struct RunKnobs {
  sim::Time fail_at = sim::millis(380);
  sim::Time horizon = sim::seconds(3);
  TestbedConfig config;
  transport::TcpConfig tcp;
  /// How the planned links fail at fail_at (bidirectional cut by default;
  /// see failure::FaultSpec for the unidirectional/gray/flap models).
  failure::FaultSpec fault;
  Fidelity fidelity = Fidelity::kPacket;
  /// Optional trace-shaped background workload riding the probe run
  /// (transport/workload.hpp): TCP flows across every host stack, drawn
  /// from their own RNG stream (kWorkloadStream split of config.seed) so
  /// the probe's packet schedule perturbs but the workload's draws do
  /// not depend on run order. Packet fidelity only — the fluid probe has
  /// no host stacks to carry TCP flows, and refuses the combination.
  /// When enabled, UdpRun.slo summarizes the workload's flow completion
  /// times against `workload.deadline` with the failure window
  /// [fail_at, horizon) splitting the miss fraction.
  bool workload_enabled = false;
  transport::WorkloadOptions workload;
};

/// RNG stream id the workload generator is split from (distinct from
/// every per-shard stream the campaign engine derives).
inline constexpr std::uint64_t kWorkloadStream = 0x776b6c64;  // "wkld"

/// CBR UDP probe through a failure condition (Fig 2(a), Fig 4, Fig 5,
/// Table III columns 1-2).
struct UdpRun {
  bool ok = false;
  sim::Time connectivity_loss = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_lost = 0;
  std::string scenario;
  /// Scenario metadata for campaign aggregation: the failure class
  /// ("C1".."C8" or a link class) and whether the probe flow crossed a
  /// failed link pre-failure (off-path scenarios expect zero loss).
  std::string site_class;
  bool probe_on_path = true;
  stats::TimeSeries delay_series;  ///< per-packet one-way delay (us)
  stats::ThroughputMeter throughput{sim::millis(20)};
  /// Flow fidelity only: number of path traces that expired their TTL,
  /// i.e. some routing regime held a forwarding loop on the probe's
  /// path. Zero for packet runs and loop-free flow runs. Non-zero means
  /// the run's loss accounting is conservative rather than packet-exact:
  /// the packet engine additionally delivers loop-buffered packets at
  /// reconvergence (see tests/test_fidelity_property.cpp).
  std::uint64_t fluid_loop_traces = 0;
  /// Populated when knobs.workload_enabled: tail-latency SLOs of the
  /// background flows (FCT percentiles, slowdown, deadline-miss split by
  /// the failure window). slo_enabled records whether the workload ran —
  /// artifacts omit the section rather than fabricate zeros.
  bool slo_enabled = false;
  stats::SloSummary slo;
  /// Populated when knobs.config.observe is set: metrics snapshot at the
  /// horizon, the full event journal, and the engine profile.
  obs::RunObservation observation;
};

UdpRun run_udp_condition(const Testbed::TopoBuilder& builder,
                         failure::Condition condition,
                         const RunKnobs& knobs = {});

/// CBR UDP probe through the failure of one enumerated switch-to-switch
/// link (see failure::build_link_site_plan) — the campaign engine's
/// exhaustive failure-site axis. Fails only for an out-of-range site.
UdpRun run_udp_link_site(const Testbed::TopoBuilder& builder, int site,
                         const RunKnobs& knobs = {});

/// Paced TCP probe through a failure condition (Fig 2(b), Fig 4 bottom,
/// Table III column 3).
struct TcpRun {
  bool ok = false;
  sim::Time collapse = 0;
  std::uint64_t rto_fires = 0;
  stats::ThroughputMeter throughput{sim::millis(20)};
  /// Populated when knobs.config.observe is set.
  obs::RunObservation observation;
};

TcpRun run_tcp_condition(const Testbed::TopoBuilder& builder,
                         failure::Condition condition,
                         const RunKnobs& knobs = {});

}  // namespace f2t::core
