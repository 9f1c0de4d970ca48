#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "failure/injector.hpp"
#include "obs/observer.hpp"
#include "obs/sampler.hpp"
#include "routing/bfd.hpp"
#include "routing/central.hpp"
#include "routing/detection.hpp"
#include "routing/ospf.hpp"
#include "routing/pathvector.hpp"
#include "topo/backup_routes.hpp"
#include "topo/topology.hpp"
#include "transport/app.hpp"

namespace f2t::core {

/// How the harness configures the F²Tree backup static routes.
enum class BackupMode {
  kAuto,         ///< paper config iff the topology is F²-rewired
  kPaper,        ///< Table II: /16 right, /15 left (asymmetric lengths)
  kEqualLength,  ///< ablation: both across links under one ECMP prefix
};

/// Which control plane runs the network: the distributed OSPF-like
/// protocol the paper evaluates, the §V centralized scheme, or the §V
/// BGP-like path-vector protocol.
enum class ControlPlane { kOspf, kCentral, kPathVector };

/// Parses "ospf" / "central" / "bgp"; nullopt otherwise.
std::optional<ControlPlane> parse_control_plane(std::string_view name);

/// Everything a full-system run needs, assembled in one place.
struct TestbedConfig {
  ControlPlane control_plane = ControlPlane::kOspf;
  routing::OspfConfig ospf;
  routing::CentralConfig central;
  routing::PathVectorConfig path_vector;
  routing::DetectionConfig detection;
  /// Timing + dampening for DetectionMode::kProbe; ignored under kOracle.
  routing::BfdConfig bfd;
  net::LinkParams link;
  BackupMode backup = BackupMode::kAuto;
  std::uint64_t seed = 1;
  /// Attach the metrics registry + event journal (obs/). Off by default:
  /// an unobserved run has no hooks installed anywhere, so it pays zero
  /// cost — not even a branch on the forwarding fast path.
  bool observe = false;
  /// Event-journal bound (events beyond it are dropped and counted; see
  /// obs::EventJournal). Only meaningful with `observe`.
  std::size_t journal_capacity = obs::EventJournal::kDefaultCapacity;
  /// Periodic telemetry sampling interval; 0 (the default) disables the
  /// sampler entirely — no sampler object, no scheduler events, so the
  /// run's event stream is untouched. Independent of `observe`: sampling
  /// does not require the journal/metrics machinery. Note an enabled
  /// sampler *does* add its tick events to the schedule, which can
  /// reorder same-timestamp work relative to an unsampled run — leave it
  /// off for byte-identity-sensitive runs.
  sim::Time sample_interval = 0;
  /// Logger threshold applied to the simulator at construction.
  sim::LogLevel log_level = sim::LogLevel::kWarn;
};

/// A ready-to-run network: topology + control plane + detection + host
/// transport stacks + failure injector, converged at t = 0.
///
/// This is the library's top-level entry point — the equivalent of racking
/// the paper's testbed: pass a topology builder (any of src/topo) and a
/// config, call converge(), attach workloads, run the simulator.
class Testbed {
 public:
  using TopoBuilder = std::function<topo::BuiltTopology(net::Network&)>;

  Testbed(const TopoBuilder& builder, const TestbedConfig& config = {});

  sim::Simulator& sim() { return *sim_; }
  net::Network& network() { return *network_; }
  topo::BuiltTopology& topo() { return topo_; }
  failure::FailureInjector& injector() { return *injector_; }
  const TestbedConfig& config() const { return config_; }

  /// Warm-starts the control plane: full LSDBs and converged FIBs at the
  /// current simulation time. Call once before starting workloads.
  void converge();

  transport::HostStack& stack_of(const net::Host& host);

  /// OSPF instance of a switch. Throws when running the central plane.
  routing::Ospf& ospf_of(const net::L3Switch& sw);

  /// The controller (central plane only). Throws otherwise.
  routing::CentralController& controller();

  /// Path-vector instance of a switch (path-vector plane only).
  routing::PathVector& path_vector_of(const net::L3Switch& sw);

  /// Host stacks in topology order (for workload constructors).
  std::vector<transport::HostStack*> stacks();

  /// Aggregate control-plane counters across all switches.
  routing::Ospf::Counters total_ospf_counters() const;

  /// The probe-based detector. Throws under DetectionMode::kOracle.
  routing::BfdManager& bfd();

  /// True when the config requested observability and obs() is usable.
  bool observing() const { return obs_ != nullptr; }

  /// The run's metrics registry + event journal. Throws when the config
  /// did not set `observe` (there is deliberately no lazy creation: hooks
  /// can only be attached at construction time).
  obs::Observability& obs();

  /// True when the config requested periodic telemetry sampling.
  bool sampling() const { return sampler_ != nullptr; }

  /// The telemetry sampler (started by converge()). Throws when the
  /// config left `sample_interval` at 0.
  obs::TelemetrySampler& sampler();

 private:
  TestbedConfig config_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::Network> network_;
  topo::BuiltTopology topo_;
  std::vector<std::unique_ptr<routing::Ospf>> ospf_;
  std::unordered_map<const net::L3Switch*, routing::Ospf*> ospf_by_switch_;
  std::unique_ptr<routing::CentralController> controller_;
  std::vector<std::unique_ptr<routing::PathVector>> path_vector_;
  std::unordered_map<const net::L3Switch*, routing::PathVector*>
      path_vector_by_switch_;
  std::unique_ptr<routing::DetectionAgent> detection_;  // kOracle
  std::unique_ptr<routing::BfdManager> bfd_;            // kProbe
  std::vector<std::unique_ptr<transport::HostStack>> stacks_;
  std::unordered_map<const net::Host*, transport::HostStack*> stack_by_host_;
  std::unique_ptr<failure::FailureInjector> injector_;
  std::unique_ptr<obs::Observability> obs_;
  std::unique_ptr<obs::TelemetrySampler> sampler_;
};

}  // namespace f2t::core
