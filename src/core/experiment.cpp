#include "core/experiment.hpp"

#include <stdexcept>

#include "obs/attach.hpp"
#include "topo/validate.hpp"

namespace f2t::core {

std::optional<ControlPlane> parse_control_plane(std::string_view name) {
  if (name == "ospf") return ControlPlane::kOspf;
  if (name == "central") return ControlPlane::kCentral;
  if (name == "bgp") return ControlPlane::kPathVector;
  return std::nullopt;
}

Testbed::Testbed(const TopoBuilder& builder, const TestbedConfig& config)
    : config_(config),
      sim_(std::make_unique<sim::Simulator>(config.seed)),
      network_(std::make_unique<net::Network>(*sim_)) {
  sim_->logger().set_threshold(config_.log_level);
  network_->set_default_link_params(config_.link);
  topo_ = builder(*network_);
  topo::validate_topology_or_throw(topo_);

  // Backup static routes (the paper's Table II configuration).
  const bool want_backups =
      config_.backup == BackupMode::kPaper ||
      config_.backup == BackupMode::kEqualLength ||
      (config_.backup == BackupMode::kAuto && topo_.f2);
  if (want_backups) {
    if (config_.backup == BackupMode::kEqualLength) {
      topo::install_backup_routes_equal_length(topo_);
    } else {
      topo::install_backup_routes(topo_);
    }
  }

  // Control plane: one OSPF instance per switch (ToRs redistribute their
  // rack subnet), or one controller managing every switch.
  if (config_.control_plane == ControlPlane::kOspf) {
    for (net::L3Switch* sw : topo_.all_switches()) {
      auto instance = std::make_unique<routing::Ospf>(*sw, config_.ospf);
      if (const auto it = topo_.subnet_of_tor.find(sw);
          it != topo_.subnet_of_tor.end()) {
        instance->redistribute(it->second);
      }
      instance->attach();
      ospf_by_switch_.emplace(sw, instance.get());
      ospf_.push_back(std::move(instance));
    }
  } else if (config_.control_plane == ControlPlane::kCentral) {
    controller_ = std::make_unique<routing::CentralController>(config_.central);
    for (net::L3Switch* sw : topo_.all_switches()) {
      std::vector<net::Prefix> prefixes;
      if (const auto it = topo_.subnet_of_tor.find(sw);
          it != topo_.subnet_of_tor.end()) {
        prefixes.push_back(it->second);
      }
      controller_->manage(*sw, std::move(prefixes));
    }
  } else {
    for (net::L3Switch* sw : topo_.all_switches()) {
      auto instance =
          std::make_unique<routing::PathVector>(*sw, config_.path_vector);
      if (const auto it = topo_.subnet_of_tor.find(sw);
          it != topo_.subnet_of_tor.end()) {
        instance->redistribute(it->second);
        // ToRs are non-transit (RFC 7938-style): no valley paths through
        // a rack.
        instance->set_transit(false);
      }
      instance->attach();
      path_vector_by_switch_.emplace(sw, instance.get());
      path_vector_.push_back(std::move(instance));
    }
  }

  if (config_.detection.mode == routing::DetectionMode::kProbe) {
    bfd_ = std::make_unique<routing::BfdManager>(*network_, config_.bfd);
    bfd_->attach_all();
  } else {
    detection_ = std::make_unique<routing::DetectionAgent>(*network_,
                                                           config_.detection);
    detection_->attach_all();
  }

  for (net::Host* host : topo_.hosts) {
    auto stack = std::make_unique<transport::HostStack>(*host);
    stack_by_host_.emplace(host, stack.get());
    stacks_.push_back(std::move(stack));
  }

  injector_ = std::make_unique<failure::FailureInjector>(*network_);

  if (config_.sample_interval > 0) {
    sampler_ = std::make_unique<obs::TelemetrySampler>(
        *sim_, obs::SamplerConfig{.interval = config_.sample_interval});
    obs::attach_telemetry(*sampler_, *sim_, *network_);
  }

  if (config_.observe) {
    obs_ = std::make_unique<obs::Observability>();
    obs_->journal.set_capacity(config_.journal_capacity);
    obs_->metrics.register_probe("journal.dropped_events", [this]() {
      return static_cast<double>(obs_->journal.dropped());
    });
    obs::attach_journal(*sim_, *network_, obs_->journal);
    for (const auto& instance : ospf_) {
      obs::attach_journal(*sim_, *instance, obs_->journal);
    }
    if (controller_ != nullptr) {
      obs::attach_journal(*sim_, *controller_, obs_->journal);
    }
    for (const auto& instance : path_vector_) {
      obs::attach_journal(*sim_, *instance, obs_->journal);
    }
    obs::register_metrics(obs_->metrics, *network_);
    obs::register_metrics(obs_->metrics, *sim_);
    if (detection_ != nullptr) {
      obs::register_metrics(obs_->metrics, *detection_);
    }
    if (bfd_ != nullptr) {
      obs::attach_journal(*sim_, *bfd_, obs_->journal);
      obs::register_metrics(obs_->metrics, *bfd_);
    }
    if (!ospf_.empty()) {
      auto ospf_probe = [this](auto field) {
        return [this, field]() {
          std::uint64_t total = 0;
          for (const auto& i : ospf_) total += field(i->counters());
          return static_cast<double>(total);
        };
      };
      obs_->metrics.register_probe(
          "ospf.lsas_originated", ospf_probe([](const routing::Ospf::Counters&
                                                    c) {
            return c.lsas_originated;
          }));
      obs_->metrics.register_probe(
          "ospf.lsas_accepted",
          ospf_probe([](const routing::Ospf::Counters& c) {
            return c.lsas_accepted;
          }));
      obs_->metrics.register_probe(
          "ospf.spf_runs", ospf_probe([](const routing::Ospf::Counters& c) {
            return c.spf_runs;
          }));
      obs_->metrics.register_probe(
          "ospf.spf_incremental_runs",
          ospf_probe([](const routing::Ospf::Counters& c) {
            return c.spf_incremental_runs;
          }));
      obs_->metrics.register_probe(
          "ospf.fib_installs",
          ospf_probe([](const routing::Ospf::Counters& c) {
            return c.fib_installs;
          }));
      obs_->metrics.register_probe(
          "ospf.fib_noop_installs",
          ospf_probe([](const routing::Ospf::Counters& c) {
            return c.fib_noop_installs;
          }));
    }
    if (controller_ != nullptr) {
      obs_->metrics.register_probe("central.reports", [this]() {
        return static_cast<double>(controller_->counters().reports);
      });
      obs_->metrics.register_probe("central.computations", [this]() {
        return static_cast<double>(controller_->counters().computations);
      });
      obs_->metrics.register_probe("central.fib_pushes", [this]() {
        return static_cast<double>(controller_->counters().fib_pushes);
      });
    }
    if (!path_vector_.empty()) {
      auto pv_probe = [this](auto field) {
        return [this, field]() {
          std::uint64_t total = 0;
          for (const auto& i : path_vector_) total += field(i->counters());
          return static_cast<double>(total);
        };
      };
      obs_->metrics.register_probe(
          "bgp.updates_sent",
          pv_probe([](const routing::PathVector::Counters& c) {
            return c.updates_sent;
          }));
      obs_->metrics.register_probe(
          "bgp.updates_received",
          pv_probe([](const routing::PathVector::Counters& c) {
            return c.updates_received;
          }));
      obs_->metrics.register_probe(
          "bgp.fib_installs",
          pv_probe([](const routing::PathVector::Counters& c) {
            return c.fib_installs;
          }));
    }
  }
}

obs::Observability& Testbed::obs() {
  if (obs_ == nullptr) {
    throw std::logic_error(
        "Testbed: observability is off (set TestbedConfig.observe)");
  }
  return *obs_;
}

void Testbed::converge() {
  if (controller_ != nullptr) {
    controller_->converge();
  } else if (!path_vector_.empty()) {
    routing::PathVector::warm_start_all(path_vector_);
  } else {
    routing::warm_start_all(ospf_);
  }
  // Sampling starts from the converged state: the first tick lands one
  // interval into the workload, not during warm-start.
  if (sampler_ != nullptr) sampler_->start();
}

obs::TelemetrySampler& Testbed::sampler() {
  if (sampler_ == nullptr) {
    throw std::logic_error(
        "Testbed: sampling is off (set TestbedConfig.sample_interval)");
  }
  return *sampler_;
}

routing::PathVector& Testbed::path_vector_of(const net::L3Switch& sw) {
  const auto it = path_vector_by_switch_.find(&sw);
  if (it == path_vector_by_switch_.end()) {
    throw std::invalid_argument("Testbed: no path-vector instance for " +
                                sw.name());
  }
  return *it->second;
}

routing::CentralController& Testbed::controller() {
  if (controller_ == nullptr) {
    throw std::logic_error("Testbed: not running the central control plane");
  }
  return *controller_;
}

transport::HostStack& Testbed::stack_of(const net::Host& host) {
  const auto it = stack_by_host_.find(&host);
  if (it == stack_by_host_.end()) {
    throw std::invalid_argument("Testbed: unknown host " + host.name());
  }
  return *it->second;
}

routing::Ospf& Testbed::ospf_of(const net::L3Switch& sw) {
  const auto it = ospf_by_switch_.find(&sw);
  if (it == ospf_by_switch_.end()) {
    throw std::invalid_argument("Testbed: unknown switch " + sw.name());
  }
  return *it->second;
}

std::vector<transport::HostStack*> Testbed::stacks() {
  std::vector<transport::HostStack*> out;
  out.reserve(stacks_.size());
  for (const auto& stack : stacks_) out.push_back(stack.get());
  return out;
}

routing::BfdManager& Testbed::bfd() {
  if (bfd_ == nullptr) {
    throw std::logic_error(
        "Testbed: not running probe detection (set detection.mode = kProbe)");
  }
  return *bfd_;
}

routing::Ospf::Counters Testbed::total_ospf_counters() const {
  routing::Ospf::Counters total;
  for (const auto& instance : ospf_) {
    const auto& c = instance->counters();
    total.lsas_originated += c.lsas_originated;
    total.lsas_accepted += c.lsas_accepted;
    total.lsas_ignored += c.lsas_ignored;
    total.spf_runs += c.spf_runs;
    total.spf_incremental_runs += c.spf_incremental_runs;
    total.fib_installs += c.fib_installs;
    total.fib_noop_installs += c.fib_noop_installs;
  }
  return total;
}

}  // namespace f2t::core
