#include "exec/campaign.hpp"

#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "exec/thread_pool.hpp"
#include "obs/trace.hpp"

namespace f2t::exec {

transport::WorkloadOptions workload_options_of(
    const core::CampaignSpec::WorkloadAxis& axis, sim::Time horizon) {
  transport::WorkloadOptions wo;
  wo.kind = axis.kind == "incast" ? transport::WorkloadKind::kIncast
                                  : transport::WorkloadKind::kPoisson;
  wo.sizes = transport::FlowSizeCdf::by_name(axis.size_dist);
  wo.load = axis.load;
  wo.fanin = static_cast<std::size_t>(axis.fanin);
  wo.incast_bytes = axis.flow_bytes;
  wo.deadline = sim::millis(axis.deadline_ms);
  wo.stop = horizon;
  return wo;
}

core::RunKnobs knobs_of(const core::CampaignSpec& spec,
                        const std::string& control, std::uint64_t seed) {
  const auto plane = core::parse_control_plane(control);
  if (!plane) {
    throw std::invalid_argument("campaign: unknown control plane: " + control);
  }
  core::RunKnobs knobs;
  knobs.fail_at = spec.fail_at;
  knobs.horizon = spec.horizon;
  knobs.config.control_plane = *plane;
  knobs.config.detection.down_delay = sim::millis(spec.detection_ms);
  knobs.config.detection.up_delay = knobs.config.detection.down_delay;
  if (spec.detection == "probe") {
    knobs.config.detection.mode = routing::DetectionMode::kProbe;
    knobs.config.bfd.tx_interval = sim::millis(spec.bfd_tx_ms);
    knobs.config.bfd.miss_multiplier = spec.bfd_multiplier;
    knobs.config.bfd.dampening.enabled = spec.dampening;
  }
  knobs.config.ospf.throttle.initial_delay = sim::millis(spec.spf_ms);
  knobs.config.seed = seed;
  knobs.config.observe = spec.trace;
  knobs.config.sample_interval = sim::millis(spec.sample_interval_ms);
  knobs.fault.kind = spec.fault;
  knobs.fault.gray_loss = spec.gray_loss;
  knobs.fault.flap_period = sim::millis(spec.flap_period_ms);
  knobs.fault.flap_cycles = spec.flap_cycles;
  if (!core::parse_fidelity(spec.fidelity, knobs.fidelity)) {
    throw std::invalid_argument("campaign: unknown fidelity: " +
                                spec.fidelity);
  }
  if (spec.workload.enabled) {
    knobs.workload_enabled = true;
    knobs.workload = workload_options_of(spec.workload, spec.horizon);
  }
  return knobs;
}

core::ShardResult run_shard(const core::CampaignSpec& spec,
                            const core::ShardSpec& shard) {
  const core::RunKnobs knobs = knobs_of(spec, shard.control, shard.seed);
  const auto builder = core::topology_builder(
      shard.topology.name, shard.topology.ports, shard.topology.ring_width,
      shard.topology.aspen_f);
  const core::UdpRun run =
      shard.is_link_site
          ? core::run_udp_link_site(builder, shard.link_site, knobs)
          : core::run_udp_condition(builder, shard.condition, knobs);

  core::ShardResult r;
  r.index = shard.index;
  r.topology = shard.topology.label();
  r.control = shard.control;
  r.site = shard.site();
  r.site_class = run.site_class;
  r.replicate = shard.replicate;
  r.seed = shard.seed;
  r.ok = run.ok;
  r.on_path = run.ok && run.probe_on_path;
  r.connectivity_loss = run.connectivity_loss;
  r.packets_sent = run.packets_sent;
  r.packets_lost = run.packets_lost;
  r.events_executed = run.observation.profile.events_executed;
  r.wall_seconds = run.observation.profile.wall_seconds;
  r.scenario = run.scenario;
  if (spec.trace && run.observation.enabled) {
    const obs::SpanTrace trace(run.observation.events,
                               run.observation.profile);
    r.spans = trace.spans().size();
    const auto& failures = trace.timeline().failures();
    if (!failures.empty()) {
      const obs::FailureRecovery& f = failures.front();
      r.detect_ns = f.detected() ? f.time_to_detect() : -1;
      r.converge_ns = f.converged() ? f.time_to_converge() : -1;
    }
  }
  if (spec.sample_interval_ms > 0 && run.observation.samples.enabled) {
    r.samples = run.observation.samples.rows.size();
    if (const auto rollup =
            run.observation.samples.rollup_of("net.queue_depth")) {
      r.queue_rollup = true;
      r.queue_p99 = rollup->p99;
      r.queue_max = rollup->max;
    }
  }
  if (run.slo_enabled) {
    r.slo = true;
    r.slo_flows = run.slo.flows;
    r.slo_completed = run.slo.completed;
    r.fct_p50_ms = run.slo.fct_ms_p50;
    r.fct_p99_ms = run.slo.fct_ms_p99;
    r.fct_p999_ms = run.slo.fct_ms_p999;
    r.slo_deadline_in = run.slo.deadline_flows_in_window;
    r.slo_deadline_out = run.slo.deadline_flows_out_window;
    r.slo_miss_in = run.slo.miss_in_window;
    r.slo_miss_out = run.slo.miss_out_window;
  }
  return r;
}

core::ShardResult run_shard_captured(const core::CampaignSpec& spec,
                                     const core::ShardSpec& shard) {
  // A throwing shard must not poison the campaign: capture the failure
  // as this shard's result instead. The record is deterministic —
  // identity comes from the ShardSpec and the message from the
  // spec-dependent exception, not from scheduling.
  try {
    return run_shard(spec, shard);
  } catch (const std::exception& e) {
    core::ShardResult r;
    r.index = shard.index;
    r.topology = shard.topology.label();
    r.control = shard.control;
    r.site = shard.site();
    r.replicate = shard.replicate;
    r.seed = shard.seed;
    r.ok = false;
    r.error = e.what();
    return r;
  }
}

core::CampaignResult run_campaign(const core::CampaignSpec& spec,
                                  const CampaignOptions& options) {
  core::CampaignResult result;
  result.spec = spec;
  result.hardware_threads = std::thread::hardware_concurrency();

  const std::vector<core::ShardSpec> shards = core::enumerate_shards(spec);
  result.runs.resize(shards.size());

  ThreadPool pool(options.jobs);
  result.jobs = pool.threads();

  const auto wall_start = std::chrono::steady_clock::now();
  // Callback invocations are serialized under one mutex (the contract
  // CampaignOptions documents): hooks from different pool threads never
  // interleave, so CLI progress printing and test collectors need no
  // locking of their own. Shard execution itself runs outside the lock.
  std::mutex callback_mutex;
  pool.parallel_for(shards.size(), [&](std::size_t i) {
    // Each shard writes only its own pre-assigned slot; the result vector
    // needs no lock and ends up in shard order regardless of scheduling.
    if (options.on_shard_start) {
      const std::lock_guard<std::mutex> lock(callback_mutex);
      options.on_shard_start(shards[i]);
    }
    result.runs[i] = run_shard_captured(spec, shards[i]);
    if (options.on_result) {
      const std::lock_guard<std::mutex> lock(callback_mutex);
      options.on_result(result.runs[i]);
    }
  });
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  result.wall_seconds = wall.count();
  result.steals = pool.steals();
  return result;
}

}  // namespace f2t::exec
