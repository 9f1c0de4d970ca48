/// f2tsim — command-line front end to the F²Tree reproduction library.
///
/// Commands: recover, workload, campaign, topo and table1; run f2tsim
/// without arguments for their flags. The run-knob flags shared by
/// recover and ad hoc campaigns come from the knob table
/// (core::run_knobs()), the same rows that define campaign spec keys.
///
/// Every command maps onto the same library calls the benches and tests
/// use, so a CLI run is exactly reproducible in code.

#include <atomic>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>

#include "core/cli.hpp"
#include "core/f2tree.hpp"
#include "core/runner.hpp"
#include "exec/campaign.hpp"
#include "exec/process.hpp"
#include "obs/trace.hpp"
#include "topo/graphviz.hpp"

using namespace f2t;

namespace {

int usage() {
  std::cerr <<
      "usage: f2tsim <recover|workload|campaign|topo|table1> [options]\n"
      "  recover  --topo NAME --ports N --condition C1..C8\n"
      "           [--control ospf|central|bgp] [--proto udp|tcp]\n"
      "           [--ring-width 2] [--aspen-f 1] [--seed 1] [--csv]\n"
      "           [--log-level trace|debug|info|warn|error|off]\n"
      "           [--metrics-out FILE] [--events-out FILE] [--timeline]\n"
      "           [--trace-out FILE] [--samples-out FILE]\n"
      "           [run knob flags not marked (campaign)]\n"
      "  workload --topo NAME --ports N [--seconds 60] [--cf 1] [--seed 1]\n"
      "           [--log-level trace|debug|info|warn|error|off]\n"
      "  campaign --spec FILE [--jobs N] [--out FILE] [--no-profile]\n"
      "           [--workers N] [--resume] [--state-dir DIR]\n"
      "           or ad hoc: [--name S] [--topo NAME] [--ports N]\n"
      "           [--ring-width 2] [--aspen-f 1] [--control ospf|central|bgp]\n"
      "           [--conditions C1,..|all] [run knob flags]\n"
      "  topo     --topo NAME --ports N [--ring-width 2] [--aspen-f 1] [--dot]\n"
      "  table1   --ports N [--aspen-f 1]\n"
      "run knob flags [spec key = default]:\n";
  core::write_knob_help(std::cerr);
  std::cerr <<
      "topologies: fat f2 f2scaled leafspine leafspine-f2 vl2 vl2-f2 aspen\n"
      "--metrics-out/--events-out/--timeline enable observability: a\n"
      "schema-versioned metrics JSON, a JSONL event journal, and a\n"
      "reconstructed per-failure recovery timeline on stdout.\n"
      "--trace-out writes a Chrome trace_event JSON of the causal recovery\n"
      "span chain (open in chrome://tracing or ui.perfetto.dev);\n"
      "--samples-out writes a JSONL telemetry time series sampled every\n"
      "sample interval of sim time (queue depths, link utilization,\n"
      "drop rates) with p50/p99/max rollups on the last line.\n"
      "campaign shards the spec's failure matrix across --jobs worker\n"
      "threads; the JSON artifact (minus --no-profile) is byte-identical\n"
      "for any job count. --workers N runs the shards across N forked\n"
      "worker *processes* instead, streaming one JSONL record per shard\n"
      "into --state-dir (default <out>.state); the artifact stays\n"
      "byte-identical, and a killed campaign continues from its\n"
      "checkpointed shards with --resume. Random sites feed the\n"
      "artifact's survivability curves; a workload adds tail-latency SLOs\n"
      "(FCT percentiles, deadline misses in and outside the failure\n"
      "window) at packet fidelity. See tools/README.md.\n";
  return 2;
}

/// Reports the first option the command did not read; true if any.
bool has_unknown_option(const core::Cli& cli) {
  const auto unknown = cli.unknown_keys();
  if (!unknown.empty()) {
    std::cerr << "unknown option: --" << unknown.front() << "\n";
  }
  return !unknown.empty();
}

sim::LogLevel parse_log_level_option(core::Cli& cli) {
  const std::string text = cli.get("log-level", "warn");
  const auto level = sim::Logger::parse_level(text);
  if (!level) throw std::invalid_argument("unknown log level: " + text);
  return *level;
}

/// Export destinations for one observed run's artefacts.
struct ExportPaths {
  std::string metrics_out;
  std::string events_out;
  std::string trace_out;
  std::string samples_out;
  bool timeline = false;
};

/// Writes `path` through `write` unless the path is empty; false when
/// the file cannot be opened.
bool write_file(const std::string& path,
                const std::function<void(std::ostream&)>& write) {
  if (path.empty()) return true;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  write(out);
  return true;
}

/// Writes the observability artefacts of one observed run: metrics JSON,
/// event-journal JSONL, Chrome trace JSON, sampler JSONL, and (on
/// request) the reconstructed recovery timeline plus the engine profile
/// on stdout. Samples export does not require the event journal — the
/// sampler is its own subsystem and may run with metrics observe off.
int export_observation(const obs::RunObservation& o, const ExportPaths& p) {
  if (!write_file(p.samples_out,
                  [&](std::ostream& out) { o.samples.write_jsonl(out); })) {
    return 1;
  }
  if (!o.enabled) return 0;
  if (!write_file(p.metrics_out,
                  [&](std::ostream& out) {
                    o.metrics.write_json(out);
                    out << "\n";
                  }) ||
      !write_file(p.events_out,
                  [&](std::ostream& out) {
                    obs::write_events_jsonl(out, o.events);
                  }) ||
      !write_file(p.trace_out, [&](std::ostream& out) {
        obs::SpanTrace(o.events, o.profile).write_chrome_trace(out);
      })) {
    return 1;
  }
  if (p.timeline) {
    obs::RecoveryTimeline(o.events).print(std::cout);
    std::cout << "engine: " << o.profile.events_executed << " events, "
              << static_cast<std::uint64_t>(o.profile.events_per_wall_second())
              << " events/s, " << o.profile.wall_per_sim_second()
              << " wall-s per sim-s\n";
  }
  return 0;
}

int cmd_recover(core::Cli& cli) {
  const auto spec =
      core::CampaignSpec::from_flags(cli, core::FlagSet::kRecover);
  const core::CampaignSpec::TopologyAxis& topo = spec.topologies.front();
  const auto builder = core::topology_builder(topo.name, topo.ports,
                                              topo.ring_width, topo.aspen_f);
  const failure::Condition condition = spec.conditions.front();
  const std::string proto = cli.get("proto", "udp");
  const bool csv = cli.get_flag("csv");
  ExportPaths paths;
  paths.metrics_out = cli.get("metrics-out", "");
  paths.events_out = cli.get("events-out", "");
  paths.trace_out = cli.get("trace-out", "");
  paths.samples_out = cli.get("samples-out", "");
  paths.timeline = cli.get_flag("timeline");

  core::RunKnobs knobs = exec::knobs_of(
      spec, spec.controls.front(),
      static_cast<std::uint64_t>(cli.get_int("seed", 1)));
  if (knobs.workload_enabled && proto != "udp") {
    throw std::invalid_argument(
        "--workload rides the UDP probe run (use --proto udp)");
  }
  knobs.config.log_level = parse_log_level_option(cli);
  knobs.config.observe = paths.timeline || !paths.metrics_out.empty() ||
                         !paths.events_out.empty() || !paths.trace_out.empty();
  knobs.config.sample_interval =
      paths.samples_out.empty() ? 0 : sim::millis(spec.sample_interval_ms);
  if (has_unknown_option(cli)) return usage();

  stats::Table table({"metric", "value"});
  if (proto == "udp") {
    const auto r = core::run_udp_condition(builder, condition, knobs);
    if (!r.ok) {
      std::cerr << "scenario construction failed (condition not applicable "
                   "to this topology?)\n";
      return 1;
    }
    table.row({"scenario", r.scenario});
    table.row({"connectivity loss",
               sim::format_time(r.connectivity_loss)});
    table.row({"packets sent", std::to_string(r.packets_sent)});
    table.row({"packets lost", std::to_string(r.packets_lost)});
    if (r.slo_enabled) {
      table.row({"workload flows", std::to_string(r.slo.flows)});
      table.row({"workload completed", std::to_string(r.slo.completed)});
      table.row({"fct p50 ms", stats::Table::num(r.slo.fct_ms_p50, 3)});
      table.row({"fct p99 ms", stats::Table::num(r.slo.fct_ms_p99, 3)});
      table.row({"fct p999 ms", stats::Table::num(r.slo.fct_ms_p999, 3)});
      table.row({"deadline miss (failure window)",
                 stats::Table::percent(r.slo.miss_in_window, 3)});
      table.row({"deadline miss (outside)",
                 stats::Table::percent(r.slo.miss_out_window, 3)});
    }
    if (const int rc = export_observation(r.observation, paths); rc != 0) {
      return rc;
    }
  } else if (proto == "tcp") {
    const auto r = core::run_tcp_condition(builder, condition, knobs);
    if (!r.ok) {
      std::cerr << "scenario construction failed\n";
      return 1;
    }
    table.row({"throughput collapse", sim::format_time(r.collapse)});
    table.row({"rto fires", std::to_string(r.rto_fires)});
    if (const int rc = export_observation(r.observation, paths); rc != 0) {
      return rc;
    }
  } else {
    std::cerr << "unknown --proto " << proto << "\n";
    return usage();
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}

int cmd_workload(core::Cli& cli) {
  const auto builder = core::topology_builder(
      cli.get("topo", "f2"), cli.get_int("ports", 8),
      cli.get_int("ring-width", 2), cli.get_int("aspen-f", 1));
  const int seconds = cli.get_int("seconds", 60);
  const int cf = cli.get_int("cf", 1);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const sim::LogLevel log_level = parse_log_level_option(cli);
  if (has_unknown_option(cli)) return usage();

  core::TestbedConfig config;
  config.seed = seed;
  config.log_level = log_level;
  core::Testbed bed(builder, config);
  bed.converge();

  transport::PartitionAggregateOptions pa;
  pa.start = sim::seconds(1);
  pa.stop = sim::seconds(1 + seconds);
  transport::PartitionAggregateApp app(bed.stacks(), sim::Random(seed + 1),
                                       pa);
  app.start();
  transport::BackgroundTrafficOptions bg;
  bg.start = pa.start;
  bg.stop = pa.stop;
  transport::BackgroundTraffic background(bed.stacks(), sim::Random(seed + 2),
                                          bg);
  background.start();
  failure::RandomFailureOptions rf;
  rf.start = sim::seconds(2);
  rf.stop = pa.stop;
  rf.max_concurrent = cf;
  failure::RandomFailureGenerator failures(bed.injector(),
                                           sim::Random(seed + 3), rf);
  failures.start();
  bed.sim().run(pa.stop + sim::seconds(20));

  stats::Table table({"metric", "value"});
  table.row({"requests", std::to_string(app.issued_count())});
  table.row({"completed", std::to_string(app.completed_count())});
  table.row({"failures injected", std::to_string(failures.failures_injected())});
  table.row({"deadline miss ratio",
             stats::Table::percent(
                 app.deadline_miss_ratio(pa.stop + sim::seconds(20)), 3)});
  table.print(std::cout);
  return 0;
}

std::string slurp_or_die(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::invalid_argument("cannot read " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int cmd_campaign(core::Cli& cli) {
  const std::string spec_path = cli.get("spec", "");
  const int jobs = cli.get_int("jobs", 1);
  const std::string out_path = cli.get("out", "campaign.json");
  const bool no_profile = cli.get_flag("no-profile");
  int workers = cli.get_int("workers", 0);
  const bool resume = cli.get_flag("resume");
  const std::string state_dir = cli.get("state-dir", out_path + ".state");

  core::CampaignSpec spec;
  if (resume) {
    // On --resume the checkpoint manifest names the campaign; a --spec
    // given alongside is verified against it (canonical echoes must be
    // byte-identical), never substituted. Ad hoc axis flags are not
    // consulted — they would be rejected as unknown options below.
    const auto manifest =
        core::CheckpointManifest::parse(slurp_or_die(state_dir +
                                                     "/manifest.json"));
    spec = manifest.spec;
    if (workers <= 0) workers = manifest.workers;
    if (!spec_path.empty()) {
      const auto given = core::CampaignSpec::parse(slurp_or_die(spec_path));
      std::ostringstream a;
      std::ostringstream b;
      given.write_json(a, 0);
      spec.write_json(b, 0);
      if (a.str() != b.str()) {
        std::cerr << "--spec does not match the checkpointed campaign in "
                  << state_dir << "\n";
        return 1;
      }
    }
  } else if (!spec_path.empty()) {
    spec = core::CampaignSpec::parse(slurp_or_die(spec_path));
  } else {
    spec = core::CampaignSpec::from_flags(cli);
  }
  if (has_unknown_option(cli)) return usage();

  const int total = static_cast<int>(core::enumerate_shards(spec).size());
  core::CampaignResult result;
  if (workers > 0) {
    exec::ProcessCampaignOptions options;
    options.workers = workers;
    options.resume = resume;
    options.state_dir = state_dir;
    int done = 0;
    options.on_record = [&done, total](const core::ShardResult&) {
      ++done;
      if (done % 16 == 0 || done == total) {
        std::cerr << "\r" << done << "/" << total << " shards reduced"
                  << std::flush;
      }
    };
    result = exec::run_campaign_processes(spec, options);
  } else {
    exec::CampaignOptions options;
    options.jobs = jobs;
    std::atomic<int> started{0};
    std::atomic<int> done{0};
    options.on_shard_start = [&started](const core::ShardSpec&) {
      started.fetch_add(1, std::memory_order_relaxed);
    };
    options.on_result = [&started, &done, total](const core::ShardResult&) {
      const int n = done.fetch_add(1, std::memory_order_relaxed) + 1;
      if (n % 16 == 0 || n == total) {
        std::cerr << "\r" << n << "/" << total << " shards done, "
                  << started.load(std::memory_order_relaxed) << " started"
                  << std::flush;
      }
    };
    result = exec::run_campaign(spec, options);
  }
  if (total > 0) std::cerr << "\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  result.write_json(out, !no_profile);

  stats::Table table({"class", "runs", "affected", "failed", "loss ms mean",
                      "p50", "p99", "max", "pkts lost"});
  for (const auto& a : core::aggregate_runs(result.runs)) {
    table.row({a.key, std::to_string(a.runs), std::to_string(a.affected),
               std::to_string(a.failed), stats::Table::num(a.loss_ms_mean, 1),
               stats::Table::num(a.loss_ms_p50, 1),
               stats::Table::num(a.loss_ms_p99, 1),
               stats::Table::num(a.loss_ms_max, 1),
               std::to_string(a.packets_lost_total)});
  }
  table.print(std::cout);
  if (spec.random_sites > 0) {
    stats::Table surv({"class", "draws", "affected", "failed", "avail mean",
                       "avail p50", "avail min", "rel<=10ms", "rel<=100ms"});
    for (const auto& a : core::aggregate_survivability(
             result.runs, spec.horizon - spec.fail_at)) {
      surv.row({a.key, std::to_string(a.draws), std::to_string(a.affected),
                std::to_string(a.failed),
                stats::Table::num(a.availability_mean, 4),
                stats::Table::num(a.availability_p50, 4),
                stats::Table::num(a.availability_min, 4),
                stats::Table::num(a.reliability[1], 3),
                stats::Table::num(a.reliability[2], 3)});
    }
    surv.print(std::cout);
  }
  if (spec.workload.enabled) {
    const core::SloAggregate a = core::aggregate_slo(result.runs);
    stats::Table slo({"slo runs", "flows", "completed", "fct p99 ms mean",
                      "fct p999 ms max", "miss in-window", "miss outside"});
    slo.row({std::to_string(a.runs), std::to_string(a.flows),
             std::to_string(a.completed),
             stats::Table::num(a.fct_p99_ms_mean, 3),
             stats::Table::num(a.fct_p999_ms_max, 3),
             stats::Table::percent(a.miss_in, 3),
             stats::Table::percent(a.miss_out, 3)});
    slo.print(std::cout);
  }
  std::cout << result.runs.size() << " shards, ";
  if (result.workers > 0) {
    std::cout << "workers=" << result.workers;
  } else {
    std::cout << "jobs=" << result.jobs;
  }
  std::cout << ", wall " << stats::Table::num(result.wall_seconds, 2)
            << "s, steals=" << result.steals << " -> " << out_path << "\n";
  return 0;
}

int cmd_topo(core::Cli& cli) {
  const auto builder = core::topology_builder(
      cli.get("topo", "f2"), cli.get_int("ports", 8),
      cli.get_int("ring-width", 2), cli.get_int("aspen-f", 1));
  const bool dot = cli.get_flag("dot");
  if (has_unknown_option(cli)) return usage();
  sim::Simulator sim(1);
  net::Network net(sim);
  const auto topo = builder(net);
  if (dot) {
    topo::write_graphviz(std::cout, topo);
  } else {
    std::cout << topo.summary() << "\n";
    const auto violations = topo::validate_topology(topo);
    for (const auto& v : violations) std::cout << "VIOLATION: " << v << "\n";
  }
  return 0;
}

int cmd_table1(core::Cli& cli) {
  const int ports = cli.get_int("ports", 8);
  const int f = cli.get_int("aspen-f", 1);
  if (has_unknown_option(cli)) return usage();
  stats::Table table({"Solution", "Switches", "Nodes", "Modify routing",
                      "Modify data plane"});
  for (const auto& row : core::table1(ports, f)) {
    table.row({row.name, stats::Table::num(row.switches, 0),
               stats::Table::num(row.nodes, 0), row.modifies_routing,
               row.modifies_data_plane});
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    core::Cli cli(argc, argv);
    if (!cli.has_command()) return usage();
    if (cli.command() == "recover") return cmd_recover(cli);
    if (cli.command() == "workload") return cmd_workload(cli);
    if (cli.command() == "campaign") return cmd_campaign(cli);
    if (cli.command() == "topo") return cmd_topo(cli);
    if (cli.command() == "table1") return cmd_table1(cli);
    std::cerr << "unknown command: " << cli.command() << "\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
