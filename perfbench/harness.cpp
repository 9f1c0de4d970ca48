// Benchmark harness for the simulator: runs one named workload through the
// library entry points f2tsim itself calls and prints one JSON document
// (timings, deterministic simulated outputs, and — in a traced run — spans
// and per-layer counters) for perfbench/run.py to check and reduce.
//
//   f2t_perfbench --workload NAME --seed N --seconds S --trace 0|1 [--shrink]
//
// Untraced passes call exec::run_campaign / core::run_udp_condition as
// they are. A traced pass performs the same steps through the public API
// of each module (Testbed ctor, converge, scenario plan, apply_fault, the
// event loop, collection, artifact write) with a span around every call,
// so it must reproduce the untraced outputs exactly; run.py checks that.
// The obs journal and sampler stay off in every pass.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/json.hpp"
#include "core/runner.hpp"
#include "exec/campaign.hpp"
#include "exec/thread_pool.hpp"
#include "failure/scenarios.hpp"
#include "stats/flow_metrics.hpp"
#include "transport/fluid.hpp"
#include "transport/udp_app.hpp"
#include "transport/workload.hpp"

#ifndef F2T_BENCH_BUILD_TYPE
#define F2T_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace f2t;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// JSON emission (numbers at 17 significant digits, so outputs compare
// exactly after a round trip through Python).

std::string jnum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
std::string jint(std::uint64_t v) { return std::to_string(v); }
std::string jbool(bool v) { return v ? "true" : "false"; }
std::string jstr(const std::string& s) {
  return "\"" + core::json::escape(s) + "\"";
}

class JsonObject {
 public:
  JsonObject& add(const std::string& key, std::string literal) {
    fields_.emplace_back(key, std::move(literal));
    return *this;
  }
  std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += jstr(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string jarr(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out + "]";
}

/// FNV-1a 64 of the deterministic campaign artifact.
std::string digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// ---------------------------------------------------------------------------
// Spans: name ("<layer>.<call>"), start, end, parent and the run id shared
// by all spans of one simulation run. Kept in memory, emitted at the end.

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  int run = 0;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int open(std::string name, int parent, int run) {
    const double now = seconds_between(origin_, Clock::now());
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), now, now, parent, run});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    const double now = seconds_between(origin_, Clock::now());
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = now;
  }
  std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }
  /// A fresh run id (one per simulation run and one per pass).
  int next_run() { return next_run_++; }

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<int> next_run_{0};
};

/// Per-thread span context: the open span new spans nest under.
struct TraceContext {
  Tracer* tracer = nullptr;
  int parent = -1;
  int run = 0;
};
thread_local TraceContext tls_trace;

class Scope {
 public:
  explicit Scope(const char* name) {
    if (tls_trace.tracer == nullptr) return;
    id_ = tls_trace.tracer->open(name, tls_trace.parent, tls_trace.run);
    saved_parent_ = tls_trace.parent;
    tls_trace.parent = id_;
  }
  ~Scope() {
    if (id_ < 0) return;
    tls_trace.tracer->close(id_);
    tls_trace.parent = saved_parent_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return id_; }

 private:
  int id_ = -1;
  int saved_parent_ = -1;
};

template <class F>
auto traced(const char* name, F&& fn) {
  const Scope scope(name);
  return fn();
}

// ---------------------------------------------------------------------------
// Per-layer counters, read from public accessors after each traced run.

struct LayerCounters {
  std::mutex mu;
  std::uint64_t lsas_originated = 0;
  std::uint64_t spf_runs = 0;
  std::uint64_t spf_incremental_runs = 0;
  std::uint64_t fib_installs = 0;
  std::uint64_t fib_noop_installs = 0;
  std::uint64_t controller_computations = 0;
  double central_loop_s = 0;
  std::uint64_t packets_forwarded = 0;
  std::uint64_t drops = 0;
  std::uint64_t calendar_grows = 0;
  std::uint64_t calendar_shrinks = 0;
  std::uint64_t calendar_far_jumps = 0;
  std::uint64_t calendar_max_bucket_depth = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t fluid_retraces = 0;

  std::string json() const {
    return JsonObject()
        .add("lsas_originated", jint(lsas_originated))
        .add("spf_runs", jint(spf_runs))
        .add("spf_incremental_runs", jint(spf_incremental_runs))
        .add("fib_installs", jint(fib_installs))
        .add("fib_noop_installs", jint(fib_noop_installs))
        .add("controller_computations", jint(controller_computations))
        .add("central_loop_s", jnum(central_loop_s))
        .add("packets_forwarded", jint(packets_forwarded))
        .add("drops", jint(drops))
        .add("calendar_grows", jint(calendar_grows))
        .add("calendar_shrinks", jint(calendar_shrinks))
        .add("calendar_far_jumps", jint(calendar_far_jumps))
        .add("calendar_max_bucket_depth", jint(calendar_max_bucket_depth))
        .add("flows_completed", jint(flows_completed))
        .add("retransmits", jint(retransmits))
        .add("fluid_retraces", jint(fluid_retraces))
        .str();
  }
};

/// Counts TCP data segments a host sends again below the highest sequence
/// it already sent on that flow, as seen by the first switch (hops == 1).
/// TcpWorkload keeps its connections private, so the benchmark reads
/// retransmissions off the wire instead of from TcpEndpoint::stats().
class RetransmitTap {
 public:
  void attach(const topo::BuiltTopology& topo) {
    for (net::L3Switch* tor : topo.tors) {
      tor->add_forward_tap(
          [this](const net::Packet& p, net::PortId, net::PortId) {
            on_forward(p);
          });
    }
  }
  std::uint64_t retransmits() const { return retransmits_; }

 private:
  void on_forward(const net::Packet& p) {
    if (p.proto != net::Protocol::kTcp || p.hops != 1 ||
        p.tcp.payload_bytes == 0) {
      return;
    }
    const auto key = std::make_tuple(p.src.value(), p.dst.value(), p.sport,
                                     p.dport);
    std::uint64_t& high = sent_high_[key];
    const std::uint64_t end = p.tcp.seq + p.tcp.payload_bytes;
    if (p.tcp.seq < high) ++retransmits_;
    high = std::max(high, end);
  }

  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint16_t,
                      std::uint16_t>,
           std::uint64_t>
      sent_high_;
  std::uint64_t retransmits_ = 0;
};

void read_counters(core::Testbed& bed, double loop_s,
                   const transport::FluidProbe* probe,
                   const transport::TcpWorkload* workload,
                   const RetransmitTap* tap, LayerCounters& c) {
  const Scope scope("net.counters");
  const std::lock_guard<std::mutex> lock(c.mu);
  if (bed.config().control_plane == core::ControlPlane::kCentral) {
    c.controller_computations += bed.controller().counters().computations;
    c.central_loop_s += loop_s;
  } else {
    const auto ospf = bed.total_ospf_counters();
    c.lsas_originated += ospf.lsas_originated;
    c.spf_runs += ospf.spf_runs;
    c.spf_incremental_runs += ospf.spf_incremental_runs;
    c.fib_installs += ospf.fib_installs;
    c.fib_noop_installs += ospf.fib_noop_installs;
  }
  for (net::L3Switch* sw : bed.network().switches()) {
    const auto& k = sw->counters();
    c.packets_forwarded += k.forwarded;
    c.drops += k.dropped_no_route + k.dropped_ttl;
  }
  for (net::Link* link : bed.network().links()) {
    c.drops += link->dropped_down() + link->dropped_gray() +
               link->dropped_queue();
  }
  const sim::CalendarStats q = bed.sim().scheduler().queue_stats();
  c.calendar_grows += q.grows;
  c.calendar_shrinks += q.shrinks;
  c.calendar_far_jumps += q.far_jumps;
  c.calendar_max_bucket_depth =
      std::max<std::uint64_t>(c.calendar_max_bucket_depth, q.max_bucket_depth);
  if (probe != nullptr) c.fluid_retraces += probe->stats().retraces;
  if (workload != nullptr) c.flows_completed += workload->completed();
  if (tap != nullptr) c.retransmits += tap->retransmits();
}

// ---------------------------------------------------------------------------
// Workload definitions. Why each exists and its loop shape are recorded in
// perfbench/README.md next to the metric predictions.

/// campaign_packet: closed loop — kCampaignJobs pool threads each take the
/// next shard only when they free up.
constexpr int kCampaignJobs = 2;

std::string campaign_spec_text(std::uint64_t seed, bool shrink) {
  // C6/C7 fail across links, so they have no plan on the fat tree; the
  // matrix keeps the conditions both topologies have (no shard fails by
  // construction) and fills the 60 shards with link sites instead.
  const int ports = shrink ? 4 : 12;
  const char* conditions =
      shrink ? "\"C1\"" : "\"C1\", \"C2\", \"C3\", \"C4\", \"C5\"";
  const int link_sites = shrink ? 2 : 10;
  std::ostringstream os;
  os << "{\"name\": \"perfbench-campaign_packet\", \"topologies\": ["
     << "{\"name\": \"f2\", \"ports\": " << ports << "}, "
     << "{\"name\": \"fat\", \"ports\": " << ports << "}], "
     << "\"controls\": [\"ospf\", \"central\"], \"conditions\": ["
     << conditions << "], \"link_sites\": " << link_sites
     << ", \"base_seed\": " << seed << "}";
  return os.str();
}

/// One standalone recover run of scale_flow / tcp_background.
struct RunSpec {
  std::string topo;
  int ports = 8;
  core::ControlPlane control = core::ControlPlane::kOspf;
  core::Fidelity fidelity = core::Fidelity::kPacket;
  bool tcp_background = false;

  std::string label() const {
    std::string out = topo + "-" + std::to_string(ports) + "/" +
                      (control == core::ControlPlane::kCentral ? "central"
                                                               : "ospf") +
                      "/C1/" + core::fidelity_name(fidelity);
    return tcp_background ? out + "+tcp" : out;
  }
};

/// Poisson web-search background at 2% of host uplink load.
constexpr double kBackgroundLoad = 0.02;

/// The web-search flow-size mix conditioned on sizes up to its 95th
/// percentile (1.33 MB). With the full tail, the 2% of flows above 6.7 MB
/// carry most of the bytes, so the work of one 3 s run varies by about
/// +-22% from seed to seed (8.3M-16.5M events over seeds 1-11); without it
/// the same offered load is spread over about four times as many flows and
/// the work per seed varies by about 7%.
transport::FlowSizeCdf background_sizes() {
  constexpr double kCapBytes = 1333e3;
  std::vector<transport::FlowSizeCdf::Point> points;
  double cap_cum = 1;
  const transport::FlowSizeCdf websearch = transport::FlowSizeCdf::websearch();
  for (const auto& p : websearch.points()) {
    if (p.bytes > kCapBytes) break;
    points.push_back(p);
    cap_cum = p.cum;
  }
  for (auto& p : points) p.cum /= cap_cum;
  return transport::FlowSizeCdf(std::move(points));
}

std::vector<RunSpec> run_specs(const std::string& workload, bool shrink) {
  if (workload == "scale_flow") {
    // Flow fidelity at production scale, one run after the other: almost
    // all of the wall clock is control-plane compute (converge + controller
    // recompute), the event core is nearly idle.
    return {RunSpec{"fat", shrink ? 8 : 32, core::ControlPlane::kCentral,
                    core::Fidelity::kFlow, false},
            RunSpec{"fat", shrink ? 8 : 24, core::ControlPlane::kOspf,
                    core::Fidelity::kFlow, false}};
  }
  if (workload == "tcp_background") {
    // Open-loop Poisson TCP arrivals on every host: the event loop with
    // host TCP stacks and heavy timer schedule/cancel; control plane idle.
    return {RunSpec{"f2", shrink ? 4 : 8, core::ControlPlane::kOspf,
                    core::Fidelity::kPacket, true}};
  }
  throw std::invalid_argument("unknown workload: " + workload);
}

core::RunKnobs knobs_of(const RunSpec& rs, std::uint64_t seed) {
  core::RunKnobs knobs;
  knobs.config.control_plane = rs.control;
  knobs.config.seed = seed;
  knobs.fidelity = rs.fidelity;
  if (rs.tcp_background) {
    core::CampaignSpec::WorkloadAxis axis;
    axis.enabled = true;
    axis.load = kBackgroundLoad;
    knobs.workload_enabled = true;
    knobs.workload = exec::workload_options_of(axis, knobs.horizon);
    knobs.workload.sizes = background_sizes();
  }
  return knobs;
}

// ---------------------------------------------------------------------------
// Pass records.

struct RunRecord {
  double wall_s = 0;
  double setup_s = 0;
  double loop_s = 0;
  std::uint64_t events = 0;
  std::string outputs;  ///< JSON object of deterministic simulated outputs
  /// Queue wait from the campaign start to the shard's start (campaigns).
  double queue_wait_s = 0;

  std::string json() const {
    return JsonObject()
        .add("wall_s", jnum(wall_s))
        .add("setup_s", jnum(setup_s))
        .add("loop_s", jnum(loop_s))
        .add("events", jint(events))
        .add("queue_wait_s", jnum(queue_wait_s))
        .add("outputs", outputs)
        .str();
  }
};

struct PassRecord {
  double wall_s = 0;
  double setup_s = 0;
  std::vector<RunRecord> runs;
  std::string outputs = "{}";  ///< pass-level deterministic outputs
  /// Campaign engine numbers (zero for standalone runs).
  double pool_s = 0;
  double reduce_s = 0;
  std::uint64_t steals = 0;
  /// Traced passes only.
  std::string counters = "{}";

  std::string json() const {
    std::vector<std::string> rs;
    rs.reserve(runs.size());
    for (const auto& r : runs) rs.push_back(r.json());
    return JsonObject()
        .add("wall_s", jnum(wall_s))
        .add("setup_s", jnum(setup_s))
        .add("pool_s", jnum(pool_s))
        .add("reduce_s", jnum(reduce_s))
        .add("steals", jint(steals))
        .add("outputs", outputs)
        .add("counters", counters)
        .add("runs", jarr(rs))
        .str();
  }
};

std::string shard_outputs(const core::ShardResult& r) {
  return JsonObject()
      .add("run", jstr(r.topology + "/" + r.control + "/" + r.site))
      .add("ok", jbool(r.ok))
      .add("on_path", jbool(r.on_path))
      .add("class", jstr(r.site_class))
      .add("loss_ns", std::to_string(r.connectivity_loss))
      .add("sent", jint(r.packets_sent))
      .add("lost", jint(r.packets_lost))
      .add("events", jint(r.events_executed))
      .add("error", jstr(r.error))
      .str();
}

std::string udp_outputs(const RunSpec& rs, const core::UdpRun& run,
                        std::uint64_t events) {
  JsonObject o;
  o.add("run", jstr(rs.label()))
      .add("ok", jbool(run.ok))
      .add("on_path", jbool(run.ok && run.probe_on_path))
      .add("class", jstr(run.site_class))
      .add("loss_ns", std::to_string(run.connectivity_loss))
      .add("sent", jint(run.packets_sent))
      .add("lost", jint(run.packets_lost))
      .add("events", jint(events))
      .add("fluid_loop_traces", jint(run.fluid_loop_traces));
  if (run.slo_enabled) {
    o.add("flows", jint(run.slo.flows))
        .add("completed", jint(run.slo.completed))
        .add("fct_p50_ms", jnum(run.slo.fct_ms_p50))
        .add("fct_p99_ms", jnum(run.slo.fct_ms_p99))
        .add("fct_p999_ms", jnum(run.slo.fct_ms_p999))
        .add("miss_in", jnum(run.slo.miss_in_window))
        .add("miss_out", jnum(run.slo.miss_out_window));
  }
  return o.str();
}

std::string campaign_pass_outputs(const core::CampaignResult& result,
                                  std::uint64_t events) {
  const std::string artifact = traced("core.artifact_write", [&] {
    std::ostringstream os;
    result.write_json(os, /*include_profile=*/false);
    return os.str();
  });
  return JsonObject()
      .add("digest", jstr(digest(artifact)))
      .add("events", jint(events))
      .str();
}

// ---------------------------------------------------------------------------
// Untraced passes: the library entry points, timed from outside.

PassRecord campaign_pass(std::uint64_t seed, bool shrink) {
  PassRecord p;
  const auto t0 = Clock::now();
  const auto spec = core::CampaignSpec::parse(campaign_spec_text(seed, shrink));
  const auto shards = core::enumerate_shards(spec);
  const auto pool_start = Clock::now();

  std::vector<Clock::time_point> started(shards.size());
  std::vector<Clock::time_point> finished(shards.size());
  exec::CampaignOptions options;
  options.jobs = kCampaignJobs;
  // run_campaign serializes both hooks under one mutex.
  options.on_shard_start = [&](const core::ShardSpec& s) {
    started.at(static_cast<std::size_t>(s.index)) = Clock::now();
  };
  options.on_result = [&](const core::ShardResult& r) {
    finished.at(static_cast<std::size_t>(r.index)) = Clock::now();
  };
  const core::CampaignResult result = exec::run_campaign(spec, options);
  const auto returned = Clock::now();

  p.setup_s = seconds_between(t0, pool_start);
  std::uint64_t events = 0;
  Clock::time_point last_result = pool_start;
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    const core::ShardResult& r = result.runs[i];
    RunRecord rec;
    rec.wall_s = seconds_between(started[i], finished[i]);
    rec.loop_s = r.wall_seconds;
    // The record's wall covers only the event loop; the rest of the
    // shard's wall (Testbed build, converge, plan, collect) is set-up.
    rec.setup_s = rec.wall_s - rec.loop_s;
    rec.events = r.events_executed;
    rec.queue_wait_s = seconds_between(pool_start, started[i]);
    rec.outputs = shard_outputs(r);
    p.setup_s += rec.setup_s;
    events += r.events_executed;
    last_result = std::max(last_result, finished[i]);
    p.runs.push_back(std::move(rec));
  }
  p.pool_s = seconds_between(pool_start, returned);
  p.reduce_s = seconds_between(last_result, returned);
  p.steals = result.steals;
  p.outputs = campaign_pass_outputs(result, events);
  p.wall_s = seconds_between(t0, Clock::now());
  return p;
}

PassRecord standalone_pass(const std::vector<RunSpec>& specs,
                           std::uint64_t seed) {
  PassRecord p;
  const auto t0 = Clock::now();
  for (const RunSpec& rs : specs) {
    const auto knobs = knobs_of(rs, seed);
    const auto builder = core::topology_builder(rs.topo, rs.ports);
    const auto run_start = Clock::now();
    const core::UdpRun run =
        core::run_udp_condition(builder, failure::Condition::kC1, knobs);
    RunRecord rec;
    rec.wall_s = seconds_between(run_start, Clock::now());
    rec.setup_s = run.observation.profile.setup_wall_seconds;
    rec.loop_s = run.observation.profile.wall_seconds;
    rec.events = run.observation.profile.events_executed;
    rec.outputs = udp_outputs(rs, run, rec.events);
    p.setup_s += rec.setup_s;
    p.runs.push_back(std::move(rec));
  }
  p.wall_s = seconds_between(t0, Clock::now());
  return p;
}

// ---------------------------------------------------------------------------
// Traced passes: the same work, one public call per span.

using PlanFn = std::function<std::optional<failure::ScenarioPlan>(
    const topo::BuiltTopology&)>;

struct TracedRun {
  core::UdpRun run;
  double setup_s = 0;
  double loop_s = 0;
  std::uint64_t events = 0;
};

/// Mirrors the arrival accounting of core::run_udp_condition.
void collect_arrivals(core::UdpRun& out,
                      const std::vector<transport::UdpSink::Arrival>& sink,
                      std::uint32_t wire_bytes, sim::Time fail_at) {
  std::vector<sim::Time> arrivals;
  arrivals.reserve(sink.size());
  for (const auto& a : sink) {
    arrivals.push_back(a.at);
    out.delay_series.add(a.at, sim::to_micros(a.delay));
    out.throughput.add(a.at, wire_bytes);
  }
  const auto loss = stats::find_connectivity_loss(arrivals, fail_at);
  out.ok = true;
  if (loss) out.connectivity_loss = loss->duration();
}

TracedRun traced_udp_run(const core::Testbed::TopoBuilder& builder,
                         const PlanFn& plan_of, const core::RunKnobs& knobs,
                         LayerCounters& counters) {
  const Scope run_scope("core.run");
  TracedRun t;
  const auto setup_start = Clock::now();
  const core::Testbed::TopoBuilder topo_builder =
      [&builder](net::Network& n) {
        return traced("topo.build", [&] { return builder(n); });
      };
  auto bed = traced("core.testbed", [&] {
    return std::make_unique<core::Testbed>(topo_builder, knobs.config);
  });
  traced("routing.converge", [&] { bed->converge(); });
  const auto plan =
      traced("failure.plan", [&] { return plan_of(bed->topo()); });
  t.setup_s = seconds_between(setup_start, Clock::now());
  if (!plan) return t;

  core::UdpRun& out = t.run;
  out.scenario = plan->description;
  out.site_class = plan->site_class;
  out.probe_on_path = plan->on_path;

  std::optional<transport::UdpSink> sink;
  std::optional<transport::UdpCbrSender> sender;
  std::optional<transport::FluidProbe> probe;
  std::unique_ptr<transport::TcpWorkload> workload;
  RetransmitTap tap;
  std::uint32_t payload_bytes = 0;
  traced("transport.attach", [&] {
    if (knobs.fidelity == core::Fidelity::kFlow) {
      transport::FluidProbe::Options fo;
      fo.sport = plan->sport;
      fo.dport = plan->dport;
      fo.stop = knobs.horizon - sim::millis(200);
      payload_bytes = fo.payload_bytes;
      probe.emplace(bed->network(), *plan->src, *plan->dst, fo);
      return;
    }
    sink.emplace(bed->stack_of(*plan->dst), plan->dport);
    transport::UdpCbrSender::Options so;
    so.sport = plan->sport;
    so.dport = plan->dport;
    so.stop = knobs.horizon - sim::millis(200);
    payload_bytes = so.payload_bytes;
    sender.emplace(bed->stack_of(*plan->src), plan->dst->addr(), so);
    sender->start();
    if (knobs.workload_enabled) {
      auto wo = knobs.workload;
      if (wo.stop > knobs.horizon) wo.stop = knobs.horizon;
      workload = std::make_unique<transport::TcpWorkload>(
          bed->stacks(),
          sim::Random(sim::Random::derive_stream_seed(knobs.config.seed,
                                                      core::kWorkloadStream)),
          std::move(wo));
      workload->start();
      tap.attach(bed->topo());
    }
  });
  traced("failure.apply_fault", [&] {
    failure::apply_fault(bed->topo(), bed->injector(), *plan, knobs.fault,
                         knobs.fail_at);
  });
  const auto loop_start = Clock::now();
  t.events = traced("sim.loop", [&] { return bed->sim().run(knobs.horizon); });
  t.loop_s = seconds_between(loop_start, Clock::now());
  if (probe) traced("transport.finalize", [&] { probe->finalize(); });

  traced("stats.collect", [&] {
    const std::uint32_t wire = payload_bytes + net::kUdpHeaderBytes;
    if (probe) {
      out.packets_sent = probe->packets_sent();
      out.packets_lost =
          stats::packets_lost(probe->packets_sent(), probe->arrivals().size());
      out.fluid_loop_traces = probe->stats().loop_traces;
      collect_arrivals(out, probe->arrivals(), wire, knobs.fail_at);
      return;
    }
    if (workload != nullptr) {
      out.slo_enabled = true;
      out.slo = stats::compute_slo(workload->samples(), knobs.fail_at,
                                   knobs.horizon, knobs.horizon);
    }
    out.packets_sent = sender->packets_sent();
    out.packets_lost =
        stats::packets_lost(sender->packets_sent(), sink->packets_received());
    collect_arrivals(out, sink->arrivals(), wire, knobs.fail_at);
  });
  read_counters(*bed, t.loop_s, probe ? &*probe : nullptr, workload.get(),
                workload != nullptr ? &tap : nullptr, counters);
  traced("core.teardown", [&] {
    // Attachments before the Testbed whose network they hook into.
    workload.reset();
    probe.reset();
    sender.reset();
    sink.reset();
    bed.reset();
  });
  return t;
}

core::ControlPlane control_of(const std::string& name) {
  return name == "central" ? core::ControlPlane::kCentral
                           : core::ControlPlane::kOspf;
}

/// exec::run_shard, one public call per span. The spec sets only the keys
/// mapped here (controls are ospf and central); everything else, the fault
/// model included, is at its default on both paths.
core::ShardResult traced_shard(const core::CampaignSpec& spec,
                               const core::ShardSpec& shard,
                               LayerCounters& counters, TracedRun& t) {
  core::RunKnobs knobs;
  knobs.fail_at = spec.fail_at;
  knobs.horizon = spec.horizon;
  knobs.config.control_plane = control_of(shard.control);
  knobs.config.detection.down_delay = sim::millis(spec.detection_ms);
  knobs.config.detection.up_delay = knobs.config.detection.down_delay;
  knobs.config.ospf.throttle.initial_delay = sim::millis(spec.spf_ms);
  knobs.config.seed = shard.seed;

  const auto builder = core::topology_builder(
      shard.topology.name, shard.topology.ports, shard.topology.ring_width,
      shard.topology.aspen_f);
  const PlanFn plan_of = [&shard](const topo::BuiltTopology& topo) {
    return shard.is_link_site
               ? failure::build_link_site_plan(topo, shard.link_site,
                                               net::Protocol::kUdp)
               : failure::build_condition(topo, shard.condition,
                                          net::Protocol::kUdp);
  };
  t = traced_udp_run(builder, plan_of, knobs, counters);

  core::ShardResult r;
  r.index = shard.index;
  r.topology = shard.topology.label();
  r.control = shard.control;
  r.site = shard.site();
  r.site_class = t.run.site_class;
  r.replicate = shard.replicate;
  r.seed = shard.seed;
  r.ok = t.run.ok;
  r.on_path = t.run.ok && t.run.probe_on_path;
  r.connectivity_loss = t.run.connectivity_loss;
  r.packets_sent = t.run.packets_sent;
  r.packets_lost = t.run.packets_lost;
  r.events_executed = t.events;
  r.wall_seconds = t.loop_s;
  r.scenario = t.run.scenario;
  return r;
}

PassRecord campaign_pass_traced(std::uint64_t seed, bool shrink,
                                Tracer& tracer) {
  PassRecord p;
  LayerCounters counters;
  tls_trace = TraceContext{&tracer, -1, tracer.next_run()};
  const auto t0 = Clock::now();
  {
    const Scope root("bench.pass");
    const auto spec = traced("core.spec_parse", [&] {
      return core::CampaignSpec::parse(campaign_spec_text(seed, shrink));
    });
    const auto shards =
        traced("core.enumerate", [&] { return core::enumerate_shards(spec); });
    const auto pool_start = Clock::now();

    core::CampaignResult result;
    result.spec = spec;
    result.hardware_threads = std::thread::hardware_concurrency();
    result.runs.resize(shards.size());
    std::vector<TracedRun> runs(shards.size());
    std::vector<Clock::time_point> started(shards.size());
    std::vector<Clock::time_point> finished(shards.size());
    {
      const Scope pool_scope("exec.pool");
      exec::ThreadPool pool(kCampaignJobs);
      result.jobs = pool.threads();
      const int pool_span = pool_scope.id();
      pool.parallel_for(shards.size(), [&](std::size_t i) {
        const TraceContext saved = tls_trace;
        tls_trace = TraceContext{&tracer, pool_span, tracer.next_run()};
        started[i] = Clock::now();
        {
          const Scope shard_scope("exec.shard");
          try {
            result.runs[i] = traced_shard(spec, shards[i], counters, runs[i]);
          } catch (const std::exception& e) {
            // Same error record exec::run_shard_captured would store.
            core::ShardResult& r = result.runs[i];
            r.index = shards[i].index;
            r.topology = shards[i].topology.label();
            r.control = shards[i].control;
            r.site = shards[i].site();
            r.replicate = shards[i].replicate;
            r.seed = shards[i].seed;
            r.error = e.what();
          }
        }
        finished[i] = Clock::now();
        tls_trace = saved;
      });
      p.steals = pool.steals();
    }
    const auto returned = Clock::now();

    p.setup_s = seconds_between(t0, pool_start);
    std::uint64_t events = 0;
    Clock::time_point last_result = pool_start;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      RunRecord rec;
      rec.wall_s = seconds_between(started[i], finished[i]);
      rec.setup_s = runs[i].setup_s;
      rec.loop_s = runs[i].loop_s;
      rec.events = runs[i].events;
      rec.queue_wait_s = seconds_between(pool_start, started[i]);
      rec.outputs = shard_outputs(result.runs[i]);
      p.setup_s += rec.setup_s;
      events += rec.events;
      last_result = std::max(last_result, finished[i]);
      p.runs.push_back(std::move(rec));
    }
    p.pool_s = seconds_between(pool_start, returned);
    p.reduce_s = seconds_between(last_result, returned);
    p.outputs = campaign_pass_outputs(result, events);
  }
  p.wall_s = seconds_between(t0, Clock::now());
  p.counters = counters.json();
  tls_trace = TraceContext{};
  return p;
}

PassRecord standalone_pass_traced(const std::vector<RunSpec>& specs,
                                  std::uint64_t seed, Tracer& tracer) {
  PassRecord p;
  LayerCounters counters;
  tls_trace = TraceContext{&tracer, -1, tracer.next_run()};
  const auto t0 = Clock::now();
  {
    const Scope root("bench.pass");
    for (const RunSpec& rs : specs) {
      tls_trace.run = tracer.next_run();
      const auto knobs = knobs_of(rs, seed);
      const auto builder = core::topology_builder(rs.topo, rs.ports);
      const PlanFn plan_of = [](const topo::BuiltTopology& topo) {
        return failure::build_condition(topo, failure::Condition::kC1,
                                        net::Protocol::kUdp);
      };
      const auto run_start = Clock::now();
      const TracedRun t = traced_udp_run(builder, plan_of, knobs, counters);
      RunRecord rec;
      rec.wall_s = seconds_between(run_start, Clock::now());
      rec.setup_s = t.setup_s;
      rec.loop_s = t.loop_s;
      rec.events = t.events;
      rec.outputs = udp_outputs(rs, t.run, t.events);
      p.setup_s += rec.setup_s;
      p.runs.push_back(std::move(rec));
    }
  }
  p.wall_s = seconds_between(t0, Clock::now());
  p.counters = counters.json();
  tls_trace = TraceContext{};
  return p;
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool shrink = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--shrink") {
      a.shrink = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

std::string spans_json(const std::vector<Span>& spans) {
  std::vector<std::string> out;
  out.reserve(spans.size());
  for (const Span& s : spans) {
    out.push_back(jarr({jstr(s.name), jnum(s.start), jnum(s.end),
                        std::to_string(s.parent), std::to_string(s.run)}));
  }
  return jarr(out);
}

int run(const Args& a) {
  const bool campaign = a.workload == "campaign_packet";
  const std::vector<RunSpec> specs =
      campaign ? std::vector<RunSpec>{} : run_specs(a.workload, a.shrink);
  const auto untraced_pass = [&] {
    return campaign ? campaign_pass(a.seed, a.shrink)
                    : standalone_pass(specs, a.seed);
  };

  const auto start = Clock::now();
  std::vector<std::string> passes;
  std::vector<std::string> traced_passes;
  std::vector<Span> spans;
  if (!a.trace) {
    do {
      passes.push_back(untraced_pass().json());
    } while (seconds_between(start, Clock::now()) < a.seconds);
  } else {
    // One untraced pass is the overhead baseline and the output reference
    // the traced passes must reproduce.
    passes.push_back(untraced_pass().json());
    Tracer tracer(Clock::now());
    do {
      traced_passes.push_back(
          (campaign ? campaign_pass_traced(a.seed, a.shrink, tracer)
                    : standalone_pass_traced(specs, a.seed, tracer))
              .json());
    } while (seconds_between(start, Clock::now()) < a.seconds);
    spans = tracer.spans();
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::cout << JsonObject()
                   .add("workload", jstr(a.workload))
                   .add("seed", jint(a.seed))
                   .add("shrink", jbool(a.shrink))
                   .add("build_type", jstr(F2T_BENCH_BUILD_TYPE))
                   .add("hardware_threads",
                        jint(std::thread::hardware_concurrency()))
                   .add("jobs", jint(campaign ? kCampaignJobs : 1))
                   .add("peak_rss_mb",
                        jnum(static_cast<double>(usage.ru_maxrss) / 1024.0))
                   .add("passes", jarr(passes))
                   .add("traced_passes", jarr(traced_passes))
                   .add("spans", spans_json(spans))
                   .str()
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "f2t_perfbench: " << e.what() << "\n";
    return 2;
  }
}
