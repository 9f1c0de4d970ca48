#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "core/json.hpp"
#include "failure/scenarios.hpp"
#include "sim/time.hpp"

namespace f2t::core {

class Cli;

/// Which f2tsim command's flags CampaignSpec::from_flags reads.
enum class FlagSet {
  kCampaign,  ///< ad hoc `f2tsim campaign`: every knob row with a flag
  /// `f2tsim recover`: a one-shard spec (one topology, one control, one
  /// --condition) that takes every knob flag not marked campaign-only.
  kRecover,
};

/// Declarative description of a failure-injection campaign: the cartesian
/// matrix of topologies x control planes x failure sites x seed
/// replicates, plus the shared run knobs. Parsed from a user-authored
/// JSON spec (`f2tsim campaign --spec`), echoed verbatim into every
/// campaign artifact so a result file names the experiment that produced
/// it.
///
/// Failure sites come from two enumerators:
///  - `conditions`: the paper's Table IV structural conditions (C1..C8),
///    constructed against the reference flow exactly as `f2tsim recover`;
///  - `link_sites`: the first N switch-to-switch links (or all of them),
///    each failed individually with a probe flow steered across the link
///    when the ECMP search finds one — the exhaustive sweep the paper's
///    aggregate claims need.
struct CampaignSpec {
  static constexpr int kSchemaVersion = 1;

  struct TopologyAxis {
    std::string name = "f2";  ///< core::topology_builder name
    int ports = 8;
    int ring_width = 2;
    int aspen_f = 1;

    /// "f2-8", the label used in run records and aggregate keys.
    std::string label() const;
  };

  std::string name = "campaign";
  std::vector<TopologyAxis> topologies;
  std::vector<std::string> controls;  ///< "ospf" | "central" | "bgp"
  std::vector<failure::Condition> conditions;
  int link_sites = 0;  ///< first N switch links as sites; -1 = all
  int seeds = 1;       ///< replicates per (topology, control, site)
  std::uint64_t base_seed = 1;
  int detection_ms = 60;
  int spf_ms = 200;
  sim::Time fail_at = sim::millis(380);
  sim::Time horizon = sim::seconds(3);
  /// Detection + fault model. The defaults reproduce the pre-existing
  /// campaign behaviour exactly, and write_json emits these keys only
  /// when they differ from the defaults — a spec that does not use them
  /// produces a byte-identical artifact to older builds.
  std::string detection = "oracle";  ///< "oracle" | "probe"
  int bfd_tx_ms = 20;                ///< probe hello interval
  int bfd_multiplier = 3;            ///< missed hellos before down
  bool dampening = true;             ///< probe-mode flap dampening
  failure::FaultKind fault = failure::FaultKind::kCut;
  double gray_loss = 1.0;    ///< drop probability for "gray"
  int flap_period_ms = 300;  ///< full down/up cycle for "flap"
  int flap_cycles = 5;
  /// Transport fidelity: "packet" (default, byte-identical artifacts) or
  /// "flow" (fluid probe; see core::Fidelity for what it refuses).
  std::string fidelity = "packet";
  /// Observability axes (PR 7). `trace` turns on the journal per shard
  /// and derives recovery-span milestones into the per-run records;
  /// `sample_interval_ms > 0` runs the telemetry sampler per shard and
  /// records its queue-depth rollups. Both default off, and write_json
  /// emits the keys (and the extra per-run fields) only when set — specs
  /// that do not use them produce byte-identical artifacts to older
  /// builds. Note sampling adds tick events to each shard's schedule
  /// (still deterministic for a given spec, but not comparable to an
  /// unsampled artifact's event counts).
  bool trace = false;
  int sample_interval_ms = 0;
  /// Trace-shaped workload axis (transport/workload.hpp): when enabled,
  /// every shard additionally carries a TCP background workload across
  /// all host stacks — Poisson arrivals drawn from an empirical
  /// flow-size CDF, or periodic incast fan-in rounds — and the per-run
  /// records gain the tail-latency SLO rollup (FCT p50/p99/p999,
  /// deadline-miss split by the failure window). Packet fidelity only
  /// (the fluid probe has no host stacks); from_json rejects the
  /// combination. Default disabled: the spec key, the per-run fields and
  /// the aggregate "slo" section are all omitted, keeping older
  /// artifacts byte-identical.
  struct WorkloadAxis {
    bool enabled = false;
    std::string kind = "poisson";         ///< "poisson" | "incast"
    std::string size_dist = "websearch";  ///< "websearch" | "datamining"
    double load = 0.1;  ///< poisson: offered load, fraction of host uplink
    int fanin = 8;      ///< incast: workers per aggregation round
    std::uint64_t flow_bytes = 20'000;  ///< incast: per-worker bytes
    int deadline_ms = 250;  ///< per-flow deadline; 0 = best-effort
  };
  WorkloadAxis workload;
  /// Survivability sweep: per (topology, control), this many additional
  /// shards each fail one *randomly drawn* switch-to-switch link (the
  /// random failure process of the reliability/survivability methodology
  /// — arXiv 1510.02735). The draw is a pure function of (spec, shard
  /// index): enumerate_shards resolves it from the shard's derived seed,
  /// so the shard list stays deterministic and process workers
  /// re-enumerate it identically. Runs are labelled "R<draw>" and feed
  /// the artifact's "survivability" aggregate section (reliability/
  /// availability curves per topology). Default 0 — the key and the
  /// section are omitted, keeping older artifacts byte-identical.
  int random_sites = 0;

  /// Builds a spec from parsed JSON; throws std::invalid_argument on
  /// mistyped fields, on unknown keys (typos must fail loudly, not
  /// silently run a default campaign) and on anything validate() rejects.
  static CampaignSpec from_json(const json::Value& doc);
  static CampaignSpec parse(std::string_view text);
  /// Builds a spec from f2tsim flags: --topo/--ports/--ring-width/
  /// --aspen-f, --control, the condition axis, and one flag per knob row
  /// of run_knobs(). Ends in validate(), like from_json. A bare ad hoc
  /// campaign sweeps the Table IV conditions C1..C7.
  static CampaignSpec from_flags(Cli& cli, FlagSet set = FlagSet::kCampaign);

  /// Throws std::invalid_argument unless every knob is within its row's
  /// bound or choices (workload rows only when the axis is on), every
  /// control names a control plane, horizon > fail_at, a workload runs at
  /// packet fidelity and there is at least one failure site.
  void validate() const;

  /// Canonical JSON echo (stable field order, independent of the input's
  /// textual layout) — part of the deterministic campaign artifact.
  void write_json(std::ostream& os, int indent = 0) const;
};

/// One run knob of a CampaignSpec: its spec key, its f2tsim flag, a typed
/// binding to the member, the member's bound and a help line. The table
/// of them (run_knobs()) alone drives from_json's keys, validate(),
/// write_json's echo, from_flags and the flag help, so a new knob is one
/// row. Defaults are CampaignSpec's member initializers. The axes (name,
/// topologies, controls, conditions) are parsed by hand.
struct RunKnob {
  using Workload = CampaignSpec::WorkloadAxis;
  /// The bound member. sim::Time members are whole milliseconds in specs
  /// and flags. Workload members live in the spec's "workload" object,
  /// which the kind row's flag (--workload KIND) switches on.
  using Field = std::variant<
      int CampaignSpec::*, std::uint64_t CampaignSpec::*,
      double CampaignSpec::*, bool CampaignSpec::*, std::string CampaignSpec::*,
      sim::Time CampaignSpec::*, failure::FaultKind CampaignSpec::*,
      int Workload::*, std::uint64_t Workload::*, double Workload::*,
      std::string Workload::*>;

  std::string_view key{};   ///< spec key
  std::string_view flag{};  ///< f2tsim flag without "--"; empty = spec only
  Field field{};
  /// Numeric bound [lo, hi], or (lo, hi] when lo_open.
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  std::string_view choices{};  ///< "a|b" for string-valued members
  bool all = false;            ///< also takes "all", stored as lo
  bool always_echoed = false;  ///< echoed even at its default
  bool campaign_only = false;  ///< not an `f2tsim recover` flag
  std::string_view help{};

  bool in_workload() const;  ///< a member of the "workload" object
};

std::span<const RunKnob> run_knobs();

/// One help line per knob flag, for f2tsim's usage text.
void write_knob_help(std::ostream& os);

/// One independent simulation of the campaign matrix. Shards are
/// enumerated in a deterministic order, and each carries its own RNG
/// stream split from the campaign's base seed by shard index — results
/// are a pure function of (spec, index), whatever thread runs them.
struct ShardSpec {
  int index = 0;
  CampaignSpec::TopologyAxis topology;
  std::string control;
  bool is_link_site = false;
  failure::Condition condition = failure::Condition::kC1;
  int link_site = -1;
  int replicate = 0;
  /// >= 0 for survivability shards: the random-draw ordinal within this
  /// (topology, control) group. The drawn link itself is stored in
  /// link_site (is_link_site is true), so the runner needs no new path.
  int random_site = -1;
  std::uint64_t seed = 0;  ///< sim::Random::derive_stream_seed(base, index)

  /// Site label: "C1".."C8", "L<index>" or "R<draw>".
  std::string site() const;
};

/// Expands the spec into its shard list. `link_sites == -1` is resolved
/// against each topology (built once, off the simulation clock) so the
/// shard list itself stays deterministic.
std::vector<ShardSpec> enumerate_shards(const CampaignSpec& spec);

/// Outcome of one shard: identity, the paper's recovery metrics, and the
/// deterministic work accounting. `wall_seconds` is the only
/// non-deterministic field and is excluded from the deterministic JSON.
struct ShardResult {
  int index = 0;
  std::string topology;
  std::string control;
  std::string site;
  std::string site_class;
  int replicate = 0;
  std::uint64_t seed = 0;
  bool ok = false;       ///< scenario construction succeeded
  bool on_path = false;  ///< probe flow crossed a failed link
  sim::Time connectivity_loss = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_lost = 0;
  std::size_t events_executed = 0;
  double wall_seconds = 0;
  std::string scenario;
  /// Trace-derived recovery milestones (filled when spec.trace; -1 when
  /// the journal shows the milestone never happened). Relative to the
  /// failure instant, like Table III.
  std::size_t spans = 0;
  sim::Time detect_ns = -1;
  sim::Time converge_ns = -1;
  /// Sampler summary (filled when spec.sample_interval_ms > 0): retained
  /// rows and the network-wide queue-depth rollup. queue_rollup records
  /// whether the rollup actually existed — when the sampler retained no
  /// rows (or the series is absent) the queue_* fields are *omitted*
  /// from the artifact rather than fabricated as 0.
  std::size_t samples = 0;
  bool queue_rollup = false;
  double queue_p99 = 0;
  double queue_max = 0;
  /// Workload SLO rollup (filled when spec.workload.enabled and the
  /// shard completed): flow counts and FCT tail percentiles from
  /// stats::compute_slo over the shard's background flows. The
  /// deadline-miss fractions split deadline-bearing flows by whether
  /// they *started* inside the failure window [fail_at, horizon); the
  /// flow counts make the campaign-level pooled miss fraction
  /// weightable. Like queue_rollup, `slo` records whether the rollup
  /// exists — artifacts omit the fields rather than fabricate zeros.
  bool slo = false;
  std::size_t slo_flows = 0;
  std::size_t slo_completed = 0;
  double fct_p50_ms = 0;
  double fct_p99_ms = 0;
  double fct_p999_ms = 0;
  std::size_t slo_deadline_in = 0;
  std::size_t slo_deadline_out = 0;
  double slo_miss_in = 0;
  double slo_miss_out = 0;
  /// Populated when the shard threw instead of completing: the exception
  /// message, recorded per shard so one poisoned axis value cannot abort
  /// the rest of the campaign. Emitted in the artifact only when
  /// non-empty (deterministic: the message depends on the spec, not on
  /// scheduling), with ok = false.
  std::string error;
};

/// Aggregate recovery statistics over one failure class (one
/// "<topology>/<control>/<site_class>" group, plus the "total" group).
/// Loss statistics are over affected runs (ok && on_path); the gap-loss
/// histogram buckets runs by packets lost: 0, 1-9, 10-99, 100-999, 1000+.
struct ClassAggregate {
  std::string key;
  int runs = 0;
  int affected = 0;  ///< ok && probe on-path
  int failed = 0;    ///< scenario construction failed
  double loss_ms_mean = 0;
  double loss_ms_p50 = 0;
  double loss_ms_p99 = 0;
  double loss_ms_max = 0;
  std::uint64_t packets_lost_total = 0;
  std::uint64_t gap_loss_hist[5] = {0, 0, 0, 0, 0};
};

std::vector<ClassAggregate> aggregate_runs(
    const std::vector<ShardResult>& runs);

/// Campaign-level SLO rollup over the runs that carried the workload
/// (ShardResult::slo): flow totals, the mean and max of the per-run FCT
/// tail percentiles, and the *pooled* deadline-miss fractions, weighted
/// by each run's deadline-bearing flow count (a run with 10x the flows
/// moves the pooled fraction 10x as much).
struct SloAggregate {
  int runs = 0;
  std::size_t flows = 0;
  std::size_t completed = 0;
  double fct_p50_ms_mean = 0;
  double fct_p99_ms_mean = 0;
  double fct_p999_ms_mean = 0;
  double fct_p99_ms_max = 0;
  double fct_p999_ms_max = 0;
  std::size_t deadline_flows_in = 0;
  std::size_t deadline_flows_out = 0;
  double miss_in = 0;
  double miss_out = 0;
};

SloAggregate aggregate_slo(const std::vector<ShardResult>& runs);

/// Survivability aggregate over one "<topology>/<control>" group's
/// random-failure draws ("R*" sites): availability (fraction of the
/// post-failure window the probe flow was connected; off-path draws are
/// fully available by construction) and a reliability curve — the
/// fraction of ok draws whose connectivity gap closed within each
/// threshold of kReliabilityMs. Reproduces the reliability/availability
/// methodology of arXiv 1510.02735 over the engine's probe runs.
struct SurvivabilityAggregate {
  static constexpr int kReliabilityMs[4] = {1, 10, 100, 1000};

  std::string key;   ///< "<topology>/<control>"
  int draws = 0;     ///< random-site runs in the group
  int affected = 0;  ///< ok && probe on-path
  int failed = 0;    ///< scenario construction failed
  double availability_mean = 0;
  double availability_p50 = 0;
  double availability_min = 0;
  double reliability[4] = {0, 0, 0, 0};  ///< per kReliabilityMs threshold
};

/// Aggregates the random-site runs ("R*" labels) per topology/control.
/// `window` is the post-failure measurement window (horizon - fail_at)
/// availability is normalized against. Empty when the spec had no
/// random_sites.
std::vector<SurvivabilityAggregate> aggregate_survivability(
    const std::vector<ShardResult>& runs, sim::Time window);

/// Spec generator for a survivability sweep: `draws` random single-link
/// failure processes per (topology, control) — thousands of seeds over
/// randomly drawn failure sites producing the reliability/availability
/// curves above. The returned spec is a plain CampaignSpec: echo it,
/// shard it, or feed it straight to the campaign engine.
CampaignSpec survivability_spec(
    const std::vector<CampaignSpec::TopologyAxis>& topologies, int draws,
    std::uint64_t base_seed = 1);

// ------------------------------------------------------------------------
// Worker protocol: shard ranges, streamed JSONL shard records and the
// resumable checkpoint manifest (multi-process campaign execution). The
// integer fields of records and manifests are range-checked into their
// target types (json::as_integer), so an out-of-range value is refused
// rather than narrowed into another shard's slot.

/// Compresses a sorted list of shard indices into minimal contiguous
/// half-open ranges (process mode passes the *missing* indices through
/// this).
std::vector<std::pair<int, int>> contiguous_ranges(
    const std::vector<int>& sorted_indices);

/// One shard record as a single JSONL line — the worker streaming
/// format. Round-trips every ShardResult field exactly (doubles at 17
/// significant digits, the 64-bit seed as a string), so a reduced
/// artifact is byte-identical to an in-process one.
void write_shard_record(std::ostream& os, const ShardResult& r);

/// Parses one record line; throws std::invalid_argument on malformed
/// input (a torn line from a killed worker must be detected, not
/// half-applied).
ShardResult parse_shard_record(std::string_view line);

/// Checkpoint manifest for a multi-process campaign: the spec echo plus
/// the shard/worker geometry, written to <state-dir>/manifest.json
/// before any worker starts. On --resume the manifest names the
/// campaign to continue, and the embedded spec must match byte-for-byte.
struct CheckpointManifest {
  static constexpr int kSchemaVersion = 1;

  CampaignSpec spec;
  int shards = 0;   ///< total shard count of the spec
  int workers = 0;  ///< worker count of the (initial) run

  void write_json(std::ostream& os) const;
  static CheckpointManifest parse(std::string_view text);
};

/// Everything one campaign produces. The deterministic portion (spec,
/// per-run records in shard order, aggregates) is byte-identical for a
/// given spec whatever --jobs is; the profile (wall clock, thread counts)
/// is appended only in the full artifact.
struct CampaignResult {
  static constexpr int kSchemaVersion = 1;

  CampaignSpec spec;
  std::vector<ShardResult> runs;  ///< in shard-index order

  int jobs = 1;
  int workers = 0;  ///< process-mode worker count; 0 = in-process threads
  double wall_seconds = 0;
  unsigned hardware_threads = 0;
  std::uint64_t steals = 0;  ///< work-stealing pool diagnostics

  /// Writes the campaign JSON artifact. With `include_profile` false the
  /// output is the deterministic portion only — what the determinism
  /// tests and the --jobs cross-checks compare byte-for-byte.
  void write_json(std::ostream& os, bool include_profile = true) const;
};

}  // namespace f2t::core
