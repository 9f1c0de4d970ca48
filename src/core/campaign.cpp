#include "core/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "core/cli.hpp"
#include "core/runner.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/percentile.hpp"

namespace f2t::core {

namespace {

/// Stream id used to decorrelate a survivability shard's link draw from
/// the simulation stream that runs it (both derive from the shard seed).
constexpr std::uint64_t kRandomSiteDrawStream = 0x5117eed;

/// The paper's Table IV conditions: what "all" means on the condition
/// axis, and what a bare ad hoc campaign sweeps.
std::vector<failure::Condition> all_conditions() {
  using failure::Condition;
  return {Condition::kC1, Condition::kC2, Condition::kC3, Condition::kC4,
          Condition::kC5, Condition::kC6, Condition::kC7};
}

/// The spec key of the workload object; the kind row's flag (--workload
/// KIND) switches the axis on from the command line.
constexpr std::string_view kWorkloadKey = "workload";

using S = CampaignSpec;
using W = CampaignSpec::WorkloadAxis;

/// The knob table, in canonical echo order.
const RunKnob kKnobs[] = {
    {.key = "link_sites", .flag = "link-sites", .field = &S::link_sites,
     .lo = -1, .all = true, .always_echoed = true, .campaign_only = true,
     .help = "first N switch links as failure sites; all = every link"},
    {.key = "seeds", .flag = "seeds", .field = &S::seeds, .lo = 1,
     .always_echoed = true, .campaign_only = true,
     .help = "replicates per topology, control and site"},
    {.key = "base_seed", .flag = "base-seed", .field = &S::base_seed, .lo = 0,
     .always_echoed = true, .campaign_only = true,
     .help = "seed the per-shard streams derive from"},
    {.key = "detection_ms", .flag = "detection-ms", .field = &S::detection_ms,
     .lo = 0, .always_echoed = true, .help = "oracle detection delay, ms"},
    {.key = "spf_ms", .flag = "spf-ms", .field = &S::spf_ms, .lo = 0,
     .always_echoed = true, .help = "SPF throttle initial delay, ms"},
    {.key = "fail_at_ms", .field = &S::fail_at, .lo = 0, .always_echoed = true,
     .help = "failure instant, ms"},
    {.key = "horizon_ms", .field = &S::horizon, .lo = 1, .always_echoed = true,
     .help = "end of each run, ms (> fail_at_ms)"},
    {.key = "detection", .flag = "detection", .field = &S::detection,
     .choices = "oracle|probe", .help = "oracle delay or BFD hello probes"},
    {.key = "bfd_tx_ms", .flag = "bfd-tx-ms", .field = &S::bfd_tx_ms, .lo = 1,
     .help = "probe hello interval, ms"},
    {.key = "bfd_multiplier", .flag = "bfd-multiplier",
     .field = &S::bfd_multiplier, .lo = 1,
     .help = "missed hellos before a session goes down"},
    {.key = "dampening", .flag = "no-dampening", .field = &S::dampening,
     .help = "probe-mode flap dampening (the flag turns it off)"},
    {.key = "fault", .flag = "fault", .field = &S::fault,
     .choices = "cut|unidir|gray|flap", .help = "how the planned links fail"},
    {.key = "gray_loss", .flag = "gray-loss", .field = &S::gray_loss, .lo = 0,
     .hi = 1, .help = "drop probability of a gray fault"},
    {.key = "flap_period_ms", .flag = "flap-period-ms",
     .field = &S::flap_period_ms, .lo = 1,
     .help = "full down/up cycle of a flap fault, ms"},
    {.key = "flap_cycles", .flag = "flap-cycles", .field = &S::flap_cycles,
     .lo = 1, .help = "down/up cycles of a flap fault"},
    {.key = "fidelity", .flag = "fidelity", .field = &S::fidelity,
     .choices = "packet|flow", .help = "per-packet events or the fluid probe"},
    {.key = "trace", .flag = "trace", .field = &S::trace, .campaign_only = true,
     .help = "journal each shard and record its recovery spans"},
    {.key = "sample_interval_ms", .flag = "sample-interval-ms",
     .field = &S::sample_interval_ms, .lo = 0,
     .help = "telemetry sample period, ms; 0 = off (recover: > 0, "
             "default 10, used with --samples-out)"},
    {.key = "random_sites", .flag = "random-sites", .field = &S::random_sites,
     .lo = 0, .campaign_only = true,
     .help = "random single-link failures per topology and control"},
    {.key = "kind", .flag = kWorkloadKey, .field = &W::kind,
     .choices = "poisson|incast",
     .help = "adds a TCP background workload (spec: \"workload\" object)"},
    {.key = "size_dist", .flag = "size-dist", .field = &W::size_dist,
     .choices = "websearch|datamining", .help = "workload flow-size CDF"},
    {.key = "load", .flag = "wl-load", .field = &W::load, .lo = 0, .hi = 1,
     .lo_open = true, .help = "poisson offered load, fraction of uplink"},
    {.key = "fanin", .flag = "wl-fanin", .field = &W::fanin, .lo = 1,
     .help = "incast workers per round"},
    {.key = "flow_bytes", .flag = "wl-flow-bytes", .field = &W::flow_bytes,
     .lo = 1, .help = "incast bytes per worker"},
    {.key = "deadline_ms", .flag = "wl-deadline-ms", .field = &W::deadline_ms,
     .lo = 0, .help = "per-flow deadline, ms; 0 = best effort"},
};

/// The member a row's field points at, in `spec` or its workload axis.
template <class Spec, class M>
auto& member(Spec& spec, M m) {
  if constexpr (std::is_invocable_v<M, Spec&>) {
    return spec.*m;
  } else {
    return spec.workload.*m;
  }
}

const CampaignSpec kDefaults;

/// "campaign: workload.load (--wl-load)": how errors name a knob.
std::string describe(const RunKnob& k) {
  std::string text = "campaign: ";
  if (k.in_workload()) text += std::string(kWorkloadKey) + ".";
  text += k.key;
  if (!k.flag.empty()) text += " (--" + std::string(k.flag) + ")";
  return text;
}

/// Deterministic double rendering: the campaign artifact's shortest form
/// up to 10 significant digits, -0 normalised. The worker-protocol JSONL
/// records use kExact: 17 digits round-trip any finite double
/// bit-for-bit, so a value that crossed a worker stream re-renders
/// identically to one that never left the process.
constexpr int kExact = 17;
std::string fmt(double v, int digits = 10) {
  if (v == 0) return "0";
  std::ostringstream os;
  os << std::setprecision(digits) << v;
  return os.str();
}

/// Stores a spec or flag value into the row's member, checking only its
/// type and representability; bounds are validate()'s.
void set_value(const RunKnob& k, CampaignSpec& spec, const json::Value& v) {
  try {
    std::visit(
        [&](auto m) {
          auto& x = member(spec, m);
          using T = std::decay_t<decltype(x)>;
          if constexpr (std::is_same_v<T, bool>) {
            x = v.as_bool();
          } else if constexpr (std::is_same_v<T, double>) {
            x = v.as_double();
          } else if constexpr (std::is_same_v<T, std::string>) {
            x = v.as_string();
          } else if constexpr (std::is_same_v<T, failure::FaultKind>) {
            const auto kind = failure::parse_fault_kind(v.as_string());
            if (!kind) {
              throw std::invalid_argument("unknown value \"" +
                                          v.as_string() + "\" (" +
                                          std::string(k.choices) + ")");
            }
            x = *kind;
          } else if (k.all && v.is_string() && v.as_string() == "all") {
            x = static_cast<T>(k.lo);
          } else {
            // Millisecond rows take an int, like every other integer knob.
            using Raw =
                std::conditional_t<std::is_same_v<T, sim::Time>, int, T>;
            const Raw i = json::as_integer<Raw>(v, k.key);
            x = std::is_same_v<T, sim::Time> ? sim::millis(i)
                                             : static_cast<T>(i);
          }
        },
        k.field);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(describe(k) + ": " + e.what());
  }
}

void write_value(const RunKnob& k, const CampaignSpec& spec, std::ostream& os) {
  std::visit(
      [&](auto m) {
        const auto& x = member(spec, m);
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, bool>) {
          os << (x ? "true" : "false");
        } else if constexpr (std::is_same_v<T, double>) {
          os << fmt(x);
        } else if constexpr (std::is_same_v<T, std::string>) {
          os << "\"" << json::escape(x) << "\"";
        } else if constexpr (std::is_same_v<T, failure::FaultKind>) {
          os << "\"" << failure::fault_kind_name(x) << "\"";
        } else if constexpr (std::is_same_v<T, sim::Time>) {
          // Whole milliseconds print as integers: the default stream
          // precision would turn 1234567 into 1.23457e+06.
          if (x % sim::millis(1) == 0) {
            os << x / sim::millis(1);
          } else {
            os << sim::to_millis(x);
          }
        } else {
          os << x;
        }
      },
      k.field);
}

bool at_default(const RunKnob& k, const CampaignSpec& spec) {
  return std::visit(
      [&](auto m) { return member(spec, m) == member(kDefaults, m); },
      k.field);
}

/// Throws unless the row's value is within its bound or choices.
void check_value(const RunKnob& k, const CampaignSpec& spec) {
  std::visit(
      [&](auto m) {
        const auto& x = member(spec, m);
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, std::string>) {
          const std::string choices = "|" + std::string(k.choices) + "|";
          if (x.find('|') == std::string::npos &&
              choices.find("|" + x + "|") != std::string::npos) {
            return;
          }
          throw std::invalid_argument(describe(k) + ": unknown value \"" + x +
                                      "\" (" + std::string(k.choices) + ")");
        } else if constexpr (std::is_arithmetic_v<T> &&
                             !std::is_same_v<T, bool>) {
          const double v = std::is_same_v<T, sim::Time>
                               ? sim::to_millis(static_cast<sim::Time>(x))
                               : static_cast<double>(x);
          if (!(k.lo_open ? v > k.lo : v >= k.lo) || !(v <= k.hi)) {
            throw std::invalid_argument(describe(k) + " = " + fmt(v) +
                                        " is outside " +
                                        (k.lo_open ? "(" : "[") + fmt(k.lo) +
                                        ", " + fmt(k.hi) + "]");
          }
        }
      },
      k.field);
}

/// The row of `key` in the top level or the workload object; throws on
/// an unknown key.
const RunKnob& knob_of(std::string_view key, bool in_workload) {
  for (const RunKnob& k : kKnobs) {
    if (k.key == key && k.in_workload() == in_workload) return k;
  }
  throw std::invalid_argument("campaign: unknown key \"" + std::string(key) +
                              "\" in " +
                              std::string(in_workload ? kWorkloadKey : "spec"));
}

/// Reads the row's flag into `spec`; returns whether it was given. A
/// boolean knob's flag flips its default (--no-dampening, --trace).
bool read_flag(const RunKnob& k, Cli& cli, CampaignSpec& spec) {
  const std::string flag(k.flag);
  if (const auto* m = std::get_if<bool CampaignSpec::*>(&k.field)) {
    const bool given = cli.get_flag(flag);
    if (given) spec.*(*m) = !(kDefaults.*(*m));
    return given;
  }
  const std::string text = cli.get(flag, "");
  if (text.empty()) return false;
  const bool word = !k.choices.empty() || (k.all && text == "all");
  set_value(k, spec,
            word ? json::Value::make_string(text)
                 : json::Value::make_number(cli.get_double(flag, 0)));
  return true;
}

failure::Condition condition_of(std::string_view name) {
  const auto c = failure::parse_condition(name);
  if (!c) {
    throw std::invalid_argument("campaign: unknown condition \"" +
                                std::string(name) + "\"");
  }
  return *c;
}

}  // namespace

bool RunKnob::in_workload() const {
  return std::visit(
      [](auto m) { return !std::is_invocable_v<decltype(m), const S&>; },
      field);
}

std::span<const RunKnob> run_knobs() { return kKnobs; }

void write_knob_help(std::ostream& os) {
  for (const RunKnob& k : kKnobs) {
    if (k.flag.empty()) continue;
    std::string usage = "--" + std::string(k.flag);
    if (!k.choices.empty()) {
      usage += " " + std::string(k.choices);
    } else if (!std::holds_alternative<bool CampaignSpec::*>(k.field)) {
      usage += k.all ? " N|all" : " N";
    }
    std::ostringstream value;
    write_value(k, kDefaults, value);
    os << "  " << std::left << std::setw(34) << usage << k.help << " ["
       << (k.in_workload() ? std::string(kWorkloadKey) + "." : "") << k.key
       << " = " << value.str() << "]" << (k.campaign_only ? " (campaign)" : "")
       << "\n";
  }
}

std::string CampaignSpec::TopologyAxis::label() const {
  return name + "-" + std::to_string(ports);
}

CampaignSpec CampaignSpec::parse(std::string_view text) {
  return from_json(json::parse(text));
}

CampaignSpec CampaignSpec::from_json(const json::Value& doc) {
  CampaignSpec spec;
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "name") {
      spec.name = value.as_string();
    } else if (key == "topologies") {
      for (const json::Value& t : value.as_array()) {
        for (const auto& [tkey, tvalue] : t.as_object()) {
          if (tkey != "name" && tkey != "ports" && tkey != "ring_width" &&
              tkey != "aspen_f") {
            throw std::invalid_argument("campaign: unknown key \"" + tkey +
                                        "\" in topologies[]");
          }
        }
        TopologyAxis axis;
        axis.name = t.at("name").as_string();
        axis.ports = t.int_at<int>("ports");
        axis.ring_width = t.int_or("ring_width", 2);
        axis.aspen_f = t.int_or("aspen_f", 1);
        spec.topologies.push_back(std::move(axis));
      }
    } else if (key == "controls") {
      for (const json::Value& c : value.as_array()) {
        spec.controls.push_back(c.as_string());
      }
    } else if (key == "conditions") {
      if (value.is_string() && value.as_string() == "all") {
        spec.conditions = all_conditions();
      } else {
        for (const json::Value& c : value.as_array()) {
          spec.conditions.push_back(condition_of(c.as_string()));
        }
      }
    } else if (key == kWorkloadKey) {
      spec.workload.enabled = true;
      for (const auto& [wkey, wvalue] : value.as_object()) {
        set_value(knob_of(wkey, true), spec, wvalue);
      }
    } else {
      set_value(knob_of(key, false), spec, value);
    }
  }
  if (spec.controls.empty()) spec.controls = {"ospf"};
  spec.validate();
  return spec;
}

CampaignSpec CampaignSpec::from_flags(Cli& cli, FlagSet set) {
  const bool recover = set == FlagSet::kRecover;
  CampaignSpec spec;
  if (!recover) spec.name = cli.get("name", "cli");
  TopologyAxis axis;
  axis.name = cli.get("topo", "f2");
  axis.ports = cli.get_int("ports", 8);
  axis.ring_width = cli.get_int("ring-width", 2);
  axis.aspen_f = cli.get_int("aspen-f", 1);
  spec.topologies = {axis};
  spec.controls = {cli.get("control", "ospf")};
  if (recover) {
    spec.conditions = {condition_of(cli.get("condition", "C1"))};
    spec.sample_interval_ms = 10;  // used only with --samples-out
  } else if (const std::string list = cli.get("conditions", "");
             list == "all") {
    spec.conditions = all_conditions();
  } else {
    std::istringstream in(list);
    for (std::string token; std::getline(in, token, ',');) {
      spec.conditions.push_back(condition_of(token));
    }
  }
  for (const RunKnob& k : kKnobs) {
    if (k.flag.empty() || (recover && k.campaign_only)) continue;
    if (read_flag(k, cli, spec) && k.flag == kWorkloadKey) {
      spec.workload.enabled = true;
    }
  }
  // Workload flags without --workload are inert.
  if (!spec.workload.enabled) spec.workload = WorkloadAxis{};
  if (recover && spec.sample_interval_ms <= 0) {
    throw std::invalid_argument("recover: the sample interval must be > 0 ms");
  }
  if (spec.conditions.empty() && spec.link_sites == 0 &&
      spec.random_sites == 0) {
    spec.conditions = all_conditions();
  }
  spec.validate();
  return spec;
}

void CampaignSpec::validate() const {
  if (topologies.empty()) {
    throw std::invalid_argument("campaign: empty \"topologies\"");
  }
  if (controls.empty()) {
    throw std::invalid_argument("campaign: empty \"controls\"");
  }
  for (const std::string& control : controls) {
    if (!parse_control_plane(control)) {
      throw std::invalid_argument("campaign: unknown control \"" + control +
                                  "\" (ospf|central|bgp)");
    }
  }
  for (const RunKnob& k : kKnobs) {
    if (workload.enabled || !k.in_workload()) check_value(k, *this);
  }
  if (horizon <= fail_at) {
    throw std::invalid_argument("campaign: horizon_ms <= fail_at_ms");
  }
  if (workload.enabled && fidelity == "flow") {
    throw std::invalid_argument(
        "campaign: workload requires packet fidelity (the fluid probe "
        "has no host stacks to carry TCP flows)");
  }
  if (fault == failure::FaultKind::kGray && fidelity == "flow") {
    throw std::invalid_argument(
        "campaign: fault gray requires packet fidelity (per-packet loss "
        "draws need packets)");
  }
  if (detection == "probe" && fidelity == "flow") {
    throw std::invalid_argument(
        "campaign: detection probe requires packet fidelity (BFD hello "
        "timing interleaves with probe serialization)");
  }
  if (conditions.empty() && link_sites == 0 && random_sites == 0) {
    throw std::invalid_argument(
        "campaign: no failure sites (need conditions, link_sites and/or "
        "random_sites)");
  }
}

void CampaignSpec::write_json(std::ostream& os, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  os << "{\n" << pad << "  \"name\": \"" << json::escape(name) << "\",\n";
  os << pad << "  \"topologies\": [";
  for (std::size_t i = 0; i < topologies.size(); ++i) {
    const TopologyAxis& t = topologies[i];
    os << (i ? ", " : "") << "{\"name\": \"" << json::escape(t.name)
       << "\", \"ports\": " << t.ports << ", \"ring_width\": " << t.ring_width
       << ", \"aspen_f\": " << t.aspen_f << "}";
  }
  os << "],\n" << pad << "  \"controls\": [";
  for (std::size_t i = 0; i < controls.size(); ++i) {
    os << (i ? ", " : "") << "\"" << controls[i] << "\"";
  }
  os << "],\n" << pad << "  \"conditions\": [";
  for (std::size_t i = 0; i < conditions.size(); ++i) {
    os << (i ? ", " : "") << "\"" << failure::condition_name(conditions[i])
       << "\"";
  }
  os << "]";
  // Rows not always echoed appear only when they differ from the
  // defaults, so a spec that predates them echoes byte-identically.
  for (const RunKnob& k : kKnobs) {
    if (k.in_workload() || (!k.always_echoed && at_default(k, *this))) {
      continue;
    }
    os << ",\n" << pad << "  \"" << k.key << "\": ";
    write_value(k, *this, os);
  }
  if (workload.enabled) {
    os << ",\n" << pad << "  \"" << kWorkloadKey << "\": {";
    const char* sep = "";
    for (const RunKnob& k : kKnobs) {
      if (!k.in_workload()) continue;
      os << sep << "\"" << k.key << "\": ";
      write_value(k, *this, os);
      sep = ", ";
    }
    os << "}";
  }
  os << "\n" << pad << "}";
}

std::string ShardSpec::site() const {
  if (random_site >= 0) return "R" + std::to_string(random_site);
  return is_link_site ? "L" + std::to_string(link_site)
                      : failure::condition_name(condition);
}

std::vector<ShardSpec> enumerate_shards(const CampaignSpec& spec) {
  std::vector<ShardSpec> shards;
  for (const auto& topology : spec.topologies) {
    // Resolve the topology's failure-site universe off the simulation
    // clock; construction order is deterministic for a given axis.
    int sites = spec.link_sites;
    int all_links = 0;
    if (sites != 0 || spec.random_sites > 0) {
      sim::Simulator sim(1);
      net::Network net(sim);
      const auto built = topology_builder(topology.name, topology.ports,
                                          topology.ring_width,
                                          topology.aspen_f)(net);
      all_links = static_cast<int>(failure::switch_links(built).size());
      sites = sites < 0 ? all_links : std::min(sites, all_links);
    }
    for (const auto& control : spec.controls) {
      const auto add = [&](bool is_link, failure::Condition condition,
                           int link_site, int random_site) {
        for (int replicate = 0; replicate < spec.seeds; ++replicate) {
          ShardSpec shard;
          shard.index = static_cast<int>(shards.size());
          shard.topology = topology;
          shard.control = control;
          shard.is_link_site = is_link;
          shard.condition = condition;
          shard.link_site = link_site;
          shard.replicate = replicate;
          shard.random_site = random_site;
          shard.seed = sim::Random::derive_stream_seed(
              spec.base_seed, static_cast<std::uint64_t>(shard.index));
          if (random_site >= 0 && all_links > 0) {
            // Survivability draw: the failed link is a pure function of
            // the shard's derived seed (decorrelated from the run
            // stream), so workers re-enumerating the spec see the same
            // failure process whatever process runs the shard.
            sim::Random draw(sim::Random::derive_stream_seed(
                shard.seed, kRandomSiteDrawStream));
            shard.link_site = static_cast<int>(
                draw.index(static_cast<std::size_t>(all_links)));
          }
          shards.push_back(std::move(shard));
        }
      };
      for (const failure::Condition condition : spec.conditions) {
        add(false, condition, -1, -1);
      }
      for (int site = 0; site < sites; ++site) {
        add(true, failure::Condition::kC1, site, -1);
      }
      for (int draw = 0; draw < spec.random_sites; ++draw) {
        add(true, failure::Condition::kC1, -1, draw);
      }
    }
  }
  return shards;
}

std::vector<ClassAggregate> aggregate_runs(
    const std::vector<ShardResult>& runs) {
  // Group deterministically by key; "total" spans every run.
  std::vector<std::string> keys{"total"};
  for (const ShardResult& r : runs) {
    const std::string key = r.topology + "/" + r.control + "/" +
                            (r.site_class.empty() ? r.site : r.site_class);
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      keys.push_back(key);
    }
  }
  std::sort(keys.begin() + 1, keys.end());

  std::vector<ClassAggregate> out;
  out.reserve(keys.size());
  for (const std::string& key : keys) {
    ClassAggregate agg;
    agg.key = key;
    std::vector<double> losses_ms;
    for (const ShardResult& r : runs) {
      const std::string rkey = r.topology + "/" + r.control + "/" +
                               (r.site_class.empty() ? r.site : r.site_class);
      if (key != "total" && rkey != key) continue;
      ++agg.runs;
      if (!r.ok) {
        ++agg.failed;
        continue;
      }
      if (!r.on_path) continue;
      ++agg.affected;
      losses_ms.push_back(sim::to_millis(r.connectivity_loss));
      agg.packets_lost_total += r.packets_lost;
      const std::uint64_t lost = r.packets_lost;
      const int bucket = lost == 0 ? 0
                         : lost < 10 ? 1
                         : lost < 100 ? 2
                         : lost < 1000 ? 3
                                       : 4;
      ++agg.gap_loss_hist[bucket];
    }
    if (!losses_ms.empty()) {
      std::sort(losses_ms.begin(), losses_ms.end());
      double sum = 0;
      for (const double v : losses_ms) sum += v;
      agg.loss_ms_mean = sum / static_cast<double>(losses_ms.size());
      agg.loss_ms_p50 = stats::nearest_rank_sorted(losses_ms, 0.50);
      agg.loss_ms_p99 = stats::nearest_rank_sorted(losses_ms, 0.99);
      agg.loss_ms_max = losses_ms.back();
    }
    out.push_back(std::move(agg));
  }
  return out;
}

SloAggregate aggregate_slo(const std::vector<ShardResult>& runs) {
  SloAggregate agg;
  double missed_in = 0;
  double missed_out = 0;
  for (const ShardResult& r : runs) {
    if (!r.slo) continue;
    ++agg.runs;
    agg.flows += r.slo_flows;
    agg.completed += r.slo_completed;
    agg.deadline_flows_in += r.slo_deadline_in;
    agg.deadline_flows_out += r.slo_deadline_out;
    missed_in += r.slo_miss_in * static_cast<double>(r.slo_deadline_in);
    missed_out += r.slo_miss_out * static_cast<double>(r.slo_deadline_out);
    agg.fct_p50_ms_mean += r.fct_p50_ms;
    agg.fct_p99_ms_mean += r.fct_p99_ms;
    agg.fct_p999_ms_mean += r.fct_p999_ms;
    agg.fct_p99_ms_max = std::max(agg.fct_p99_ms_max, r.fct_p99_ms);
    agg.fct_p999_ms_max = std::max(agg.fct_p999_ms_max, r.fct_p999_ms);
  }
  const double n = agg.runs > 0 ? static_cast<double>(agg.runs) : 1;
  agg.fct_p50_ms_mean /= n;
  agg.fct_p99_ms_mean /= n;
  agg.fct_p999_ms_mean /= n;
  if (agg.deadline_flows_in > 0) {
    agg.miss_in = missed_in / static_cast<double>(agg.deadline_flows_in);
  }
  if (agg.deadline_flows_out > 0) {
    agg.miss_out = missed_out / static_cast<double>(agg.deadline_flows_out);
  }
  return agg;
}

std::vector<SurvivabilityAggregate> aggregate_survivability(
    const std::vector<ShardResult>& runs, sim::Time window) {
  std::vector<std::string> keys;
  for (const ShardResult& r : runs) {
    if (r.site.empty() || r.site[0] != 'R') continue;
    const std::string key = r.topology + "/" + r.control;
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      keys.push_back(key);
    }
  }
  std::sort(keys.begin(), keys.end());

  std::vector<SurvivabilityAggregate> out;
  out.reserve(keys.size());
  for (const std::string& key : keys) {
    SurvivabilityAggregate agg;
    agg.key = key;
    std::vector<double> availability;
    int recovered[4] = {0, 0, 0, 0};
    int measured = 0;
    for (const ShardResult& r : runs) {
      if (r.site.empty() || r.site[0] != 'R') continue;
      if (r.topology + "/" + r.control != key) continue;
      ++agg.draws;
      if (!r.ok) {
        ++agg.failed;
        continue;
      }
      // A draw the probe flow never crossed is fully available: a random
      // failure that misses your path costs nothing, and that is part of
      // the survivability distribution, not noise to exclude.
      if (r.on_path) ++agg.affected;
      const double loss_ms = sim::to_millis(r.connectivity_loss);
      const double window_ms = sim::to_millis(window);
      availability.push_back(
          window_ms > 0
              ? std::max(0.0, 1.0 - loss_ms / window_ms)
              : 1.0);
      ++measured;
      for (int t = 0; t < 4; ++t) {
        if (loss_ms <= SurvivabilityAggregate::kReliabilityMs[t]) {
          ++recovered[t];
        }
      }
    }
    if (!availability.empty()) {
      std::sort(availability.begin(), availability.end());
      double sum = 0;
      for (const double v : availability) sum += v;
      agg.availability_mean = sum / static_cast<double>(availability.size());
      agg.availability_p50 = stats::nearest_rank_sorted(availability, 0.50);
      agg.availability_min = availability.front();
    }
    for (int t = 0; t < 4; ++t) {
      agg.reliability[t] =
          measured > 0
              ? static_cast<double>(recovered[t]) / measured
              : 0;
    }
    out.push_back(std::move(agg));
  }
  return out;
}

CampaignSpec survivability_spec(
    const std::vector<CampaignSpec::TopologyAxis>& topologies, int draws,
    std::uint64_t base_seed) {
  if (topologies.empty()) {
    throw std::invalid_argument("survivability_spec: no topologies");
  }
  if (draws < 1) {
    throw std::invalid_argument("survivability_spec: draws < 1");
  }
  CampaignSpec spec;
  spec.name = "survivability";
  spec.topologies = topologies;
  spec.controls = {"ospf"};
  spec.random_sites = draws;
  spec.base_seed = base_seed;
  return spec;
}

// ---------------------------------------------------------------------
// Worker protocol: shard ranges, JSONL shard records, checkpoint
// manifest.

std::vector<std::pair<int, int>> contiguous_ranges(
    const std::vector<int>& sorted_indices) {
  std::vector<std::pair<int, int>> ranges;
  for (const int i : sorted_indices) {
    if (!ranges.empty() && ranges.back().second == i) {
      ++ranges.back().second;
    } else {
      ranges.emplace_back(i, i + 1);
    }
  }
  return ranges;
}

namespace {

/// One run's fields, shared by the artifact's "runs" rows and the worker
/// JSONL records. A record (no spec) carries every field at exact
/// precision; an artifact row carries the observability and SLO fields
/// only when its spec asked for them, so the row shape is uniform.
void write_run_fields(std::ostream& os, const ShardResult& r,
                      const CampaignSpec* spec) {
  const bool record = spec == nullptr;
  const int digits = record ? kExact : 10;
  os << "\"i\": " << r.index << ", \"topo\": \"" << json::escape(r.topology)
     << "\", \"control\": \"" << json::escape(r.control) << "\", \"site\": \""
     << json::escape(r.site) << "\", \"class\": \""
     << json::escape(r.site_class) << "\", \"rep\": " << r.replicate
     << ", \"seed\": \"" << r.seed
     << "\", \"ok\": " << (r.ok ? "true" : "false")
     << ", \"on_path\": " << (r.on_path ? "true" : "false")
     << ", \"loss_ns\": " << r.connectivity_loss
     << ", \"sent\": " << r.packets_sent << ", \"lost\": " << r.packets_lost
     << ", \"events\": " << r.events_executed;
  if (record) {
    os << ", \"wall\": " << fmt(r.wall_seconds, kExact) << ", \"scenario\": \""
       << json::escape(r.scenario) << "\"";
  }
  if (record || spec->trace) {
    os << ", \"spans\": " << r.spans << ", \"detect_ns\": " << r.detect_ns
       << ", \"converge_ns\": " << r.converge_ns;
  }
  if (record || spec->sample_interval_ms > 0) {
    os << ", \"samples\": " << r.samples;
    // A missing queue rollup is an omitted key, not a fabricated 0.
    if (r.queue_rollup) {
      os << ", \"queue_p99\": " << fmt(r.queue_p99, digits)
         << ", \"queue_max\": " << fmt(r.queue_max, digits);
    }
  }
  if (r.slo && (record || spec->workload.enabled)) {
    os << ", \"slo_flows\": " << r.slo_flows
       << ", \"slo_completed\": " << r.slo_completed
       << ", \"fct_p50_ms\": " << fmt(r.fct_p50_ms, digits)
       << ", \"fct_p99_ms\": " << fmt(r.fct_p99_ms, digits)
       << ", \"fct_p999_ms\": " << fmt(r.fct_p999_ms, digits)
       << ", \"dl_in\": " << r.slo_deadline_in
       << ", \"dl_out\": " << r.slo_deadline_out
       << ", \"miss_in\": " << fmt(r.slo_miss_in, digits)
       << ", \"miss_out\": " << fmt(r.slo_miss_out, digits);
  }
  if (!r.error.empty()) {
    os << ", \"error\": \"" << json::escape(r.error) << "\"";
  }
}

}  // namespace

void write_shard_record(std::ostream& os, const ShardResult& r) {
  os << "{\"v\": 1, ";
  write_run_fields(os, r, nullptr);
  os << "}\n";
}

ShardResult parse_shard_record(std::string_view line) {
  const json::Value doc = json::parse(line);
  if (doc.int_or("v", 0) != 1) {
    throw std::invalid_argument("shard record: unknown protocol version");
  }
  ShardResult r;
  r.index = doc.int_at<int>("i");
  r.topology = doc.at("topo").as_string();
  r.control = doc.at("control").as_string();
  r.site = doc.at("site").as_string();
  r.site_class = doc.at("class").as_string();
  r.replicate = doc.int_at<int>("rep");
  const std::string& seed_text = doc.at("seed").as_string();
  std::size_t used = 0;
  r.seed = std::stoull(seed_text, &used);
  if (used != seed_text.size()) {
    throw std::invalid_argument("shard record: malformed seed");
  }
  r.ok = doc.at("ok").as_bool();
  r.on_path = doc.at("on_path").as_bool();
  r.connectivity_loss = doc.int_at<sim::Time>("loss_ns");
  r.packets_sent = doc.int_at<std::uint64_t>("sent");
  r.packets_lost = doc.int_at<std::uint64_t>("lost");
  r.events_executed = doc.int_at<std::size_t>("events");
  r.wall_seconds = doc.at("wall").as_double();
  r.scenario = doc.at("scenario").as_string();
  r.spans = doc.int_at<std::size_t>("spans");
  r.detect_ns = doc.int_at<sim::Time>("detect_ns");
  r.converge_ns = doc.int_at<sim::Time>("converge_ns");
  r.samples = doc.int_at<std::size_t>("samples");
  if (const json::Value* p99 = doc.find("queue_p99")) {
    r.queue_rollup = true;
    r.queue_p99 = p99->as_double();
    r.queue_max = doc.at("queue_max").as_double();
  }
  if (doc.find("slo_flows") != nullptr) {
    r.slo = true;
    r.slo_flows = doc.int_at<std::size_t>("slo_flows");
    r.slo_completed = doc.int_at<std::size_t>("slo_completed");
    r.fct_p50_ms = doc.at("fct_p50_ms").as_double();
    r.fct_p99_ms = doc.at("fct_p99_ms").as_double();
    r.fct_p999_ms = doc.at("fct_p999_ms").as_double();
    r.slo_deadline_in = doc.int_at<std::size_t>("dl_in");
    r.slo_deadline_out = doc.int_at<std::size_t>("dl_out");
    r.slo_miss_in = doc.at("miss_in").as_double();
    r.slo_miss_out = doc.at("miss_out").as_double();
  }
  if (const json::Value* error = doc.find("error")) {
    r.error = error->as_string();
  }
  return r;
}

void CheckpointManifest::write_json(std::ostream& os) const {
  os << "{\n  \"schema_version\": " << kSchemaVersion
     << ",\n  \"kind\": \"f2t-campaign-checkpoint\",\n  \"shards\": "
     << shards << ",\n  \"workers\": " << workers << ",\n  \"spec\": ";
  spec.write_json(os, 2);
  os << "\n}\n";
}

CheckpointManifest CheckpointManifest::parse(std::string_view text) {
  const json::Value doc = json::parse(text);
  if (doc.int_or("schema_version", 0) != kSchemaVersion ||
      doc.string_or("kind", "") != "f2t-campaign-checkpoint") {
    throw std::invalid_argument(
        "checkpoint manifest: bad schema_version/kind");
  }
  CheckpointManifest m;
  m.shards = doc.int_at<int>("shards");
  m.workers = doc.int_at<int>("workers");
  m.spec = CampaignSpec::from_json(doc.at("spec"));
  if (m.shards < 1 || m.workers < 1) {
    throw std::invalid_argument("checkpoint manifest: shards/workers < 1");
  }
  return m;
}

void CampaignResult::write_json(std::ostream& os,
                                bool include_profile) const {
  os << "{\n  \"schema_version\": " << kSchemaVersion
     << ",\n  \"kind\": \"f2t-campaign\",\n  \"spec\": ";
  spec.write_json(os, 2);
  os << ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    os << "    {";
    write_run_fields(os, runs[i], &spec);
    os << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"aggregates\": [\n";
  const auto aggregates = aggregate_runs(runs);
  for (std::size_t i = 0; i < aggregates.size(); ++i) {
    const ClassAggregate& a = aggregates[i];
    os << "    {\"class\": \"" << json::escape(a.key)
       << "\", \"runs\": " << a.runs << ", \"affected\": " << a.affected
       << ", \"failed\": " << a.failed << ", \"loss_ms_mean\": "
       << fmt(a.loss_ms_mean) << ", \"loss_ms_p50\": " << fmt(a.loss_ms_p50)
       << ", \"loss_ms_p99\": " << fmt(a.loss_ms_p99)
       << ", \"loss_ms_max\": " << fmt(a.loss_ms_max)
       << ", \"packets_lost\": " << a.packets_lost_total
       << ", \"gap_loss_hist\": [";
    for (int b = 0; b < 5; ++b) {
      os << (b ? ", " : "") << a.gap_loss_hist[b];
    }
    os << "]}" << (i + 1 < aggregates.size() ? "," : "") << "\n";
  }
  os << "  ]";
  if (spec.random_sites > 0) {
    const auto surv =
        aggregate_survivability(runs, spec.horizon - spec.fail_at);
    os << ",\n  \"survivability\": {\"reliability_ms\": [";
    for (int t = 0; t < 4; ++t) {
      os << (t ? ", " : "") << SurvivabilityAggregate::kReliabilityMs[t];
    }
    os << "], \"groups\": [\n";
    for (std::size_t i = 0; i < surv.size(); ++i) {
      const SurvivabilityAggregate& a = surv[i];
      os << "    {\"class\": \"" << json::escape(a.key)
         << "\", \"draws\": " << a.draws << ", \"affected\": " << a.affected
         << ", \"failed\": " << a.failed << ", \"availability_mean\": "
         << fmt(a.availability_mean) << ", \"availability_p50\": "
         << fmt(a.availability_p50) << ", \"availability_min\": "
         << fmt(a.availability_min) << ", \"reliability\": [";
      for (int t = 0; t < 4; ++t) {
        os << (t ? ", " : "") << fmt(a.reliability[t]);
      }
      os << "]}" << (i + 1 < surv.size() ? "," : "") << "\n";
    }
    os << "  ]}";
  }
  if (spec.workload.enabled) {
    const SloAggregate slo = aggregate_slo(runs);
    os << ",\n  \"slo\": {\"runs\": " << slo.runs
       << ", \"flows\": " << slo.flows << ", \"completed\": " << slo.completed
       << ", \"fct_p50_ms_mean\": " << fmt(slo.fct_p50_ms_mean)
       << ", \"fct_p99_ms_mean\": " << fmt(slo.fct_p99_ms_mean)
       << ", \"fct_p999_ms_mean\": " << fmt(slo.fct_p999_ms_mean)
       << ", \"fct_p99_ms_max\": " << fmt(slo.fct_p99_ms_max)
       << ", \"fct_p999_ms_max\": " << fmt(slo.fct_p999_ms_max)
       << ", \"deadline_flows_in\": " << slo.deadline_flows_in
       << ", \"deadline_flows_out\": " << slo.deadline_flows_out
       << ", \"miss_in\": " << fmt(slo.miss_in)
       << ", \"miss_out\": " << fmt(slo.miss_out) << "}";
  }
  if (include_profile) {
    double shard_wall = 0;
    std::size_t events = 0;
    for (const ShardResult& r : runs) {
      shard_wall += r.wall_seconds;
      events += r.events_executed;
    }
    os << ",\n  \"profile\": {\"jobs\": " << jobs;
    if (workers > 0) os << ", \"workers\": " << workers;
    os << ", \"wall_seconds\": "
       << fmt(wall_seconds) << ", \"shard_wall_seconds\": " << fmt(shard_wall)
       << ", \"events_executed\": " << events
       << ", \"runs_per_second\": "
       << fmt(wall_seconds > 0 ? static_cast<double>(runs.size()) /
                                     wall_seconds
                               : 0)
       << ", \"hardware_threads\": " << hardware_threads
       << ", \"steals\": " << steals << "}";
  }
  os << "\n}\n";
}

}  // namespace f2t::core
