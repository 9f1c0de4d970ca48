// Parity of the run-knob table's two front doors: every row parsed from a
// spec key and from its f2tsim flag must give the same spec, echo the
// same bytes, survive parse -> echo -> parse, stay out of the echo at its
// default, and be rejected out of range by both paths alike.

#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/cli.hpp"
#include "exec/campaign.hpp"

namespace f2t {
namespace {

using core::CampaignSpec;
using core::FlagSet;
using core::RunKnob;

std::vector<std::string> base_flags(FlagSet set) {
  std::vector<std::string> args{"--topo", "f2", "--ports", "4"};
  if (set == FlagSet::kCampaign) {
    args.insert(args.end(), {"--name", "campaign", "--conditions", "C1"});
  }
  return args;
}

/// Runs from_flags over `f2tsim <command> args...`; `unknown` receives the
/// flags the command did not read.
CampaignSpec from_flags(const std::vector<std::string>& args,
                        FlagSet set = FlagSet::kCampaign,
                        std::vector<std::string>* unknown = nullptr) {
  std::vector<const char*> argv{
      "f2tsim", set == FlagSet::kRecover ? "recover" : "campaign"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  core::Cli cli(static_cast<int>(argv.size()), argv.data());
  CampaignSpec spec = CampaignSpec::from_flags(cli, set);
  if (unknown != nullptr) *unknown = cli.unknown_keys();
  return spec;
}

std::string echo(const CampaignSpec& spec) {
  std::ostringstream os;
  spec.write_json(os);
  return os.str();
}

/// The spec a flag set's base flags describe, as JSON, plus one entry.
/// Recover samples every 10 ms by default, which its spec states.
std::string spec_text(const RunKnob& k, const std::string& value,
                      FlagSet set = FlagSet::kCampaign) {
  std::string text =
      R"({"topologies": [{"name": "f2", "ports": 4}], "conditions": ["C1"])";
  if (set == FlagSet::kRecover && k.key != "sample_interval_ms") {
    text += R"(, "sample_interval_ms": 10)";
  }
  if (value.empty()) return text + "}";
  const std::string entry = "\"" + std::string(k.key) + "\": " + value;
  return text + ", " +
         (k.in_workload() ? "\"workload\": {" + entry + "}" : entry) + "}";
}

/// Base flags plus the row's flag; workload rows other than the kind row
/// need the axis switched on (`--workload poisson`, the default kind).
std::vector<std::string> flag_args(const RunKnob& k, const std::string& text,
                                   FlagSet set = FlagSet::kCampaign) {
  std::vector<std::string> args = base_flags(set);
  if (k.in_workload() && k.key != "kind") {
    args.insert(args.end(), {"--workload", "poisson"});
  }
  args.push_back("--" + std::string(k.flag));
  if (!text.empty()) args.push_back(text);
  return args;
}

template <class M>
auto default_of(M m) {
  static const CampaignSpec defaults;
  if constexpr (std::is_invocable_v<M, const CampaignSpec&>) {
    return defaults.*m;
  } else {
    return defaults.workload.*m;
  }
}

std::vector<std::string> choices_of(const RunKnob& k) {
  std::vector<std::string> out;
  std::istringstream in{std::string(k.choices)};
  for (std::string c; std::getline(in, c, '|');) out.push_back(c);
  return out;
}

std::string number_text(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

/// One value of a row as spec JSON and as flag text ("" for a boolean
/// row's bare flag, which flips the default).
struct Sample {
  std::string json;
  std::string flag;
};

/// The row's default value, written as a spec states it.
Sample default_sample(const RunKnob& k) {
  return std::visit(
      [&](auto m) -> Sample {
        const auto d = default_of(m);
        using T = std::remove_const_t<decltype(d)>;
        if constexpr (std::is_same_v<T, bool>) {
          return {d ? "true" : "false", ""};
        } else if constexpr (std::is_same_v<T, std::string>) {
          return {"\"" + d + "\"", d};
        } else if constexpr (std::is_same_v<T, failure::FaultKind>) {
          const std::string name = failure::fault_kind_name(d);
          return {"\"" + name + "\"", name};
        } else if constexpr (std::is_same_v<T, sim::Time>) {
          const std::string ms = std::to_string(d / sim::millis(1));
          return {ms, ms};
        } else {
          return {number_text(static_cast<double>(d)),
                  number_text(static_cast<double>(d))};
        }
      },
      k.field);
}

/// A non-default value inside the row's bound.
Sample in_range_sample(const RunKnob& k) {
  return std::visit(
      [&](auto m) -> Sample {
        const auto d = default_of(m);
        using T = std::remove_const_t<decltype(d)>;
        if constexpr (std::is_same_v<T, bool>) {
          return {d ? "false" : "true", ""};
        } else if constexpr (std::is_same_v<T, std::string> ||
                             std::is_same_v<T, failure::FaultKind>) {
          std::string current;
          if constexpr (std::is_same_v<T, std::string>) {
            current = d;
          } else {
            current = failure::fault_kind_name(d);
          }
          for (const std::string& c : choices_of(k)) {
            if (c != current) return {"\"" + c + "\"", c};
          }
          ADD_FAILURE() << k.key << " has a single choice";
          return {};
        } else {
          const double v = std::is_same_v<T, sim::Time>
                               ? sim::to_millis(static_cast<sim::Time>(d))
                               : static_cast<double>(d);
          const double pick = v + 1 <= k.hi ? v + 1 : (k.lo + v) / 2;
          return {number_text(pick), number_text(pick)};
        }
      },
      k.field);
}

/// A value outside the row's bound or choices; json is empty for a
/// boolean row (a flag cannot be out of range).
Sample out_of_range_sample(const RunKnob& k) {
  if (!k.choices.empty()) return {"\"bogus\"", "bogus"};
  return std::visit(
      [&](auto m) -> Sample {
        using T = decltype(default_of(m));
        if constexpr (std::is_same_v<T, bool>) {
          return {"\"yes\"", ""};
        } else {
          const double bad = k.lo_open ? k.lo : k.lo - 1;
          return {number_text(bad), number_text(bad)};
        }
      },
      k.field);
}

TEST(KnobTable, EveryRowIsBoundAndNamedOnce) {
  std::vector<std::string> keys;
  std::vector<std::string> flags;
  for (const RunKnob& k : core::run_knobs()) {
    keys.push_back((k.in_workload() ? "workload." : "") + std::string(k.key));
    if (!k.flag.empty()) flags.emplace_back(k.flag);
    EXPECT_FALSE(k.help.empty()) << k.key;
    const bool numeric = k.choices.empty() &&
                         !std::holds_alternative<bool CampaignSpec::*>(k.field);
    EXPECT_EQ(numeric, k.lo > -std::numeric_limits<double>::infinity())
        << k.key << ": numeric rows carry a lower bound";
  }
  for (auto* names : {&keys, &flags}) {
    std::sort(names->begin(), names->end());
    EXPECT_EQ(std::adjacent_find(names->begin(), names->end()), names->end());
  }
}

TEST(KnobTable, SpecAndFlagsGiveTheSameEcho) {
  for (const RunKnob& k : core::run_knobs()) {
    SCOPED_TRACE(std::string(k.key));
    const Sample v = in_range_sample(k);
    const CampaignSpec from_spec = CampaignSpec::parse(spec_text(k, v.json));
    const std::string text = echo(from_spec);
    EXPECT_NE(text.find("\"" + std::string(k.key) + "\": "),
              std::string::npos);
    EXPECT_NE(text, echo(CampaignSpec::parse(spec_text(k, ""))));
    EXPECT_EQ(echo(CampaignSpec::parse(text)), text);
    if (k.flag.empty()) continue;
    EXPECT_EQ(echo(from_flags(flag_args(k, v.flag))), text);
    if (!k.campaign_only) {
      EXPECT_EQ(
          echo(from_flags(flag_args(k, v.flag, FlagSet::kRecover),
                          FlagSet::kRecover)),
          echo(CampaignSpec::parse(spec_text(k, v.json, FlagSet::kRecover))));
    }
  }
}

TEST(KnobTable, DefaultsStayOutOfTheEcho) {
  const std::string plain = echo(CampaignSpec::parse(spec_text({}, "")));
  for (const RunKnob& k : core::run_knobs()) {
    if (k.always_echoed || k.in_workload()) continue;
    SCOPED_TRACE(std::string(k.key));
    const Sample d = default_sample(k);
    const std::string text = echo(CampaignSpec::parse(spec_text(k, d.json)));
    EXPECT_EQ(text.find("\"" + std::string(k.key) + "\""), std::string::npos);
    EXPECT_EQ(text, plain);
    if (!d.flag.empty()) {
      EXPECT_EQ(echo(from_flags(flag_args(k, d.flag))), plain);
    }
  }
}

TEST(KnobTable, OutOfRangeIsRejectedByBothPaths) {
  for (const RunKnob& k : core::run_knobs()) {
    SCOPED_TRACE(std::string(k.key));
    const Sample bad = out_of_range_sample(k);
    EXPECT_THROW(CampaignSpec::parse(spec_text(k, bad.json)),
                 std::invalid_argument);
    if (k.flag.empty() || bad.flag.empty()) continue;
    EXPECT_THROW(from_flags(flag_args(k, bad.flag)), std::invalid_argument);
    if (!k.campaign_only) {
      EXPECT_THROW(from_flags(flag_args(k, bad.flag, FlagSet::kRecover),
                              FlagSet::kRecover),
                   std::invalid_argument);
    }
  }
}

TEST(KnobTable, RecoverReadsExactlyTheRowsNotMarkedCampaignOnly) {
  for (const RunKnob& k : core::run_knobs()) {
    if (k.flag.empty()) continue;
    SCOPED_TRACE(std::string(k.key));
    std::vector<std::string> unknown;
    from_flags(flag_args(k, in_range_sample(k).flag, FlagSet::kRecover),
               FlagSet::kRecover, &unknown);
    const bool rejected =
        std::find(unknown.begin(), unknown.end(), std::string(k.flag)) !=
        unknown.end();
    EXPECT_EQ(rejected, k.campaign_only);
  }
}

TEST(KnobTable, FlagsRejectWhatTheSpecRejects) {
  // Each of these used to be accepted from the command line: a 0-shard
  // campaign, "-3" meaning all links, and per-shard error records.
  EXPECT_THROW(from_flags({"--seeds", "0"}), std::invalid_argument);
  EXPECT_THROW(from_flags({"--link-sites", "-3"}), std::invalid_argument);
  EXPECT_THROW(from_flags({"--gray-loss", "2"}), std::invalid_argument);
  EXPECT_THROW(from_flags({"--control", "foo"}), std::invalid_argument);
  EXPECT_THROW(from_flags({"--detection-ms", "-1"}), std::invalid_argument);
  EXPECT_THROW(from_flags({"--spf-ms", "-5"}), std::invalid_argument);
  EXPECT_THROW(from_flags({"--seeds", "two"}), std::invalid_argument);
  EXPECT_THROW(from_flags({"--seeds", "1.5"}), std::invalid_argument);
  EXPECT_THROW(from_flags({"--conditions", "C9"}), std::invalid_argument);
  EXPECT_THROW(from_flags({"--workload", "incast", "--fidelity", "flow"}),
               std::invalid_argument);
  // The fluid probe cannot run these either; every shard used to build and
  // converge its testbed only to end in an error record.
  EXPECT_THROW(from_flags({"--fidelity", "flow", "--fault", "gray"}),
               std::invalid_argument);
  EXPECT_THROW(from_flags({"--fidelity", "flow", "--detection", "probe"}),
               std::invalid_argument);
  EXPECT_THROW(from_flags({"--fidelity", "flow", "--fault", "gray"},
                          FlagSet::kRecover),
               std::invalid_argument);
  // recover: a zero BFD interval used to divide by zero in the run.
  EXPECT_THROW(from_flags({"--detection", "probe", "--bfd-tx-ms", "0"},
                          FlagSet::kRecover),
               std::invalid_argument);
  EXPECT_THROW(from_flags({"--sample-interval-ms", "0"}, FlagSet::kRecover),
               std::invalid_argument);
  EXPECT_THROW(from_flags({"--control", "foo"}, FlagSet::kRecover),
               std::invalid_argument);
  for (const char* bad :
       {R"({"topologies": [{"name": "f2", "ports": 4}], "conditions": ["C1"],
            "fail_at_ms": -1})",
        R"({"topologies": [{"name": "f2", "ports": 4}], "conditions": ["C1"],
            "detection_ms": -1})",
        R"({"topologies": [{"name": "f2", "ports": 4}], "conditions": ["C1"],
            "gray_los": 0.5})",
        R"({"topologies": [{"name": "f2", "ports": 4}], "conditions": ["C1"],
            "detection": "oracle|probe"})",
        R"({"topologies": [{"name": "f2", "ports": 4}], "conditions": ["C1"],
            "workload": {"fan_in": 4}})",
        R"({"topologies": [{"name": "f2", "ports": 4}], "conditions": ["C1"],
            "fidelity": "flow", "fault": "gray"})",
        R"({"topologies": [{"name": "f2", "ports": 4}], "conditions": ["C1"],
            "fidelity": "flow", "detection": "probe"})"}) {
    EXPECT_THROW(CampaignSpec::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(KnobTable, FlagDefaultsAndAllLinkSitesRoundTrip) {
  // Bare ad hoc campaign: the Table IV conditions, default knobs.
  const CampaignSpec bare = from_flags({});
  EXPECT_EQ(bare.conditions.size(), 7u);
  EXPECT_EQ(bare.name, "cli");
  // "all" is stored and echoed as -1, which must parse back (the
  // process-mode workers and --resume re-read the echo).
  const CampaignSpec all = from_flags({"--link-sites", "all"});
  EXPECT_EQ(all.link_sites, -1);
  EXPECT_EQ(echo(CampaignSpec::parse(echo(all))), echo(all));
  // Long horizons echo as whole milliseconds, not 1.23457e+06.
  const CampaignSpec longer = CampaignSpec::parse(
      R"({"topologies": [{"name": "f2", "ports": 4}], "conditions": ["C1"],
          "horizon_ms": 1234567})");
  EXPECT_NE(echo(longer).find("\"horizon_ms\": 1234567\n"), std::string::npos);
  EXPECT_EQ(CampaignSpec::parse(echo(longer)).horizon, longer.horizon);
  // Workload flags without --workload are inert.
  EXPECT_FALSE(from_flags({"--wl-load", "0.5"}).workload.enabled);
  // recover: one-shard spec, sampling every 10 ms unless told otherwise.
  const CampaignSpec recover =
      from_flags({"--condition", "C3", "--control", "central"},
                 FlagSet::kRecover);
  EXPECT_EQ(recover.conditions,
            std::vector<failure::Condition>{failure::Condition::kC3});
  EXPECT_EQ(recover.controls, std::vector<std::string>{"central"});
  EXPECT_EQ(recover.sample_interval_ms, 10);
}

TEST(KnobTable, KnobsOfMapsEveryRunKnob) {
  const CampaignSpec spec = CampaignSpec::parse(R"({
    "topologies": [{"name": "f2", "ports": 4}], "conditions": ["C1"],
    "detection_ms": 7, "spf_ms": 9, "fail_at_ms": 100, "horizon_ms": 900,
    "detection": "probe", "bfd_tx_ms": 5, "bfd_multiplier": 4,
    "dampening": false, "fault": "flap", "gray_loss": 0.25,
    "flap_period_ms": 40, "flap_cycles": 2, "trace": true,
    "sample_interval_ms": 3, "workload": {"kind": "incast", "fanin": 3}})");
  const core::RunKnobs knobs = exec::knobs_of(spec, "bgp", 77);
  EXPECT_EQ(knobs.config.control_plane, core::ControlPlane::kPathVector);
  EXPECT_EQ(knobs.config.seed, 77u);
  EXPECT_EQ(knobs.fail_at, sim::millis(100));
  EXPECT_EQ(knobs.horizon, sim::millis(900));
  EXPECT_EQ(knobs.config.detection.down_delay, sim::millis(7));
  EXPECT_EQ(knobs.config.detection.up_delay, sim::millis(7));
  EXPECT_EQ(knobs.config.ospf.throttle.initial_delay, sim::millis(9));
  EXPECT_EQ(knobs.config.detection.mode, routing::DetectionMode::kProbe);
  EXPECT_EQ(knobs.config.bfd.tx_interval, sim::millis(5));
  EXPECT_EQ(knobs.config.bfd.miss_multiplier, 4);
  EXPECT_FALSE(knobs.config.bfd.dampening.enabled);
  EXPECT_EQ(knobs.fault.kind, failure::FaultKind::kFlap);
  EXPECT_EQ(knobs.fault.gray_loss, 0.25);
  EXPECT_EQ(knobs.fault.flap_period, sim::millis(40));
  EXPECT_EQ(knobs.fault.flap_cycles, 2);
  EXPECT_TRUE(knobs.config.observe);
  EXPECT_EQ(knobs.config.sample_interval, sim::millis(3));
  EXPECT_EQ(knobs.fidelity, core::Fidelity::kPacket);
  ASSERT_TRUE(knobs.workload_enabled);
  EXPECT_EQ(knobs.workload.kind, transport::WorkloadKind::kIncast);
  EXPECT_EQ(knobs.workload.fanin, 3u);
  EXPECT_EQ(knobs.workload.stop, sim::millis(900));
}

}  // namespace
}  // namespace f2t
