#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/f2tree.hpp"
#include "core/runner.hpp"
#include "obs/timeline.hpp"

namespace f2t {
namespace {

// S3 regression: the RecoveryTimeline must be derivable under flow
// fidelity (the fluid probe's finalized arrivals are journaled as
// delivery events) and agree with packet fidelity on the control-plane
// milestones of a C1 single cut.
//
// Scope: C1 on the fat-tree (and F²Tree) with oracle detection. The
// loop-regime carve-out applies as everywhere in the fluid transport:
// on f2 under C7 (and any scenario whose interim routing state loops),
// the probe refuses to classify the looping window, so the flow-mode
// delivery stream — and hence the gap — is undefined there. Those
// scenarios stay packet-fidelity-only; see transport/fluid.hpp.

obs::FailureRecovery first_failure(const core::UdpRun& r) {
  const obs::RecoveryTimeline timeline(r.observation.events);
  EXPECT_EQ(timeline.failures().size(), 1u);
  return timeline.failures().front();
}

core::UdpRun run_c1(const char* topo, core::ControlPlane control,
                    core::Fidelity fidelity, int ports = 4) {
  core::RunKnobs knobs;
  knobs.config.observe = true;
  knobs.config.control_plane = control;
  knobs.fidelity = fidelity;
  const auto builder = core::topology_builder(topo, ports);
  return core::run_udp_condition(builder, failure::Condition::kC1, knobs);
}

/// The journal's data-plane drops as (time, reason, node, link) tuples,
/// sorted; packet uids are left out (the fluid probe has no packets).
std::vector<std::tuple<sim::Time, int, std::int64_t, std::int64_t>> drops_of(
    const core::UdpRun& r) {
  std::vector<std::tuple<sim::Time, int, std::int64_t, std::int64_t>> out;
  for (const obs::Event& e : r.observation.events) {
    if (e.type != obs::EventType::kPacketDrop) continue;
    out.emplace_back(e.at, static_cast<int>(e.reason), e.node, e.link);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(TimelineFidelity, FlowModeReproducesOspfMilestonesOnFatTree) {
  const auto pkt =
      run_c1("fat", core::ControlPlane::kOspf, core::Fidelity::kPacket);
  const auto flow =
      run_c1("fat", core::ControlPlane::kOspf, core::Fidelity::kFlow);
  ASSERT_TRUE(pkt.ok);
  ASSERT_TRUE(flow.ok);
  ASSERT_FALSE(flow.observation.events.empty());

  const auto fp = first_failure(pkt);
  const auto ff = first_failure(flow);
  EXPECT_EQ(ff.failed_at, fp.failed_at);
  EXPECT_EQ(ff.links, fp.links);
  // Oracle detection fires at failed_at + down_delay in both fidelities.
  ASSERT_TRUE(fp.detected());
  ASSERT_TRUE(ff.detected());
  EXPECT_EQ(ff.detected_at, fp.detected_at);
  // The control plane is identical machinery in both modes; data packets
  // do not contend with control traffic here, so convergence matches
  // exactly.
  ASSERT_TRUE(fp.converged());
  ASSERT_TRUE(ff.converged());
  EXPECT_EQ(ff.converged_at, fp.converged_at);
  // The connectivity gap agrees to within one probe sending interval
  // (packet mode quantizes the gap edges to packet departures; the fluid
  // probe classifies the same regime windows continuously).
  ASSERT_TRUE(fp.rerouted());
  ASSERT_TRUE(ff.rerouted());
  const sim::Time interval = sim::millis(1);
  EXPECT_NEAR(static_cast<double>(ff.gap()),
              static_cast<double>(fp.gap()),
              static_cast<double>(interval));
  // And both timelines agree with their own run's probe measurement by
  // construction.
  EXPECT_EQ(fp.gap(), pkt.connectivity_loss);
  EXPECT_EQ(ff.gap(), flow.connectivity_loss);
  // Flow fidelity journals its lost sends, so the gap's loss count is
  // the run's and the packet run's.
  EXPECT_EQ(fp.packets_lost, pkt.packets_lost);
  EXPECT_EQ(ff.packets_lost, flow.packets_lost);
  EXPECT_EQ(ff.packets_lost, fp.packets_lost);
}

TEST(TimelineFidelity, FlowModeReproducesCentralMilestonesOnF2Tree) {
  const auto pkt =
      run_c1("f2", core::ControlPlane::kCentral, core::Fidelity::kPacket);
  const auto flow =
      run_c1("f2", core::ControlPlane::kCentral, core::Fidelity::kFlow);
  ASSERT_TRUE(pkt.ok);
  ASSERT_TRUE(flow.ok);

  const auto fp = first_failure(pkt);
  const auto ff = first_failure(flow);
  EXPECT_EQ(ff.failed_at, fp.failed_at);
  ASSERT_TRUE(fp.detected());
  ASSERT_TRUE(ff.detected());
  EXPECT_EQ(ff.detected_at, fp.detected_at);
  ASSERT_TRUE(fp.converged());
  ASSERT_TRUE(ff.converged());
  EXPECT_EQ(ff.converged_at, fp.converged_at);
  EXPECT_EQ(ff.packets_lost, fp.packets_lost);
  EXPECT_EQ(ff.packets_lost, flow.packets_lost);
}

// Fat-8 C1 under the controller: the run the loss under-report was seen
// on (flow fidelity printed 0 lost in the gap against 1,140 lost). Both
// fidelities must journal the same drops — when, why and where.
TEST(TimelineFidelity, FlowModeJournalsPacketLossOnFatTreeCentral) {
  const auto pkt = run_c1("fat", core::ControlPlane::kCentral,
                          core::Fidelity::kPacket, 8);
  const auto flow = run_c1("fat", core::ControlPlane::kCentral,
                           core::Fidelity::kFlow, 8);
  ASSERT_TRUE(pkt.ok);
  ASSERT_TRUE(flow.ok);
  ASSERT_EQ(flow.packets_lost, pkt.packets_lost);
  EXPECT_GT(pkt.packets_lost, 0u);

  const auto fp = first_failure(pkt);
  const auto ff = first_failure(flow);
  EXPECT_EQ(fp.packets_lost, pkt.packets_lost);
  EXPECT_EQ(ff.packets_lost, flow.packets_lost);

  const auto pkt_drops = drops_of(pkt);
  EXPECT_EQ(pkt_drops.size(), pkt.packets_lost);
  EXPECT_TRUE(drops_of(flow) == pkt_drops);
}

}  // namespace
}  // namespace f2t
