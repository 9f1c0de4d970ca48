#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "exec/campaign.hpp"
#include "exec/process.hpp"

namespace f2t {
namespace {

namespace fs = std::filesystem;

/// Unique scratch state dir per test, removed on destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& tag)
      : path((fs::temp_directory_path() /
              ("f2t-test-" + tag + "-" + std::to_string(::getpid())))
                 .string()) {
    fs::remove_all(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

core::CampaignSpec tiny_spec() {
  return core::CampaignSpec::parse(R"({
    "name": "tiny",
    "topologies": [{"name": "f2", "ports": 4}],
    "conditions": ["C1"],
    "link_sites": 2,
    "seeds": 2,
    "horizon_ms": 1200
  })");
}

std::string deterministic_json(const core::CampaignResult& result) {
  std::ostringstream os;
  result.write_json(os, /*include_profile=*/false);
  return os.str();
}

TEST(CampaignProcess, WorkerStreamsOneRecordPerShard) {
  const auto spec = tiny_spec();
  const auto shards = core::enumerate_shards(spec);
  ASSERT_EQ(shards.size(), 6u);
  std::ostringstream out;
  const int done =
      exec::run_campaign_worker(spec, {{1, 3}, {5, 6}}, out);
  EXPECT_EQ(done, 3);
  std::istringstream lines(out.str());
  std::string line;
  std::vector<int> indices;
  while (std::getline(lines, line)) {
    indices.push_back(core::parse_shard_record(line).index);
  }
  EXPECT_EQ(indices, (std::vector<int>{1, 2, 5}));
  EXPECT_THROW(exec::run_campaign_worker(spec, {{4, 99}}, out),
               std::invalid_argument);
}

TEST(CampaignProcess, ArtifactIsByteIdenticalToInProcessRuns) {
  const auto spec = tiny_spec();
  exec::CampaignOptions serial;
  serial.jobs = 1;
  const std::string reference =
      deterministic_json(exec::run_campaign(spec, serial));

  for (const int workers : {1, 2, 4}) {
    ScratchDir dir("workers" + std::to_string(workers));
    exec::ProcessCampaignOptions options;
    options.workers = workers;
    options.state_dir = dir.path;
    int records = 0;
    options.on_record = [&records](const core::ShardResult&) { ++records; };
    const auto result = exec::run_campaign_processes(spec, options);
    EXPECT_EQ(records, 6);
    EXPECT_EQ(result.workers, workers);
    EXPECT_EQ(deterministic_json(result), reference)
        << "process-mode artifact must be byte-identical, workers="
        << workers;
  }
}

TEST(CampaignProcess, MoreWorkersThanShardsStillCompletes) {
  const auto spec = tiny_spec();  // 6 shards
  ScratchDir dir("overprov");
  exec::ProcessCampaignOptions options;
  options.workers = 16;
  options.state_dir = dir.path;
  const auto result = exec::run_campaign_processes(spec, options);
  EXPECT_EQ(result.runs.size(), 6u);
  for (const auto& r : result.runs) EXPECT_TRUE(r.ok);
}

TEST(CampaignProcess, FreshRunRefusesAStaleStateDir) {
  const auto spec = tiny_spec();
  ScratchDir dir("stale");
  exec::ProcessCampaignOptions options;
  options.workers = 2;
  options.state_dir = dir.path;
  (void)exec::run_campaign_processes(spec, options);
  // Same dir again without --resume: explicit error, not silent reuse.
  EXPECT_THROW(exec::run_campaign_processes(spec, options),
               std::runtime_error);
  // With resume it is a no-op continuation that still reduces correctly.
  options.resume = true;
  const auto again = exec::run_campaign_processes(spec, options);
  EXPECT_EQ(again.runs.size(), 6u);
}

TEST(CampaignProcess, ResumeRejectsMismatchedSpec) {
  const auto spec = tiny_spec();
  ScratchDir dir("mismatch");
  exec::ProcessCampaignOptions options;
  options.workers = 2;
  options.state_dir = dir.path;
  (void)exec::run_campaign_processes(spec, options);
  auto other = spec;
  other.seeds = 3;
  options.resume = true;
  EXPECT_THROW(exec::run_campaign_processes(other, options),
               std::runtime_error);
  exec::ProcessCampaignOptions fresh;
  fresh.workers = 2;
  fresh.state_dir = dir.path + "-none";
  fresh.resume = true;
  EXPECT_THROW(exec::run_campaign_processes(spec, fresh),
               std::runtime_error);
  fs::remove_all(fresh.state_dir);
}

/// Simulated kill: run a full campaign to populate the streams, then
/// damage them the way a SIGKILL does — drop whole trailing records from
/// one stream and leave a torn half-record on another — and resume. The
/// reduced artifact must be byte-identical to the uninterrupted run.
TEST(CampaignProcess, KilledCampaignResumesToIdenticalArtifact) {
  const auto spec = tiny_spec();
  ScratchDir dir("kill");
  exec::ProcessCampaignOptions options;
  options.workers = 2;
  options.state_dir = dir.path;
  const auto uninterrupted = exec::run_campaign_processes(spec, options);
  const std::string reference = deterministic_json(uninterrupted);

  // Damage stream 0: keep only its first record. Damage stream 1: tear
  // its last record in half (the kill-mid-write case).
  const std::string s0 = dir.path + "/worker-0.jsonl";
  const std::string s1 = dir.path + "/worker-1.jsonl";
  {
    std::ifstream in(s0);
    std::string first;
    ASSERT_TRUE(std::getline(in, first));
    in.close();
    std::ofstream out(s0, std::ios::trunc);
    out << first << "\n";
  }
  {
    std::ifstream in(s1, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    ASSERT_GT(text.size(), 20u);
    text.resize(text.size() - 17);  // tear into the last record
    in.close();
    std::ofstream out(s1, std::ios::binary | std::ios::trunc);
    out << text;
  }

  exec::ProcessCampaignOptions resume;
  resume.workers = 2;
  resume.resume = true;
  resume.state_dir = dir.path;
  const auto recovered = exec::run_campaign_processes(spec, resume);
  EXPECT_EQ(recovered.runs.size(), 6u);
  EXPECT_EQ(deterministic_json(recovered), reference)
      << "resume after a kill must reproduce the identical artifact";

  // The torn tail was truncated away: the stream now holds only whole,
  // parseable records.
  std::ifstream in(s1);
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_NO_THROW(core::parse_shard_record(line));
  }
}

/// A checkpointed record whose shard index does not fit an int is torn,
/// not filed: narrowed, shard 1's record carrying "i": 4294967296 would
/// land in shard 0's slot and the resumed artifact would differ.
TEST(CampaignProcess, OutOfRangeRecordIsTruncatedNotMisfiled) {
  const auto spec = tiny_spec();
  ScratchDir dir("narrow");
  exec::ProcessCampaignOptions options;
  options.workers = 1;
  options.state_dir = dir.path;
  const std::string reference =
      deterministic_json(exec::run_campaign_processes(spec, options));

  const std::string stream = dir.path + "/worker-0.jsonl";
  std::string second;
  {
    std::ifstream in(stream);
    ASSERT_TRUE(std::getline(in, second));
    ASSERT_TRUE(std::getline(in, second));
  }
  const std::string prefix = "{\"v\": 1, \"i\": 1,";
  ASSERT_EQ(second.rfind(prefix, 0), 0u);
  second.replace(0, prefix.size(), "{\"v\": 1, \"i\": 4294967296,");
  {
    std::ofstream out(stream, std::ios::trunc);
    out << second << "\n";
  }

  options.resume = true;
  EXPECT_EQ(deterministic_json(exec::run_campaign_processes(spec, options)),
            reference);
  // The refused line was cut before the resumed worker appended.
  std::ifstream in(stream);
  std::string line;
  std::vector<int> indices;
  while (std::getline(in, line)) {
    indices.push_back(core::parse_shard_record(line).index);
  }
  EXPECT_EQ(indices, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(CampaignProcess, ErrorShardsCrossTheWorkerBoundaryIntact) {
  // A campaign whose shards all throw: the per-shard error records must
  // stream through workers and reduce byte-identically to in-process.
  const auto spec = core::CampaignSpec::parse(R"({
    "name": "broken",
    "topologies": [{"name": "nope", "ports": 4}],
    "conditions": ["C1", "C2"],
    "seeds": 2,
    "horizon_ms": 500
  })");
  exec::CampaignOptions serial;
  serial.jobs = 1;
  const std::string reference =
      deterministic_json(exec::run_campaign(spec, serial));
  ScratchDir dir("errors");
  exec::ProcessCampaignOptions options;
  options.workers = 2;
  options.state_dir = dir.path;
  const auto result = exec::run_campaign_processes(spec, options);
  EXPECT_EQ(deterministic_json(result), reference);
  for (const auto& r : result.runs) {
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error, "unknown topology: nope");
  }
}

TEST(CampaignProcess, SurvivabilitySweepSurvivesTheProcessBoundary) {
  const auto spec = core::survivability_spec(
      {core::CampaignSpec::TopologyAxis{"f2", 4, 2, 1}}, /*draws=*/6);
  exec::CampaignOptions serial;
  serial.jobs = 1;
  const std::string reference =
      deterministic_json(exec::run_campaign(spec, serial));
  ScratchDir dir("surv");
  exec::ProcessCampaignOptions options;
  options.workers = 3;
  options.state_dir = dir.path;
  const auto result = exec::run_campaign_processes(spec, options);
  EXPECT_EQ(deterministic_json(result), reference);
  EXPECT_NE(reference.find("\"survivability\""), std::string::npos);
}

TEST(CampaignProcess, RejectsBadOptions) {
  const auto spec = tiny_spec();
  exec::ProcessCampaignOptions options;
  options.workers = 0;
  options.state_dir = "/tmp/unused";
  EXPECT_THROW(exec::run_campaign_processes(spec, options),
               std::invalid_argument);
  options.workers = 2;
  options.state_dir = "";
  EXPECT_THROW(exec::run_campaign_processes(spec, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace f2t
