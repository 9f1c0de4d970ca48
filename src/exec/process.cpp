#include "exec/process.hpp"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "exec/campaign.hpp"

namespace f2t::exec {

namespace fs = std::filesystem;

namespace {

std::string spec_echo(const core::CampaignSpec& spec) {
  std::ostringstream os;
  spec.write_json(os, 0);
  return os.str();
}

std::string stream_path(const std::string& state_dir, int worker) {
  return state_dir + "/worker-" + std::to_string(worker) + ".jsonl";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("campaign: cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Near-equal split of the sorted missing-shard list, each worker's share
/// compressed to contiguous ranges: the first `n % workers` workers get
/// one shard more, and workers beyond the shard count get nothing (and
/// are not forked). A fresh run's list is all of [0, n), so every
/// worker gets one block.
std::vector<std::vector<std::pair<int, int>>> split_indices(
    const std::vector<int>& indices, int workers) {
  std::vector<std::vector<std::pair<int, int>>> out(
      static_cast<std::size_t>(workers));
  const int n = static_cast<int>(indices.size());
  const int base = n / workers;
  const int rem = n % workers;
  int at = 0;
  for (int w = 0; w < workers; ++w) {
    const int len = base + (w < rem ? 1 : 0);
    const std::vector<int> share(indices.begin() + at,
                                 indices.begin() + at + len);
    out[static_cast<std::size_t>(w)] = core::contiguous_ranges(share);
    at += len;
  }
  return out;
}

/// Loads every completed record already checkpointed in the state dir's
/// worker streams (resume). A torn trailing line — no newline, or bytes
/// that do not parse as a record (a worker killed mid-write) — ends
/// that stream's valid prefix; the file is truncated back to it so the
/// resumed worker appends after whole records only. Duplicate indices
/// keep the first record seen (streams are scanned in worker order, so
/// the choice is deterministic).
void load_checkpointed(const std::string& state_dir,
                       std::vector<core::ShardResult>& slots,
                       std::vector<bool>& present) {
  std::vector<fs::path> streams;
  for (const auto& entry : fs::directory_iterator(state_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("worker-", 0) == 0 &&
        entry.path().extension() == ".jsonl") {
      streams.push_back(entry.path());
    }
  }
  std::sort(streams.begin(), streams.end());
  for (const fs::path& path : streams) {
    const std::string text = read_file(path.string());
    std::size_t valid = 0;  // byte length of the whole-record prefix
    std::size_t at = 0;
    while (at < text.size()) {
      const std::size_t nl = text.find('\n', at);
      if (nl == std::string::npos) break;  // torn: no trailing newline
      core::ShardResult r;
      try {
        r = core::parse_shard_record(
            std::string_view(text).substr(at, nl - at));
      } catch (const std::exception&) {
        break;  // torn: buffered garbage flushed before the kill
      }
      const auto i = static_cast<std::size_t>(r.index);
      if (r.index < 0 || i >= slots.size()) break;  // foreign record
      if (!present[i]) {
        slots[i] = std::move(r);
        present[i] = true;
      }
      at = nl + 1;
      valid = at;
    }
    if (valid < text.size()) {
      fs::resize_file(path, valid);
    }
  }
}

struct Worker {
  pid_t pid = -1;
  int index = 0;
  std::string path;        ///< stream file
  std::streamoff offset = 0;  ///< bytes consumed so far
  std::string tail;        ///< partial trailing line
  bool exited = false;
  int status = 0;          ///< waitpid status once exited
};

/// Consumes any new complete lines from one worker stream, parsing each
/// into its pre-assigned slot. Lines only count once terminated by a
/// newline; a parse failure on a *complete* line is stream corruption
/// and throws (the torn-line case only exists at a kill boundary, which
/// resume handles — a live worker flushes whole records).
void drain_stream(Worker& w, std::vector<core::ShardResult>& slots,
                  std::vector<bool>& present,
                  const std::function<void(const core::ShardResult&)>& hook,
                  bool final_drain) {
  std::ifstream in(w.path, std::ios::binary);
  if (!in) return;  // the worker has not opened its stream yet
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size <= w.offset) return;
  in.seekg(w.offset);
  std::string chunk(static_cast<std::size_t>(size - w.offset), '\0');
  in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  chunk.resize(static_cast<std::size_t>(in.gcount()));
  w.offset += static_cast<std::streamoff>(chunk.size());
  w.tail += chunk;
  std::size_t at = 0;
  while (true) {
    const std::size_t nl = w.tail.find('\n', at);
    if (nl == std::string::npos) break;
    core::ShardResult r;
    try {
      r = core::parse_shard_record(
          std::string_view(w.tail).substr(at, nl - at));
    } catch (const std::exception& e) {
      throw std::runtime_error("campaign: corrupt record in " + w.path +
                               ": " + e.what());
    }
    at = nl + 1;
    const auto i = static_cast<std::size_t>(r.index);
    if (r.index < 0 || i >= slots.size()) {
      throw std::runtime_error("campaign: record in " + w.path +
                               " names shard " + std::to_string(r.index) +
                               ", outside this campaign");
    }
    if (!present[i]) {
      present[i] = true;
      slots[i] = std::move(r);
      if (hook) hook(slots[i]);
    }
  }
  w.tail.erase(0, at);
  if (final_drain && !w.tail.empty()) {
    // The worker exited leaving a partial line; surface it as the
    // abnormal-exit path will (the caller checks statuses first).
    w.tail.clear();
  }
}

}  // namespace

int run_campaign_worker(const core::CampaignSpec& spec,
                        const std::vector<std::pair<int, int>>& ranges,
                        std::ostream& out) {
  const std::vector<core::ShardSpec> shards = core::enumerate_shards(spec);
  int done = 0;
  for (const auto& [a, b] : ranges) {
    if (a < 0 || static_cast<std::size_t>(b) > shards.size()) {
      throw std::invalid_argument(
          "campaign: worker shard range " + std::to_string(a) + ":" +
          std::to_string(b) + " outside 0:" + std::to_string(shards.size()));
    }
    for (int i = a; i < b; ++i) {
      const core::ShardResult r =
          run_shard_captured(spec, shards[static_cast<std::size_t>(i)]);
      core::write_shard_record(out, r);
      // One flushed line per shard is the checkpoint granularity: a kill
      // loses at most the shard in flight.
      out.flush();
    }
    done += b - a;
  }
  return done;
}

core::CampaignResult run_campaign_processes(
    const core::CampaignSpec& spec, const ProcessCampaignOptions& options) {
  if (options.workers < 1) {
    throw std::invalid_argument("campaign: --workers must be >= 1");
  }
  if (options.state_dir.empty()) {
    throw std::invalid_argument("campaign: process mode needs a state dir");
  }
  const auto wall_start = std::chrono::steady_clock::now();

  const std::vector<core::ShardSpec> shards = core::enumerate_shards(spec);
  std::vector<core::ShardResult> slots(shards.size());
  std::vector<bool> present(shards.size(), false);

  const std::string manifest_path = options.state_dir + "/manifest.json";

  if (options.resume) {
    if (!fs::exists(manifest_path)) {
      throw std::runtime_error("campaign: --resume but no manifest at " +
                               manifest_path);
    }
    const core::CheckpointManifest manifest =
        core::CheckpointManifest::parse(read_file(manifest_path));
    if (spec_echo(manifest.spec) != spec_echo(spec)) {
      throw std::runtime_error(
          "campaign: --resume spec does not match the checkpointed "
          "campaign in " +
          options.state_dir);
    }
    if (manifest.shards != static_cast<int>(shards.size())) {
      throw std::runtime_error("campaign: checkpoint manifest shard count " +
                               std::to_string(manifest.shards) +
                               " does not match the spec");
    }
    load_checkpointed(options.state_dir, slots, present);
  } else {
    if (fs::exists(manifest_path)) {
      throw std::runtime_error(
          "campaign: " + options.state_dir +
          " already holds a checkpointed campaign; pass --resume to "
          "continue it or remove the directory");
    }
    fs::create_directories(options.state_dir);
    core::CheckpointManifest manifest;
    manifest.spec = spec;
    manifest.shards = static_cast<int>(shards.size());
    manifest.workers = options.workers;
    std::ofstream mos(manifest_path, std::ios::binary);
    manifest.write_json(mos);
    if (!mos.good()) {
      throw std::runtime_error("campaign: cannot write state into " +
                               options.state_dir);
    }
  }

  // Work assignment: split whatever indices are still missing — all of
  // them on a fresh run. The ranges are a pure function of (spec,
  // checkpoint state), so identical shards re-run identically.
  std::vector<int> missing;
  for (std::size_t i = 0; i < present.size(); ++i) {
    if (!present[i]) missing.push_back(static_cast<int>(i));
  }
  const auto assignment = split_indices(missing, options.workers);

  std::vector<Worker> workers;
  for (int w = 0; w < options.workers; ++w) {
    const auto& ranges = assignment[static_cast<std::size_t>(w)];
    if (ranges.empty()) continue;
    Worker worker;
    worker.index = w;
    worker.path = stream_path(options.state_dir, w);
    worker.offset = fs::exists(worker.path)
                        ? static_cast<std::streamoff>(
                              fs::file_size(worker.path))
                        : 0;
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw std::runtime_error(std::string("campaign: fork: ") +
                               std::strerror(errno));
    }
    if (pid == 0) {
      // Child: runs its ranges on the parent's in-memory spec and leaves
      // with _exit, so nothing of the parent (atexit hooks, buffered
      // stdio) runs twice. The parent is single-threaded at this point
      // (workers are forked before any reduction starts). Appending keeps
      // the records an earlier run checkpointed in this stream.
      int code = 0;
      try {
        std::ofstream out(worker.path, std::ios::binary | std::ios::app);
        run_campaign_worker(spec, ranges, out);
        out.flush();
        if (!out.good()) {
          throw std::runtime_error("cannot write " + worker.path);
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "campaign: worker %d: %s\n", w, e.what());
        code = 2;
      }
      ::_exit(code);
    }
    worker.pid = pid;
    workers.push_back(std::move(worker));
  }

  // Streaming reducer: poll the worker streams for complete lines while
  // reaping exits; records land in pre-assigned slots so the final runs
  // vector is in shard order whatever the arrival interleaving was.
  std::size_t alive = workers.size();
  while (alive > 0) {
    for (Worker& w : workers) {
      drain_stream(w, slots, present, options.on_record, false);
      if (!w.exited) {
        int status = 0;
        const pid_t got = ::waitpid(w.pid, &status, WNOHANG);
        if (got == w.pid) {
          w.exited = true;
          w.status = status;
          --alive;
        }
      }
    }
    if (alive > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  for (Worker& w : workers) {
    drain_stream(w, slots, present, options.on_record, true);
  }
  for (const Worker& w : workers) {
    if (!WIFEXITED(w.status) || WEXITSTATUS(w.status) != 0) {
      throw std::runtime_error(
          "campaign: worker " + std::to_string(w.index) +
          " exited abnormally; completed shards are checkpointed in " +
          options.state_dir + " — re-run with --resume");
    }
  }
  for (std::size_t i = 0; i < present.size(); ++i) {
    if (!present[i]) {
      throw std::runtime_error(
          "campaign: shard " + std::to_string(i) +
          " missing after all workers exited; re-run with --resume");
    }
  }

  core::CampaignResult result;
  result.spec = spec;
  result.runs = std::move(slots);
  result.jobs = options.workers;
  result.workers = options.workers;
  result.hardware_threads = std::thread::hardware_concurrency();
  result.steals = 0;
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  result.wall_seconds = wall.count();
  return result;
}

}  // namespace f2t::exec
