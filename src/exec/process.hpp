#pragma once

#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"

namespace f2t::exec {

/// Process-level campaign execution (`f2tsim campaign --workers N`).
///
/// The parent writes a checkpoint manifest (which embeds the canonical
/// spec echo) into a state directory, forks N child workers over
/// contiguous shard ranges, and reduces their per-worker JSONL streams
/// back into the ordinary core::CampaignResult. Each child works from the
/// parent's in-memory spec: it re-enumerates the shard list (shards are
/// a pure function of the spec), runs its half-open ranges serially and
/// flushes one self-contained JSONL record per completed shard — so a
/// SIGKILL loses at most the shard in flight, and --resume re-runs
/// exactly the missing indices.
///
/// State-directory layout (default `<out>.state/`):
///   manifest.json    core::CheckpointManifest (spec echo + geometry)
///   worker-<i>.jsonl one stream per worker, appended on resume
///
/// Determinism contract: records carry exact values (doubles at 17
/// significant digits, seeds as strings), the reducer re-orders them by
/// shard index, and the deterministic portion of the artifact is
/// byte-identical to an in-process run for any worker count — including
/// a run that was killed and resumed.
struct ProcessCampaignOptions {
  int workers = 2;          ///< forked worker processes (>= 1)
  bool resume = false;      ///< continue from an existing state dir
  std::string state_dir;    ///< checkpoint/stream directory (required)
  /// Optional progress hook, invoked from the reducer (parent process,
  /// single thread) as each streamed record arrives — arrival order,
  /// not shard order.
  std::function<void(const core::ShardResult&)> on_record;
};

/// Worker body: runs every shard of `ranges` (half-open, ascending)
/// serially and streams one JSONL record per shard to `out`, flushing
/// after each. Returns the number of shards run. Each forked worker
/// calls this in the child process.
int run_campaign_worker(const core::CampaignSpec& spec,
                        const std::vector<std::pair<int, int>>& ranges,
                        std::ostream& out);

/// Forks `options.workers` workers over the spec's shards, streams and
/// reduces their records, and returns the assembled CampaignResult
/// (runs in shard order; jobs = workers; steals = 0).
///
/// Fresh run: the state dir must not already hold a manifest (stale
/// state must be an explicit error, not silently overwritten). Resume:
/// the manifest must exist and its embedded spec echo must match
/// byte-for-byte; completed records are loaded from the streams (a torn
/// trailing line from a killed worker is detected and truncated away)
/// and only the missing shard indices are re-run.
///
/// A worker that throws prints `campaign: worker <i>: <what>` to stderr
/// and exits 2. Throws std::runtime_error when a worker dies abnormally
/// (after draining its stream — completed shards stay checkpointed) or
/// when records are missing after all workers exit; the message suggests
/// --resume.
core::CampaignResult run_campaign_processes(
    const core::CampaignSpec& spec, const ProcessCampaignOptions& options);

}  // namespace f2t::exec
