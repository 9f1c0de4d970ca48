/// Campaign-engine throughput: the same failure-injection campaign run
/// single-threaded, with a worker-thread pool, and across forked worker
/// processes, reported as BENCH_campaign.json.
///
/// The campaign is the ISSUE's reference matrix: a k=8 fat tree, the
/// first 64 switch-link failure sites, 4 seed replicates each (256
/// independent simulations). Before reporting speedup the bench asserts
/// the three runs' deterministic artifacts are byte-identical — a
/// speedup produced by a nondeterministic engine would be meaningless.
///
/// Usage: bench_campaign [--ports N] [--sites N] [--seeds N] [--jobs N]
///                       [--workers N]
///
/// Note: `speedup` is only meaningful relative to `hardware_threads`
/// (also recorded); on a single-core machine it is expected to be ~1.

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_util.hpp"
#include "exec/campaign.hpp"
#include "exec/process.hpp"

using namespace f2t;

int main(int argc, char** argv) {
  int ports = 8;
  int sites = 64;
  int seeds = 4;
  int jobs = 8;
  int workers = 4;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const int value = std::atoi(argv[i + 1]);
    if (key == "--ports") {
      ports = value;
    } else if (key == "--sites") {
      sites = value;
    } else if (key == "--seeds") {
      seeds = value;
    } else if (key == "--jobs") {
      jobs = value;
    } else if (key == "--workers") {
      workers = value;
    } else {
      std::cerr << "usage: bench_campaign [--ports N] [--sites N] "
                   "[--seeds N] [--jobs N] [--workers N]\n";
      return 2;
    }
  }

  core::CampaignSpec spec;
  spec.name = "bench-campaign";
  spec.topologies = {{.name = "fat", .ports = ports}};
  spec.controls = {"ospf"};
  spec.link_sites = sites;
  spec.seeds = seeds;

  const auto shards = core::enumerate_shards(spec);
  std::cout << "campaign: fat-" << ports << ", " << sites << " link sites x "
            << seeds << " seeds = " << shards.size() << " runs\n";

  exec::CampaignOptions serial;
  serial.jobs = 1;
  const auto r1 = exec::run_campaign(spec, serial);

  exec::CampaignOptions parallel;
  parallel.jobs = jobs;
  const auto rn = exec::run_campaign(spec, parallel);

  // Process mode: forked workers streaming JSONL records into a scratch
  // state dir, the same path `f2tsim campaign --workers` runs.
  const std::string state_dir =
      (std::filesystem::temp_directory_path() /
       ("f2t-bench-campaign-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(state_dir);
  exec::ProcessCampaignOptions process;
  process.workers = workers;
  process.state_dir = state_dir;
  const auto rp = exec::run_campaign_processes(spec, process);
  std::filesystem::remove_all(state_dir);

  std::ostringstream a;
  std::ostringstream b;
  std::ostringstream c;
  r1.write_json(a, /*include_profile=*/false);
  rn.write_json(b, /*include_profile=*/false);
  rp.write_json(c, /*include_profile=*/false);
  if (a.str() != b.str()) {
    std::cerr << "FAIL: campaign artifact differs between --jobs 1 and "
                 "--jobs " << jobs << " — determinism contract broken\n";
    return 1;
  }
  if (a.str() != c.str()) {
    std::cerr << "FAIL: campaign artifact differs between --jobs 1 and "
                 "--workers " << workers
              << " — process-mode determinism contract broken\n";
    return 1;
  }

  const double speedup =
      rn.wall_seconds > 0 ? r1.wall_seconds / rn.wall_seconds : 0;
  const double speedup_process =
      rp.wall_seconds > 0 ? r1.wall_seconds / rp.wall_seconds : 0;
  const double runs = static_cast<double>(shards.size());
  std::cout << "jobs=1: " << r1.wall_seconds << " s ("
            << runs / r1.wall_seconds << " runs/s)\n"
            << "jobs=" << rn.jobs << ": " << rn.wall_seconds << " s ("
            << runs / rn.wall_seconds << " runs/s), steals=" << rn.steals
            << "\n"
            << "workers=" << rp.workers << ": " << rp.wall_seconds << " s ("
            << runs / rp.wall_seconds << " runs/s, forked processes)\n"
            << "speedup: " << speedup << "x threads, " << speedup_process
            << "x processes on " << rn.hardware_threads
            << " hardware threads\n"
            << "deterministic artifacts: identical\n";

  const std::string name = "campaign/fat-" + std::to_string(ports) +
                           "/sites" + std::to_string(sites) + "x" +
                           std::to_string(seeds);
  const bool ok = bench::write_bench_json(
      "campaign",
      {{name, "wall_jobs1", r1.wall_seconds, "s"},
       {name, "wall_jobs" + std::to_string(rn.jobs), rn.wall_seconds, "s"},
       {name, "wall_workers" + std::to_string(rp.workers), rp.wall_seconds,
        "s"},
       {name, "speedup", speedup, "x"},
       {name, "speedup_process", speedup_process, "x"},
       {name, "runs_per_s_jobs1", runs / r1.wall_seconds, "runs/s"},
       {name, "runs_per_s_jobs" + std::to_string(rn.jobs),
        runs / rn.wall_seconds, "runs/s"},
       {name, "runs_per_s_workers" + std::to_string(rp.workers),
        runs / rp.wall_seconds, "runs/s"},
       {name, "hardware_threads", static_cast<double>(rn.hardware_threads),
        "threads"},
       {name, "steals", static_cast<double>(rn.steals), "count"}});
  if (!ok) {
    std::cerr << "cannot write BENCH_campaign.json\n";
    return 1;
  }
  return 0;
}
