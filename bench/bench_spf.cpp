/// Control-plane fast-path benchmark: single-link-failure reconvergence
/// SPF, full Dijkstra (a reset SpfSolver) vs the incremental solver, at
/// k = 8/16/20 fat trees (k = 20 — 500 switches — is the largest radix
/// the 256-ToR address plan admits), plus the FIB install delta each
/// recompute produces. Emits BENCH_spf.json (see bench_util.hpp); the committed
/// Release baseline lives in bench/baselines/.
///
/// The scenario is the paper's common case: a remote ToR uplink in
/// another pod fails and recovers while the computing router — an
/// aggregation switch, whose first-hop sets actually change when a
/// remote rack loses an uplink — reconverges. Each direction of the cut
/// arrives as its own LSA, exactly as flooding delivers it, and the SPF
/// run after both is what reconvergence pays per event.
///
/// The ControllerCompute rows time one full central-controller
/// computation at k = 8/16/32 (view build, the destination-rooted
/// DestinationSpf kernel, every switch's routes, FIB delta install), with
/// its route count. On the same view they also time the kernel alone
/// against the per-source reference (a full SpfSolver run for every
/// switch, what the controller ran before) and check that both give
/// identical routes.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_util.hpp"
#include "core/f2tree.hpp"

using namespace f2t;

namespace {

using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Reissues `base` with `peer` removed from its links (the LSA a router
/// floods when one adjacency dies), or verbatim when peer is 0.
routing::LsaPtr reissue(const routing::Lsa& base, net::Ipv4Addr peer,
                        std::uint64_t seq) {
  auto lsa = std::make_shared<routing::Lsa>(base);
  lsa->sequence = seq;
  std::erase_if(lsa->links, [&](const routing::LsaLink& l) {
    return l.neighbor == peer;
  });
  return lsa;
}

std::vector<routing::Route> canonical(std::vector<routing::Route> routes) {
  std::sort(routes.begin(), routes.end(),
            [](const routing::Route& a, const routing::Route& b) {
              if (a.prefix != b.prefix) return a.prefix < b.prefix;
              return a.next_hops < b.next_hops;
            });
  return routes;
}

struct CaseResult {
  double full_ns_per_run = 0;
  double incremental_ns_per_run = 0;
  std::size_t delta_down = 0;   ///< FIB slots touched by the failure
  std::size_t delta_up = 0;     ///< ... and by the recovery
  std::size_t routes = 0;       ///< converged route count at the agg
  std::size_t switches = 0;
  bool equivalent = false;
  bool all_incremental = false;
};

CaseResult run_case(int ports, int iterations) {
  sim::Simulator sim(1);
  net::Network network(sim);
  const auto topo =
      topo::build_fat_tree(network, topo::FatTreeOptions{.ports = ports});

  // Full LSDB by hand, as warm start builds it.
  std::vector<std::unique_ptr<routing::Ospf>> instances;
  for (auto* sw : topo.all_switches()) {
    auto inst = std::make_unique<routing::Ospf>(*sw);
    if (auto it = topo.subnet_of_tor.find(sw);
        it != topo.subnet_of_tor.end()) {
      inst->redistribute(it->second);
    }
    instances.push_back(std::move(inst));
  }
  routing::Lsdb lsdb;
  std::unordered_map<net::Ipv4Addr, routing::LsaPtr> base;
  for (auto& inst : instances) {
    auto lsa = inst->make_self_lsa();
    base[lsa->origin] = lsa;
    lsdb.consider(lsa);
  }

  net::L3Switch* self_sw = topo.aggs.front();
  const net::Ipv4Addr self = self_sw->router_id();
  std::vector<routing::LocalAdjacency> adjacency;
  for (net::PortId p = 0; p < self_sw->port_count(); ++p) {
    const auto& info = self_sw->port(p);
    if (info.peer_is_switch) adjacency.push_back({p, info.peer_addr});
  }

  // The failing link: the last pod's last ToR and its first uplink —
  // maximally remote from the computing aggregation switch in pod 0.
  net::L3Switch* tor_sw = topo.tors.back();
  const net::Ipv4Addr tor = tor_sw->router_id();
  net::Ipv4Addr agg;
  for (net::PortId p = 0; p < tor_sw->port_count(); ++p) {
    const auto& info = tor_sw->port(p);
    if (info.peer_is_switch) {
      agg = info.peer_addr;
      break;
    }
  }

  const routing::Lsa& tor_base = *base.at(tor);
  const routing::Lsa& agg_base = *base.at(agg);
  std::uint64_t seq = 2;

  CaseResult out;
  out.switches = topo.all_switches().size();

  // --- Full recompute timing -------------------------------------------
  // A reset solver runs full Dijkstra on every call.
  routing::SpfSolver full;
  double full_ns = 0;
  std::size_t sink = 0;
  for (int i = 0; i < iterations; ++i) {
    lsdb.consider(reissue(tor_base, agg, seq++));
    lsdb.consider(reissue(agg_base, tor, seq++));
    full.reset();
    auto t0 = Clock::now();
    auto routes = full.run(lsdb, self, adjacency);
    auto t1 = Clock::now();
    full_ns += ns_between(t0, t1);
    sink += routes.size();
    lsdb.consider(reissue(tor_base, {}, seq++));
    lsdb.consider(reissue(agg_base, {}, seq++));
    full.reset();
    t0 = Clock::now();
    routes = full.run(lsdb, self, adjacency);
    t1 = Clock::now();
    full_ns += ns_between(t0, t1);
    sink += routes.size();
  }
  out.full_ns_per_run = full_ns / (2.0 * iterations);

  // --- Incremental solver timing ---------------------------------------
  routing::SpfSolver solver;
  out.routes = solver.run(lsdb, self, adjacency).size();  // prime: full run
  bool all_incremental = true;
  double inc_ns = 0;
  for (int i = 0; i < iterations; ++i) {
    lsdb.consider(reissue(tor_base, agg, seq++));
    lsdb.consider(reissue(agg_base, tor, seq++));
    auto t0 = Clock::now();
    auto routes = solver.run(lsdb, self, adjacency);
    auto t1 = Clock::now();
    inc_ns += ns_between(t0, t1);
    all_incremental = all_incremental && solver.last_run_incremental();
    sink += routes.size();
    lsdb.consider(reissue(tor_base, {}, seq++));
    lsdb.consider(reissue(agg_base, {}, seq++));
    t0 = Clock::now();
    routes = solver.run(lsdb, self, adjacency);
    t1 = Clock::now();
    inc_ns += ns_between(t0, t1);
    all_incremental = all_incremental && solver.last_run_incremental();
    sink += routes.size();
  }
  out.incremental_ns_per_run = inc_ns / (2.0 * iterations);
  out.all_incremental = all_incremental;
  if (sink == 0) std::cerr << "bench_spf: empty route sets\n";

  // --- Equivalence sanity + FIB install delta sizes --------------------
  full.reset();
  out.equivalent = canonical(solver.run(lsdb, self, adjacency)) ==
                   canonical(full.run(lsdb, self, adjacency));
  routing::Fib fib;
  fib.apply_source_delta(routing::RouteSource::kOspf,
                         solver.run(lsdb, self, adjacency));
  lsdb.consider(reissue(tor_base, agg, seq++));
  lsdb.consider(reissue(agg_base, tor, seq++));
  out.delta_down = fib.apply_source_delta(routing::RouteSource::kOspf,
                                          solver.run(lsdb, self, adjacency));
  lsdb.consider(reissue(tor_base, {}, seq++));
  lsdb.consider(reissue(agg_base, {}, seq++));
  out.delta_up = fib.apply_source_delta(routing::RouteSource::kOspf,
                                        solver.run(lsdb, self, adjacency));
  return out;
}

struct ControllerResult {
  double compute_ms = 0;     ///< CentralController::converge, converged bed
  double kernel_ms = 0;      ///< DestinationSpf + routes_for, all switches
  double per_source_ms = 0;  ///< full SpfSolver run for every switch
  std::size_t routes = 0;    ///< installed controller routes, all switches
  std::size_t switches = 0;
  bool equivalent = false;
};

ControllerResult run_controller_case(int ports, int iterations) {
  core::TestbedConfig config;
  config.control_plane = core::ControlPlane::kCentral;
  core::Testbed bed(core::topology_builder("fat", ports), config);
  bed.converge();
  const std::vector<net::L3Switch*> switches = bed.topo().all_switches();

  ControllerResult out;
  out.switches = switches.size();
  double compute_ns = 0;
  for (int i = 0; i < iterations; ++i) {
    const auto t0 = Clock::now();
    bed.controller().converge();
    compute_ns += ns_between(t0, Clock::now());
  }
  out.compute_ms = compute_ns / iterations / 1e6;
  for (const net::L3Switch* sw : switches) {
    for (const routing::Route& r : sw->fib().dump()) {
      if (r.source == routing::RouteSource::kOspf) ++out.routes;
    }
  }

  // The controller's view, rebuilt the same way: one LSA per switch
  // listing its detected-up switch neighbors at cost 1, plus rack prefixes.
  routing::Lsdb view;
  std::vector<std::vector<routing::LocalAdjacency>> adjacency;
  for (net::L3Switch* sw : switches) {
    auto lsa = std::make_shared<routing::Lsa>();
    lsa->origin = sw->router_id();
    lsa->sequence = 1;
    auto& adj = adjacency.emplace_back();
    for (net::PortId p = 0; p < sw->port_count(); ++p) {
      const auto& info = sw->port(p);
      if (!info.peer_is_switch || !sw->port_detected_up(p)) continue;
      adj.push_back({p, info.peer_addr});
      const routing::LsaLink link{info.peer_addr, 1};
      if (std::find(lsa->links.begin(), lsa->links.end(), link) ==
          lsa->links.end()) {
        lsa->links.push_back(link);
      }
    }
    if (const auto it = bed.topo().subnet_of_tor.find(sw);
        it != bed.topo().subnet_of_tor.end()) {
      lsa->prefixes.push_back(it->second);
    }
    view.consider(std::move(lsa));
  }

  std::vector<std::vector<routing::Route>> kernel_routes(switches.size());
  double kernel_ns = 0;
  for (int i = 0; i < iterations; ++i) {
    const auto t0 = Clock::now();
    const routing::DestinationSpf spf(view);
    for (std::size_t s = 0; s < switches.size(); ++s) {
      kernel_routes[s] = spf.routes_for(switches[s]->router_id(), adjacency[s]);
    }
    kernel_ns += ns_between(t0, Clock::now());
  }
  out.kernel_ms = kernel_ns / iterations / 1e6;

  out.equivalent = true;
  routing::SpfSolver full;
  double per_source_ns = 0;
  for (int i = 0; i < iterations; ++i) {
    for (std::size_t s = 0; s < switches.size(); ++s) {
      full.reset();
      const auto t0 = Clock::now();
      auto routes = full.run(view, switches[s]->router_id(), adjacency[s]);
      per_source_ns += ns_between(t0, Clock::now());
      out.equivalent = out.equivalent && routes == kernel_routes[s];
    }
  }
  out.per_source_ms = per_source_ns / iterations / 1e6;
  return out;
}

}  // namespace

int main() {
  const struct {
    int ports;
    int iterations;
  } cases[] = {{8, 200}, {16, 50}, {20, 20}};

  std::vector<bench::BenchResult> results;
  bool ok = true;
  std::cout << "single-link-failure reconvergence SPF, fat tree\n"
            << "  k   switches  routes  full ns/run  incr ns/run  speedup"
            << "  delta(down/up)\n";
  for (const auto& c : cases) {
    const CaseResult r = run_case(c.ports, c.iterations);
    const double speedup =
        r.incremental_ns_per_run > 0
            ? r.full_ns_per_run / r.incremental_ns_per_run
            : 0;
    std::cout << "  " << c.ports << "  " << r.switches << "  " << r.routes
              << "  " << r.full_ns_per_run << "  " << r.incremental_ns_per_run
              << "  " << speedup << "x  " << r.delta_down << "/" << r.delta_up
              << (r.equivalent ? "" : "  [MISMATCH]")
              << (r.all_incremental ? "" : "  [FELL BACK TO FULL]") << "\n";
    ok = ok && r.equivalent && r.all_incremental;
    const std::string k = "/" + std::to_string(c.ports);
    results.push_back({"SpfFullLinkFailure" + k, "real_time",
                       r.full_ns_per_run, "ns"});
    results.push_back({"SpfIncrementalLinkFailure" + k, "real_time",
                       r.incremental_ns_per_run, "ns"});
    results.push_back({"SpfIncremental_speedup" + k, "speedup", speedup, "x"});
    results.push_back({"SpfFibDeltaDown" + k, "size",
                       static_cast<double>(r.delta_down), "entries"});
    results.push_back({"SpfFibDeltaUp" + k, "size",
                       static_cast<double>(r.delta_up), "entries"});
    results.push_back({"SpfRoutes" + k, "size",
                       static_cast<double>(r.routes), "routes"});
  }

  const struct {
    int ports;
    int iterations;
  } controller_cases[] = {{8, 20}, {16, 5}, {32, 2}};
  std::cout << "\none full central-controller computation, fat tree\n"
            << "  k   switches  routes  compute ms  kernel ms"
            << "  per-source ms  kernel speedup\n";
  for (const auto& c : controller_cases) {
    const ControllerResult r = run_controller_case(c.ports, c.iterations);
    const double speedup =
        r.kernel_ms > 0 ? r.per_source_ms / r.kernel_ms : 0;
    std::cout << "  " << c.ports << "  " << r.switches << "  " << r.routes
              << "  " << r.compute_ms << "  " << r.kernel_ms << "  "
              << r.per_source_ms << "  " << speedup << "x"
              << (r.equivalent ? "" : "  [MISMATCH]") << "\n";
    ok = ok && r.equivalent;
    const std::string k = "/k=" + std::to_string(c.ports);
    results.push_back(
        {"ControllerCompute" + k, "real_time", r.compute_ms, "ms"});
    results.push_back({"ControllerRoutes" + k, "size",
                       static_cast<double>(r.routes), "routes"});
    results.push_back(
        {"ControllerKernel" + k, "real_time", r.kernel_ms, "ms"});
    results.push_back(
        {"ControllerPerSourceSpf" + k, "real_time", r.per_source_ms, "ms"});
    results.push_back(
        {"ControllerKernel_speedup" + k, "speedup", speedup, "x"});
  }
  results.push_back(
      {"hardware_threads", "hardware_threads",
       static_cast<double>(std::thread::hardware_concurrency()), "threads"});

  if (!ok) {
    std::cerr << "bench_spf: a fast path diverged from a full SPF run or "
                 "the solver fell back\n";
    return 1;
  }
  if (!bench::write_bench_json("spf", results)) {
    std::cerr << "bench_spf: failed to write BENCH_spf.json\n";
    return 1;
  }
  std::cout << "wrote BENCH_spf.json (" << results.size() << " results)\n";
  return 0;
}
