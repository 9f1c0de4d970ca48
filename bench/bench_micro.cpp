/// Substrate micro-benchmarks (google-benchmark): FIB longest-prefix
/// match (legacy allocating API, allocation-free lookup_into, and the
/// cached resolved-route fast path), ECMP hashing, SPF computation and
/// its first-hop set representation, event-queue throughput and topology
/// construction. These back the claim that the simulator is a
/// packet-level engine fast enough for the paper's 600 s emulations.
///
/// Unlike the figure/table benches this binary has a custom main: it runs
/// the registered benchmarks through a collecting reporter, derives the
/// fast-path speedup ratios, and writes BENCH_micro.json (see
/// bench_util.hpp) so the perf trajectory is tracked across PRs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <functional>
#include <iostream>
#include <queue>
#include <set>
#include <unordered_map>

#include "bench_util.hpp"
#include "core/f2tree.hpp"
#include "routing/ecmp.hpp"
#include "routing/route_cache.hpp"
#include "sim/event_queue.hpp"

using namespace f2t;

namespace {

/// Faithful replica of the seed's Fib lookup path (pre fast-path): probes
/// all 33 prefix lengths longest-first, rescans each slot for the best
/// source, takes a std::function liveness predicate and heap-allocates the
/// result. Kept here so BENCH_micro.json records the speedup against the
/// true baseline even though the library has moved on.
class SeedFib {
 public:
  using PortUpFn = std::function<bool(net::PortId)>;

  void install(routing::Route route) {
    std::sort(route.next_hops.begin(), route.next_hops.end());
    Slot& slot = by_length_[static_cast<std::size_t>(route.prefix.length())]
                           [route.prefix.address().value()];
    for (routing::Route& r : slot.by_source) {
      if (r.source == route.source) {
        r = std::move(route);
        return;
      }
    }
    slot.by_source.push_back(std::move(route));
  }

  std::vector<routing::NextHop> lookup(net::Ipv4Addr dst,
                                       const PortUpFn& port_up) const {
    for (int length = 32; length >= 0; --length) {
      const auto& bucket = by_length_[static_cast<std::size_t>(length)];
      if (bucket.empty()) continue;
      const std::uint32_t mask =
          length == 0 ? 0u : (~std::uint32_t{0} << (32 - length));
      const auto it = bucket.find(dst.value() & mask);
      if (it == bucket.end()) continue;
      const routing::Route* best = nullptr;
      for (const routing::Route& r : it->second.by_source) {
        if (best == nullptr ||
            static_cast<int>(r.source) < static_cast<int>(best->source)) {
          best = &r;
        }
      }
      if (best == nullptr) continue;
      std::vector<routing::NextHop> usable;
      usable.reserve(best->next_hops.size());
      for (const routing::NextHop& nh : best->next_hops) {
        if (!port_up || port_up(nh.port)) usable.push_back(nh);
      }
      if (!usable.empty()) return usable;
    }
    return {};
  }

 private:
  struct Slot {
    std::vector<routing::Route> by_source;
  };
  std::array<std::unordered_map<std::uint32_t, Slot>, 33> by_length_;
};

template <typename FibLike>
FibLike make_bench_fib_like(int n) {
  FibLike fib;
  for (int i = 0; i < n; ++i) {
    fib.install(routing::Route{
        net::Prefix(net::Ipv4Addr(10, 11, static_cast<std::uint8_t>(i % 256),
                                  0),
                    24),
        {routing::NextHop{static_cast<net::PortId>(i % 8), {}}},
        routing::RouteSource::kOspf});
  }
  fib.install(routing::Route{net::Prefix::parse("10.11.0.0/16"),
                             {routing::NextHop{9, {}}},
                             routing::RouteSource::kStatic});
  return fib;
}

// The seed implementation, replicated above: the denominator every
// fast-path speedup in BENCH_micro.json is measured against.
void BM_FibLookupSeed(benchmark::State& state) {
  const auto fib = make_bench_fib_like<SeedFib>(static_cast<int>(state.range(0)));
  auto up = [](net::PortId) { return true; };
  std::uint32_t i = 0;
  for (auto _ : state) {
    const net::Ipv4Addr dst(10, 11, static_cast<std::uint8_t>(i++ % 256), 7);
    benchmark::DoNotOptimize(fib.lookup(dst, up));
  }
}
BENCHMARK(BM_FibLookupSeed)->Arg(32)->Arg(256);

routing::Fib make_bench_fib(int n) {
  return make_bench_fib_like<routing::Fib>(n);
}

// The seed-era API: std::function predicate, heap-allocated result.
void BM_FibLookup(benchmark::State& state) {
  const routing::Fib fib = make_bench_fib(static_cast<int>(state.range(0)));
  auto up = [](net::PortId) { return true; };
  std::uint32_t i = 0;
  for (auto _ : state) {
    const net::Ipv4Addr dst(10, 11, static_cast<std::uint8_t>(i++ % 256), 7);
    benchmark::DoNotOptimize(fib.lookup(dst, up));
  }
}
BENCHMARK(BM_FibLookup)->Arg(32)->Arg(256);

// Allocation-free walk: bool-vector port view, SmallVec result reused
// across lookups.
void BM_FibLookupInto(benchmark::State& state) {
  const routing::Fib fib = make_bench_fib(static_cast<int>(state.range(0)));
  const std::vector<bool> ports(16, true);
  const routing::Fib::PortStateView view{&ports};
  routing::Fib::HopVec hops;
  std::uint32_t i = 0;
  for (auto _ : state) {
    const net::Ipv4Addr dst(10, 11, static_cast<std::uint8_t>(i++ % 256), 7);
    hops.clear();
    fib.lookup_into(dst, view, hops);
    benchmark::DoNotOptimize(hops.data());
  }
}
BENCHMARK(BM_FibLookupInto)->Arg(32)->Arg(256);

// The forwarding fast path proper: resolved-route cache in front of the
// allocation-free walk; steady state is all hits.
void BM_FibLookupResolved(benchmark::State& state) {
  const routing::Fib fib = make_bench_fib(static_cast<int>(state.range(0)));
  const std::vector<bool> ports(16, true);
  const routing::Fib::PortStateView view{&ports};
  routing::ResolvedRouteCache cache;
  std::uint32_t i = 0;
  for (auto _ : state) {
    const net::Ipv4Addr dst(10, 11, static_cast<std::uint8_t>(i++ % 256), 7);
    benchmark::DoNotOptimize(cache.resolve(fib, dst, view, 0).data());
  }
}
BENCHMARK(BM_FibLookupResolved)->Arg(32)->Arg(256);

// Worst case for the cache: every lookup happens under a fresh port
// epoch (as right after a detection event), so every resolve misses and
// re-walks. Measures the cache's overhead over the bare walk.
void BM_FibLookupResolvedInvalidated(benchmark::State& state) {
  const routing::Fib fib = make_bench_fib(static_cast<int>(state.range(0)));
  const std::vector<bool> ports(16, true);
  const routing::Fib::PortStateView view{&ports};
  routing::ResolvedRouteCache cache;
  std::uint64_t epoch = 0;
  std::uint32_t i = 0;
  for (auto _ : state) {
    const net::Ipv4Addr dst(10, 11, static_cast<std::uint8_t>(i++ % 256), 7);
    benchmark::DoNotOptimize(cache.resolve(fib, dst, view, ++epoch).data());
  }
}
BENCHMARK(BM_FibLookupResolvedInvalidated)->Arg(256);

void BM_FibLookupFallthrough(benchmark::State& state) {
  // The fast-reroute path: the /24 is dead, lookup falls to the statics.
  routing::Fib fib;
  fib.install(routing::Route{net::Prefix::parse("10.11.3.0/24"),
                             {routing::NextHop{0, {}}},
                             routing::RouteSource::kOspf});
  fib.install(routing::Route{net::Prefix::parse("10.11.0.0/16"),
                             {routing::NextHop{1, {}}},
                             routing::RouteSource::kStatic});
  fib.install(routing::Route{net::Prefix::parse("10.10.0.0/15"),
                             {routing::NextHop{2, {}}},
                             routing::RouteSource::kStatic});
  auto up = [](net::PortId p) { return p != 0; };
  for (auto _ : state) {
    benchmark::DoNotOptimize(fib.lookup(net::Ipv4Addr(10, 11, 3, 9), up));
  }
}
BENCHMARK(BM_FibLookupFallthrough);

// Same fall-through resolved through the cache: after the first miss the
// backup answer is served from the cache (port state is unchanged, so the
// stamp stays valid — exactly the steady state between detection and the
// control plane's eventual FIB rewrite).
void BM_FibLookupFallthroughResolved(benchmark::State& state) {
  routing::Fib fib;
  fib.install(routing::Route{net::Prefix::parse("10.11.3.0/24"),
                             {routing::NextHop{0, {}}},
                             routing::RouteSource::kOspf});
  fib.install(routing::Route{net::Prefix::parse("10.11.0.0/16"),
                             {routing::NextHop{1, {}}},
                             routing::RouteSource::kStatic});
  fib.install(routing::Route{net::Prefix::parse("10.10.0.0/15"),
                             {routing::NextHop{2, {}}},
                             routing::RouteSource::kStatic});
  std::vector<bool> ports(16, true);
  ports[0] = false;
  const routing::Fib::PortStateView view{&ports};
  routing::ResolvedRouteCache cache;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.resolve(fib, net::Ipv4Addr(10, 11, 3, 9), view, 1).data());
  }
}
BENCHMARK(BM_FibLookupFallthroughResolved);

/// Two-switch fixture for the L3Switch::forward fast path: a static route
/// steers everything out of the inter-switch port, whose egress direction
/// is physically down — transmit() then drops the packet inline without
/// scheduling events, so the loop isolates exactly
/// ttl-decrement + cached resolve + ECMP + tap dispatch + transmit.
struct ForwardBench {
  sim::Simulator sim{1};
  net::Network net{sim};
  net::L3Switch* sw = nullptr;

  ForwardBench() {
    sw = &net.add_switch("a", net::Ipv4Addr(10, 0, 0, 1));
    auto& peer = net.add_switch("b", net::Ipv4Addr(10, 0, 0, 2));
    auto& link = net.connect(*sw, peer);
    sw->fib().install(routing::Route{net::Prefix::parse("10.11.0.0/16"),
                                     {routing::NextHop{0, peer.router_id()}},
                                     routing::RouteSource::kStatic});
    link.set_direction_up(link.direction_from(*sw), false);
  }

  net::Packet packet() const {
    net::Packet p;
    p.src = net::Ipv4Addr(10, 0, 0, 9);
    p.dst = net::Ipv4Addr(10, 11, 3, 7);
    p.size_bytes = 1000;
    return p;
  }
};

// Observability disabled: no taps, no drop handler. The zero-overhead
// claim of the obs layer is this number staying flat across PRs.
void BM_SwitchForward(benchmark::State& state) {
  ForwardBench bench;
  const net::Packet proto = bench.packet();
  for (auto _ : state) {
    net::Packet p = proto;  // fresh ttl each iteration
    benchmark::DoNotOptimize(bench.sw->forward(std::move(p)));
  }
}
BENCHMARK(BM_SwitchForward);

// Same path with one forwarding tap attached (what a packet tracer or the
// event journal costs per packet, excluding their own recording work).
void BM_SwitchForwardTapped(benchmark::State& state) {
  ForwardBench bench;
  std::uint64_t seen = 0;
  bench.sw->add_forward_tap(
      [&seen](const net::Packet&, net::PortId, net::PortId) { ++seen; });
  const net::Packet proto = bench.packet();
  for (auto _ : state) {
    net::Packet p = proto;
    benchmark::DoNotOptimize(bench.sw->forward(std::move(p)));
  }
  benchmark::DoNotOptimize(seen);
}
BENCHMARK(BM_SwitchForwardTapped);

void BM_EcmpHash(benchmark::State& state) {
  net::Packet p;
  p.src = net::Ipv4Addr(10, 11, 0, 10);
  p.dst = net::Ipv4Addr(10, 11, 9, 10);
  std::uint16_t sport = 0;
  for (auto _ : state) {
    p.sport = ++sport;
    benchmark::DoNotOptimize(routing::ecmp_select(p, 42, 4));
  }
}
BENCHMARK(BM_EcmpHash);

void BM_Spf(benchmark::State& state) {
  const int ports = static_cast<int>(state.range(0));
  sim::Simulator sim(1);
  net::Network net(sim);
  const auto topo =
      topo::build_fat_tree(net, topo::FatTreeOptions{.ports = ports});
  // Build the full LSDB by hand (what warm start does).
  std::vector<std::unique_ptr<routing::Ospf>> instances;
  for (auto* sw : topo.all_switches()) {
    auto inst = std::make_unique<routing::Ospf>(*sw);
    if (auto it = topo.subnet_of_tor.find(sw); it != topo.subnet_of_tor.end()) {
      inst->redistribute(it->second);
    }
    instances.push_back(std::move(inst));
  }
  routing::Lsdb lsdb;
  for (auto& inst : instances) lsdb.consider(inst->make_self_lsa());
  // Compute at one core switch.
  auto* sw = topo.cores.front();
  std::vector<routing::LocalAdjacency> adj;
  for (net::PortId p = 0; p < sw->port_count(); ++p) {
    adj.push_back({p, sw->port(p).peer_addr});
  }
  // A reset solver runs full Dijkstra; without the reset every iteration
  // after the first would be an incremental no-op.
  routing::SpfSolver solver;
  for (auto _ : state) {
    solver.reset();
    benchmark::DoNotOptimize(solver.run(lsdb, sw->router_id(), adj));
  }
}
BENCHMARK(BM_Spf)->Arg(8)->Arg(16);

// First-hop set representations head to head: the union/insert pattern
// Dijkstra's relaxation performs, on the seed's std::set<Ipv4Addr> vs the
// inline sorted vector SpfSolver uses now. 8 ECMP members, 16 unions —
// roughly one destination's worth of relaxations in a k=16 fat tree.
void BM_SpfFirstHopsStdSet(benchmark::State& state) {
  for (auto _ : state) {
    std::set<net::Ipv4Addr> acc;
    std::set<net::Ipv4Addr> member;
    for (std::uint32_t i = 0; i < 8; ++i) member.insert(net::Ipv4Addr(i * 7));
    for (int round = 0; round < 16; ++round) {
      acc.insert(member.begin(), member.end());
    }
    benchmark::DoNotOptimize(acc.size());
  }
}
BENCHMARK(BM_SpfFirstHopsStdSet);

void BM_SpfFirstHopsSmallVec(benchmark::State& state) {
  for (auto _ : state) {
    routing::SmallVec<std::uint16_t, 8> acc;
    routing::SmallVec<std::uint16_t, 8> member;
    for (std::uint16_t i = 0; i < 8; ++i) member.push_back(i);
    for (int round = 0; round < 16; ++round) {
      for (const std::uint16_t x : member) {
        const auto it = std::lower_bound(acc.begin(), acc.end(), x);
        if (it != acc.end() && *it == x) continue;
        const auto pos = static_cast<std::size_t>(it - acc.begin());
        acc.push_back(x);
        std::rotate(acc.begin() + pos, acc.end() - 1, acc.end());
      }
    }
    benchmark::DoNotOptimize(acc.size());
  }
}
BENCHMARK(BM_SpfFirstHopsSmallVec);

void BM_SchedulerChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      sched.schedule_at(i * 10, [&fired] { ++fired; });
    }
    sched.run();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_SchedulerChurn);

// The one-shot-timer pattern everywhere in the transport layer: schedule,
// maybe fire, cancel late. Exercises the in-heap id tracking that makes a
// late cancel a true no-op.
void BM_SchedulerCancelChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    std::vector<sim::EventId> ids;
    ids.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(sched.schedule_at(i * 10, [] {}));
    }
    for (int i = 0; i < 1000; i += 2) sched.cancel(ids[i]);
    sched.run();
    for (const auto id : ids) sched.cancel(id);  // all late: true no-ops
    benchmark::DoNotOptimize(sched.cancelled_backlog());
  }
}
BENCHMARK(BM_SchedulerCancelChurn);

// Raw key-queue schedule/pop, calendar vs the retired binary heap (a
// std::priority_queue over the same key), under the hold model (pop one,
// push one at a later time) that dominates a discrete-event run. The
// comparison is honest in both directions: the flat heap's
// cache locality wins at small populations (~1.3x at 16k keys), the
// calendar's O(1) hold wins once the heap's log-depth outgrows the
// cache (crossover between 16k and 262k on this box) — the event
// populations the widened address plan's big fabrics generate.
using BinaryHeap = std::priority_queue<sim::EventKey,
                                       std::vector<sim::EventKey>,
                                       std::greater<>>;

sim::EventKey pop_min(BinaryHeap& q) {
  const sim::EventKey k = q.top();
  q.pop();
  return k;
}
sim::EventKey pop_min(sim::CalendarQueue& q) { return q.pop(); }

template <typename Queue>
void key_queue_hold(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Queue q;
    sim::EventId id = 1;
    // Seed a steady-state population with CBR-like spacing plus jitter.
    std::uint64_t salt = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < n; ++i) {
      salt ^= salt << 13; salt ^= salt >> 7; salt ^= salt << 17;
      q.push({static_cast<sim::Time>(i) * 1000 +
                  static_cast<sim::Time>(salt % 997),
              id++});
    }
    for (int i = 0; i < 4 * n; ++i) {
      const sim::EventKey k = pop_min(q);
      salt ^= salt << 13; salt ^= salt >> 7; salt ^= salt << 17;
      q.push({k.at + 1000 + static_cast<sim::Time>(salt % 997), id++});
    }
    benchmark::DoNotOptimize(q.size());
  }
}

void BM_BinaryHeapQueueHold(benchmark::State& state) {
  key_queue_hold<BinaryHeap>(state);
}
BENCHMARK(BM_BinaryHeapQueueHold)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_CalendarQueueHold(benchmark::State& state) {
  key_queue_hold<sim::CalendarQueue>(state);
}
BENCHMARK(BM_CalendarQueueHold)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_BuildTopology(benchmark::State& state) {
  const int ports = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim(1);
    net::Network net(sim);
    benchmark::DoNotOptimize(topo::build_f2tree(net, ports));
  }
}
BENCHMARK(BM_BuildTopology)->Arg(8)->Arg(16);

void BM_EndToEndUdpSecond(benchmark::State& state) {
  // One simulated second of the paper's CBR probe through an 8-port
  // F²Tree: the unit of work behind every recovery experiment.
  for (auto _ : state) {
    core::Testbed bed(
        [](net::Network& n) { return topo::build_f2tree(n, 8); });
    bed.converge();
    auto& topo = bed.topo();
    transport::UdpSink sink(bed.stack_of(*topo.hosts.back()), 9000);
    transport::UdpCbrSender::Options so;
    so.stop = sim::seconds(1);
    transport::UdpCbrSender sender(bed.stack_of(*topo.hosts.front()),
                                   topo.hosts.back()->addr(), so);
    sender.start();
    bed.sim().run(sim::seconds(1));
    benchmark::DoNotOptimize(sink.packets_received());
  }
}
BENCHMARK(BM_EndToEndUdpSecond)->Unit(benchmark::kMillisecond);

/// Console output as usual, plus every run captured as a BenchResult.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      results.push_back(f2t::bench::BenchResult{
          run.benchmark_name(), "real_time", run.GetAdjustedRealTime(),
          benchmark::GetTimeUnitString(run.time_unit)});
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<f2t::bench::BenchResult> results;
};

double find_time(const std::vector<f2t::bench::BenchResult>& results,
                 const std::string& name) {
  for (const auto& r : results) {
    if (r.name == name && r.metric == "real_time") return r.value;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  auto results = reporter.results;
  // Derived fast-path ratios (only when both sides ran, e.g. not under a
  // --benchmark_filter that excludes them).
  const struct {
    const char* name;
    const char* numer;
    const char* denom;
  } ratios[] = {
      {"FibLookupResolved_speedup/256", "BM_FibLookupSeed/256",
       "BM_FibLookupResolved/256"},
      {"FibLookupInto_speedup/256", "BM_FibLookupSeed/256",
       "BM_FibLookupInto/256"},
      {"FibLookupResolved_vs_current_legacy/256", "BM_FibLookup/256",
       "BM_FibLookupResolved/256"},
      {"SpfFirstHopsSmallVec_speedup", "BM_SpfFirstHopsStdSet",
       "BM_SpfFirstHopsSmallVec"},
      {"CalendarQueue_speedup/16384", "BM_BinaryHeapQueueHold/16384",
       "BM_CalendarQueueHold/16384"},
      {"CalendarQueue_speedup/262144", "BM_BinaryHeapQueueHold/262144",
       "BM_CalendarQueueHold/262144"},
  };
  for (const auto& ratio : ratios) {
    const double numer = find_time(results, ratio.numer);
    const double denom = find_time(results, ratio.denom);
    if (numer > 0 && denom > 0) {
      results.push_back(
          f2t::bench::BenchResult{ratio.name, "speedup", numer / denom, "x"});
    }
  }

  if (!f2t::bench::write_bench_json("micro", results)) {
    std::cerr << "bench_micro: failed to write BENCH_micro.json\n";
    return 1;
  }
  std::cout << "wrote BENCH_micro.json (" << results.size() << " results)\n";
  return 0;
}
