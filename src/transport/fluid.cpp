#include "transport/fluid.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/l3switch.hpp"
#include "routing/ecmp.hpp"

namespace f2t::transport {

namespace {

std::uint32_t channel_key(const net::Link& link, net::Link::Direction d) {
  return link.id() * 2u + (d == net::Link::Direction::kAToB ? 0u : 1u);
}

}  // namespace

FluidProbe::FluidProbe(net::Network& network, const net::Host& src,
                       const net::Host& dst, const Options& options)
    : network_(network),
      sim_(network.simulator()),
      src_(src),
      dst_(dst),
      options_(options) {
  if (options_.stop == sim::kNever) {
    throw std::invalid_argument("FluidProbe: stop must be finite");
  }
  if (options_.interval <= 0) {
    throw std::invalid_argument("FluidProbe: interval must be positive");
  }
  if (src_.port_count() == 0) {
    throw std::invalid_argument("FluidProbe: source host has no uplink");
  }
  probe_.src = src_.addr();
  probe_.dst = dst_.addr();
  probe_.proto = net::Protocol::kUdp;
  probe_.sport = options_.sport;
  probe_.dport = options_.dport;
  wire_bytes_ = options_.payload_bytes + net::kUdpHeaderBytes;
  total_sends_ =
      options_.stop <= options_.start
          ? 0
          : static_cast<std::uint64_t>(options_.stop - options_.start +
                                       options_.interval - 1) /
                static_cast<std::uint64_t>(options_.interval);

  attach_hooks();
  retrace_regime();
}

FluidProbe::~FluidProbe() = default;

void FluidProbe::attach_hooks() {
  channel_log_.assign(2 * network_.link_count(), {});
  channel_init_up_.assign(2 * network_.link_count(), 1);
  for (net::Link* link : network_.links()) {
    using Dir = net::Link::Direction;
    channel_init_up_[channel_key(*link, Dir::kAToB)] =
        link->direction_up(Dir::kAToB) ? 1 : 0;
    channel_init_up_[channel_key(*link, Dir::kBToA)] =
        link->direction_up(Dir::kBToA) ? 1 : 0;
    link->add_channel_observer([this](net::Link& l, Dir d, bool up) {
      // Physical transitions are invisible to forwarding (paths depend on
      // FIBs + detected ports only), so they never trigger a re-trace —
      // they only extend the availability log the horizon evaluation
      // reads.
      channel_log_[channel_key(l, d)].push_back({sim_.now(), up});
      ++stats_.transitions;
    });
  }
  for (net::L3Switch* sw : network_.switches()) {
    sw->fib().add_change_hook([this] { mark_routing_dirty(); });
    sw->add_port_state_handler(
        [this](net::PortId, bool) { mark_routing_dirty(); });
  }
}

void FluidProbe::mark_routing_dirty() {
  if (routing_dirty_) return;
  routing_dirty_ = true;
  // Coalesce: one processor run per burst of same-timestamp mutations.
  // Scheduling with zero delay orders the run after every routing event
  // already queued at this timestamp (their ids are older), which gives
  // sends at later times the end-of-timestamp state — exactly what the
  // packet engine's event ordering yields, since control events are
  // scheduled ms ahead and therefore outrank µs-scale data events of equal
  // timestamp. A mutation arriving *after* this run at the same timestamp
  // re-arms the flag and triggers another (self-correcting) run.
  sim_.after(0, [this] { process_change(); });
}

sim::Time FluidProbe::send_time(std::uint64_t k) const {
  return options_.start + static_cast<sim::Time>(k) * options_.interval;
}

std::uint64_t FluidProbe::first_k_at_or_after(sim::Time t) const {
  if (t <= options_.start) return 0;
  const sim::Time delta = t - options_.start;
  const auto k = static_cast<std::uint64_t>(
      (delta + options_.interval - 1) / options_.interval);
  return std::min(k, total_sends_);
}

sim::Time FluidProbe::hop_flight(const net::Link& link) const {
  const double bits = static_cast<double>(wire_bytes_) * 8.0;
  return sim::from_seconds(bits / link.params().bandwidth_bps) +
         link.params().propagation_delay;
}

FluidProbe::Terminal FluidProbe::trace_from(const net::Node* node,
                                            sim::Time at, int ttl,
                                            std::vector<Hop>& hops) {
  ++stats_.retraces;
  const net::Node* current = node;
  for (;;) {
    if (current == &dst_) return Terminal::kDelivered;
    const auto* sw = dynamic_cast<const net::L3Switch*>(current);
    if (sw == nullptr) return Terminal::kWrongHost;
    if (sw->router_id() == probe_.dst) return Terminal::kConsumed;
    // L3Switch::forward drops when the arriving TTL is <= 1.
    if (ttl <= 1) {
      ++stats_.loop_traces;
      return Terminal::kTtlExpired;
    }
    --ttl;
    const auto& next_hops = sw->resolve_next_hops(probe_.dst);
    if (next_hops.empty()) return Terminal::kNoRoute;
    const std::size_t pick = routing::ecmp_select(
        probe_, static_cast<std::uint64_t>(sw->id()), next_hops.size());
    net::Link* link = sw->port(next_hops[pick].port).link;
    const net::Link::End& to = link->peer_of(*sw);
    const sim::Time flight = hop_flight(*link);
    hops.push_back(Hop{channel_key(*link, link->direction_from(*sw)), at,
                       flight, to.node->id(),
                       static_cast<std::int16_t>(ttl)});
    at += flight;
    current = to.node;
  }
}

FluidProbe::Terminal FluidProbe::trace_path(sim::Time base,
                                            std::vector<Hop>& hops) {
  hops.clear();
  net::Link* uplink = src_.port(0).link;
  const net::Link::End& to = uplink->peer_of(src_);
  const sim::Time flight = hop_flight(*uplink);
  // Hosts neither route nor decrement TTL; the stack stamps 64.
  hops.push_back(Hop{channel_key(*uplink, uplink->direction_from(src_)),
                     base, flight, to.node->id(), 64});
  return trace_from(to.node, base + flight, 64, hops);
}

void FluidProbe::retrace_regime() {
  regime_terminal_ = trace_path(0, regime_hops_);
}

sim::Time FluidProbe::regime_decision_offset() const {
  // Forwarding decisions happen at hop enqueue times; a dropped or
  // consumed packet's final decision happens on arrival at the dropping
  // node, one flight later.
  const Hop& last = regime_hops_.back();
  return regime_terminal_ == Terminal::kDelivered ? last.enqueue
                                                  : last.enqueue + last.flight;
}

void FluidProbe::partition_sends(sim::Time now) {
  const std::uint64_t k_sent = first_k_at_or_after(now);
  const std::uint64_t k_full = std::min(
      k_sent, first_k_at_or_after(now - regime_decision_offset()));
  if (k_full > next_k_) {
    Batch batch;
    batch.k_begin = next_k_;
    batch.k_end = k_full;
    batch.hops = regime_hops_;
    batch.terminal = regime_terminal_;
    batches_.push_back(std::move(batch));
    ++stats_.batches;
  }
  for (std::uint64_t k = std::max(next_k_, k_full); k < k_sent; ++k) {
    // Straddler: instantiate the regime path at this send's absolute
    // times; advance_pending will keep the already-decided prefix and
    // re-trace the rest under the new state. Arena-allocated: a recycled
    // slot's hop buffer keeps its capacity, so straddler churn does not
    // allocate in steady state.
    const auto h = pending_arena_.alloc();
    Pending& p = pending_arena_.get(h);
    p.k = k;
    p.hops.assign(regime_hops_.begin(), regime_hops_.end());
    for (Hop& hop : p.hops) hop.enqueue += send_time(k);
    p.final_count = 0;
    p.terminal = regime_terminal_;
    open_.push_back(pending_arena_, core::Arena<Pending>::index_of(h));
    ++stats_.straddlers;
  }
  next_k_ = std::max(next_k_, k_sent);
}

void FluidProbe::advance_pending(std::uint32_t pending_idx, sim::Time now) {
  Pending& p = pending_arena_.at_index(pending_idx);
  // Promote optimistic hops whose forwarding decision predates `now`;
  // they were traced under the regime that was live at their enqueue
  // time, so they are final.
  std::size_t keep = p.final_count;
  while (keep < p.hops.size() && p.hops[keep].enqueue < now) ++keep;
  const bool trace_intact = keep == p.hops.size();
  if (trace_intact) {
    const Hop& last = p.hops.back();
    const bool decided =
        p.terminal == Terminal::kDelivered  // no decision on host arrival
        || last.enqueue + last.flight < now;
    if (decided) {
      open_.erase(pending_arena_, pending_idx);
      resolved_.push_back(pending_arena_, pending_idx);
      return;
    }
  }
  p.hops.resize(keep);
  p.final_count = keep;
  const Hop& last = p.hops.back();
  p.terminal = trace_from(&network_.node(last.to),
                          last.enqueue + last.flight, last.ttl_at_to,
                          p.hops);
}

void FluidProbe::process_change() {
  routing_dirty_ = false;
  const sim::Time now = sim_.now();
  ++stats_.routing_changes;

  partition_sends(now);

  // Snapshot the open list first: advance_pending moves decided entries
  // onto resolved_ while we iterate.
  pending_scratch_.clear();
  for (auto i = open_.head(); i != core::kNilIndex;
       i = open_.next(pending_arena_, i)) {
    pending_scratch_.push_back(i);
  }
  for (const std::uint32_t i : pending_scratch_) advance_pending(i, now);

  retrace_regime();
}

double FluidProbe::probe_rate_bps() const {
  if (regime_terminal_ != Terminal::kDelivered) return 0.0;
  // CBR demand: one wire-sized datagram per interval.
  double rate = static_cast<double>(wire_bytes_) * 8.0 /
                sim::to_seconds(options_.interval);
  for (const Hop& hop : regime_hops_) {
    const net::Link& link = network_.link(hop.channel / 2);
    rate = std::min(rate, link.params().bandwidth_bps);
  }
  return rate;
}

bool FluidProbe::channel_clean(std::uint32_t channel) const {
  return channel_log_[channel].empty() && channel_init_up_[channel] != 0;
}

sim::Time FluidProbe::hop_drop_time(const Hop& hop, sim::Time enqueue) const {
  const auto& log = channel_log_[hop.channel];
  // State at enqueue: transitions stamped exactly at the enqueue time
  // count as applied (transition events outrank data events of equal
  // timestamp in the packet engine — they were scheduled earlier).
  const auto next = std::upper_bound(
      log.begin(), log.end(), enqueue,
      [](sim::Time t, const Transition& tr) { return t < tr.at; });
  const bool up = next == log.begin() ? channel_init_up_[hop.channel] != 0
                                      : std::prev(next)->up;
  if (!up) return enqueue;  // Link::transmit drops on a down channel
  // Any transition during (enqueue, enqueue + flight] kills the packet:
  // the channel epoch check at serialization end / delivery fails, and a
  // transition exactly at the delivery timestamp fires first for the same
  // event-ordering reason as above.
  const sim::Time delivered = enqueue + hop.flight;
  if (next == log.end() || next->at > delivered) return sim::kNever;
  const sim::Time serialized =
      delivered - network_.link(hop.channel / 2).params().propagation_delay;
  return next->at <= serialized ? serialized : delivered;
}

bool FluidProbe::send_delivered(const std::vector<Hop>& hops,
                                sim::Time base) const {
  for (const Hop& hop : hops) {
    if (channel_clean(hop.channel)) continue;
    if (hop_drop_time(hop, base + hop.enqueue) != sim::kNever) return false;
  }
  return true;
}

bool FluidProbe::find_loss(const std::vector<Hop>& hops, Terminal terminal,
                           sim::Time base, std::uint64_t k,
                           Loss& loss) const {
  loss.seq = k;
  for (const Hop& hop : hops) {
    if (channel_clean(hop.channel)) continue;
    const sim::Time dropped = hop_drop_time(hop, base + hop.enqueue);
    if (dropped == sim::kNever) continue;
    loss.at = dropped;
    loss.cause = LossCause::kChannelDown;
    loss.node = net::kInvalidNode;
    loss.link = hop.channel / 2;
    return true;
  }
  if (terminal != Terminal::kNoRoute && terminal != Terminal::kTtlExpired) {
    return false;
  }
  // L3Switch::forward drops on arrival at the switch that cannot forward.
  const Hop& last = hops.back();
  loss.at = base + last.enqueue + last.flight;
  loss.cause = terminal == Terminal::kNoRoute ? LossCause::kNoRoute
                                              : LossCause::kTtlExpired;
  loss.node = last.to;
  loss.link = net::kInvalidLink;
  return true;
}

std::vector<FluidProbe::Loss> FluidProbe::losses() const {
  std::vector<Loss> out;
  Loss loss;
  const auto clean = [this](const Hop& h) { return channel_clean(h.channel); };
  for (const Batch& batch : batches_) {
    if (batch.terminal == Terminal::kDelivered &&
        std::all_of(batch.hops.begin(), batch.hops.end(), clean)) {
      continue;
    }
    for (std::uint64_t k = batch.k_begin; k < batch.k_end; ++k) {
      if (find_loss(batch.hops, batch.terminal, send_time(k), k, loss)) {
        out.push_back(loss);
      }
    }
  }
  for (auto i = resolved_.head(); i != core::kNilIndex;
       i = resolved_.next(pending_arena_, i)) {
    const Pending& p = pending_arena_.at_index(i);
    if (find_loss(p.hops, p.terminal, 0, p.k, loss)) out.push_back(loss);
  }
  std::sort(out.begin(), out.end(), [](const Loss& a, const Loss& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  });
  return out;
}

void FluidProbe::emit_arrival(std::uint64_t k, sim::Time at) {
  arrivals_.push_back(UdpSink::Arrival{at, k, at - send_time(k)});
}

void FluidProbe::finalize() {
  if (finalized_) return;
  finalized_ = true;
  // Close the last regime: no further routing changes, so everything
  // outstanding is decided by the current path, and optimistic straddler
  // continuations stand.
  if (next_k_ < total_sends_) {
    Batch batch;
    batch.k_begin = next_k_;
    batch.k_end = total_sends_;
    batch.hops = regime_hops_;
    batch.terminal = regime_terminal_;
    batches_.push_back(std::move(batch));
    ++stats_.batches;
    next_k_ = total_sends_;
  }
  while (open_.head() != core::kNilIndex) {
    const std::uint32_t i = open_.head();
    open_.erase(pending_arena_, i);
    resolved_.push_back(pending_arena_, i);
  }

  for (const Batch& batch : batches_) {
    if (batch.terminal != Terminal::kDelivered) continue;
    const Hop& last = batch.hops.back();
    const sim::Time delay = last.enqueue + last.flight;
    bool all_clean = true;
    for (const Hop& hop : batch.hops) {
      if (!channel_clean(hop.channel)) {
        all_clean = false;
        break;
      }
    }
    for (std::uint64_t k = batch.k_begin; k < batch.k_end; ++k) {
      const sim::Time t = send_time(k);
      if (all_clean || send_delivered(batch.hops, t)) {
        emit_arrival(k, t + delay);
      }
    }
  }
  for (auto i = resolved_.head(); i != core::kNilIndex;
       i = resolved_.next(pending_arena_, i)) {
    const Pending& p = pending_arena_.at_index(i);
    if (p.terminal != Terminal::kDelivered) continue;
    if (!send_delivered(p.hops, 0)) continue;
    const Hop& last = p.hops.back();
    emit_arrival(p.k, last.enqueue + last.flight);
  }
  std::sort(arrivals_.begin(), arrivals_.end(),
            [](const UdpSink::Arrival& a, const UdpSink::Arrival& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.seq < b.seq;
            });
}

FluidFlowTable::FluidFlowTable(std::size_t channel_count,
                               double default_capacity_bps)
    : capacity_(channel_count, default_capacity_bps),
      members_(channel_count),
      stamp_(channel_count, 0),
      residual_(channel_count, 0.0),
      load_(channel_count, 0),
      channel_dirty_(channel_count, 0) {}

void FluidFlowTable::mark_channel_dirty(std::uint32_t channel) {
  if (channel_dirty_[channel]) return;
  channel_dirty_[channel] = 1;
  dirty_channels_.push_back(channel);
  dirty_ = true;
}

void FluidFlowTable::mark_path_dirty(const Flow& flow) {
  for (auto n = flow.first_node; n != core::kNilIndex;
       n = nodes_.at_index(n).next_in_path) {
    mark_channel_dirty(nodes_.at_index(n).channel);
  }
}

void FluidFlowTable::link_path(std::uint32_t flow_idx, Flow& flow,
                               const std::vector<std::uint32_t>& path) {
  std::uint32_t prev = core::kNilIndex;
  for (const std::uint32_t c : path) {
    const auto h = nodes_.alloc();
    const std::uint32_t idx = core::Arena<PathNode>::index_of(h);
    PathNode& node = nodes_.get(h);
    node.channel = c;
    node.flow = flow_idx;
    node.next_in_path = core::kNilIndex;
    if (prev == core::kNilIndex) {
      flow.first_node = idx;
    } else {
      nodes_.at_index(prev).next_in_path = idx;
    }
    prev = idx;
    members_[c].push_back(nodes_, idx);
  }
}

void FluidFlowTable::unlink_path(Flow& flow) {
  std::uint32_t n = flow.first_node;
  while (n != core::kNilIndex) {
    PathNode& node = nodes_.at_index(n);
    const std::uint32_t next = node.next_in_path;
    members_[node.channel].erase(nodes_, n);
    nodes_.release(nodes_.handle_of_index(n));
    n = next;
  }
  flow.first_node = core::kNilIndex;
}

bool FluidFlowTable::path_equals(
    const Flow& flow, const std::vector<std::uint32_t>& path) const {
  std::uint32_t n = flow.first_node;
  for (const std::uint32_t c : path) {
    if (n == core::kNilIndex) return false;
    const PathNode& node = nodes_.at_index(n);
    if (node.channel != c) return false;
    n = node.next_in_path;
  }
  return n == core::kNilIndex;
}

void FluidFlowTable::set_capacity(std::uint32_t channel, double bps) {
  if (bps <= 0) {
    throw std::invalid_argument("FluidFlowTable: capacity must be positive");
  }
  capacity_.at(channel) = bps;
  mark_channel_dirty(channel);
}

FluidFlowTable::FlowId FluidFlowTable::add_flow(
    std::vector<std::uint32_t> path, double demand_bps) {
  for (const std::uint32_t c : path) capacity_.at(c);  // bounds check
  const FlowId id = static_cast<FlowId>(flows_.alloc());
  Flow& flow = flows_.get(id);
  // Recycled slot: reset every field the previous tenant may have left.
  flow.first_node = core::kNilIndex;
  flow.demand = demand_bps;
  flow.rate = 0.0;
  flow.seen_epoch = 0;
  flow.frozen = false;
  link_path(core::Arena<Flow>::index_of(id), flow, path);
  mark_path_dirty(flow);
  return id;
}

void FluidFlowTable::remove_flow(FlowId id) {
  Flow* flow = flows_.try_get(id);
  if (flow == nullptr) return;  // stale handle: already removed
  mark_path_dirty(*flow);
  unlink_path(*flow);
  flows_.release(id);
}

void FluidFlowTable::set_path(FlowId id, std::vector<std::uint32_t> path) {
  for (const std::uint32_t c : path) capacity_.at(c);  // bounds check
  Flow& flow = flows_.get(id);
  if (path_equals(flow, path)) return;
  mark_path_dirty(flow);  // old channels lose this flow's share
  unlink_path(flow);
  link_path(core::Arena<Flow>::index_of(id), flow, path);
  mark_path_dirty(flow);
  if (path.empty()) flow.rate = 0.0;  // unrouted immediately
}

void FluidFlowTable::set_demand(FlowId id, double demand_bps) {
  Flow& flow = flows_.get(id);
  flow.demand = demand_bps;
  mark_path_dirty(flow);  // unrouted flows stay at rate 0: nothing to mark
}

double FluidFlowTable::rate_of(FlowId id) {
  if (dirty_) solve();
  const Flow* flow = flows_.try_get(id);
  return flow != nullptr ? flow->rate : 0.0;
}

void FluidFlowTable::touch_channel(std::uint32_t channel) {
  channel_dirty_[channel] = 0;  // absorbed into the current component
  if (stamp_[channel] == epoch_) return;
  stamp_[channel] = epoch_;
  residual_[channel] = capacity_[channel];
  load_[channel] = 0;
  channel_stack_.push_back(channel);
}

void FluidFlowTable::solve() {
  dirty_ = false;
  ++solves_;
  last_solve_flows_ = 0;
  last_solved_.clear();

  // Each dirty channel seeds one connected component; seeds absorbed into
  // an earlier component's BFS (their dirty flag cleared by
  // touch_channel) are skipped. Solving per component matters: a batch of
  // mutations spanning k disjoint components (mass add, multi-link
  // failure) costs sum(comp_i^2) worst-case instead of (sum comp_i)^2 —
  // one merged progressive filling would interleave every component's
  // freeze levels into a single global increment sequence.
  for (const std::uint32_t seed : dirty_channels_) {
    if (!channel_dirty_[seed]) continue;
    solve_component(seed);
  }
  dirty_channels_.clear();
}

void FluidFlowTable::solve_component(std::uint32_t seed) {
  ++epoch_;

  // Collect the connected component of the seed channel: BFS over the
  // channel<->flow membership graph. Every flow crossing a component
  // channel joins the component and contributes its other channels, so
  // at the end the component's channels are crossed *only* by component
  // flows — their rates can be recomputed from raw capacities without
  // consulting the rest of the table.
  comp_flows_.clear();
  channel_stack_.clear();
  touch_channel(seed);
  for (std::size_t i = 0; i < channel_stack_.size(); ++i) {
    const std::uint32_t c = channel_stack_[i];
    const MemberList& list = members_[c];
    for (auto n = list.head(); n != core::kNilIndex; n = list.next(nodes_, n)) {
      const std::uint32_t flow_idx = nodes_.at_index(n).flow;
      Flow& flow = flows_.at_index(flow_idx);
      if (flow.seen_epoch == epoch_) continue;
      flow.seen_epoch = epoch_;
      comp_flows_.push_back(flow_idx);
      for (auto pn = flow.first_node; pn != core::kNilIndex;
           pn = nodes_.at_index(pn).next_in_path) {
        touch_channel(nodes_.at_index(pn).channel);
      }
    }
  }
  last_solve_flows_ += comp_flows_.size();
  solved_flow_visits_ += comp_flows_.size();
  for (const std::uint32_t flow_idx : comp_flows_) {
    last_solved_.push_back(flows_.handle_of_index(flow_idx));
  }

  unfrozen_.clear();
  for (const std::uint32_t flow_idx : comp_flows_) {
    Flow& flow = flows_.at_index(flow_idx);
    flow.frozen = false;
    flow.rate = 0.0;
    unfrozen_.push_back(flow_idx);
    for (auto pn = flow.first_node; pn != core::kNilIndex;
         pn = nodes_.at_index(pn).next_in_path) {
      ++load_[nodes_.at_index(pn).channel];
    }
  }

  // Progressive filling: raise every unfrozen flow's rate by the largest
  // uniform increment no channel or demand can absorb less of, then
  // freeze whatever saturated. Terminates in <= component-size iterations
  // (every round freezes at least one flow).
  while (!unfrozen_.empty()) {
    double inc = std::numeric_limits<double>::max();
    for (const std::uint32_t flow_idx : unfrozen_) {
      const Flow& flow = flows_.at_index(flow_idx);
      inc = std::min(inc, flow.demand - flow.rate);
      for (auto pn = flow.first_node; pn != core::kNilIndex;
           pn = nodes_.at_index(pn).next_in_path) {
        const std::uint32_t c = nodes_.at_index(pn).channel;
        inc = std::min(inc, residual_[c] / static_cast<double>(load_[c]));
      }
    }
    for (const std::uint32_t flow_idx : unfrozen_) {
      Flow& flow = flows_.at_index(flow_idx);
      flow.rate += inc;
      for (auto pn = flow.first_node; pn != core::kNilIndex;
           pn = nodes_.at_index(pn).next_in_path) {
        residual_[nodes_.at_index(pn).channel] -= inc;
      }
    }
    still_.clear();
    for (const std::uint32_t flow_idx : unfrozen_) {
      Flow& flow = flows_.at_index(flow_idx);
      bool frozen = flow.rate >= flow.demand;
      if (!frozen) {
        for (auto pn = flow.first_node; pn != core::kNilIndex;
             pn = nodes_.at_index(pn).next_in_path) {
          const std::uint32_t c = nodes_.at_index(pn).channel;
          if (residual_[c] <= 1e-9 * capacity_[c]) {
            frozen = true;
            break;
          }
        }
      }
      if (frozen) {
        flow.frozen = true;
        for (auto pn = flow.first_node; pn != core::kNilIndex;
             pn = nodes_.at_index(pn).next_in_path) {
          --load_[nodes_.at_index(pn).channel];
        }
      } else {
        still_.push_back(flow_idx);
      }
    }
    if (still_.size() == unfrozen_.size()) break;  // numeric safety valve
    std::swap(unfrozen_, still_);
  }
}

}  // namespace f2t::transport
