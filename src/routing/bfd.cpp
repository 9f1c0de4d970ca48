#include "routing/bfd.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "sim/logging.hpp"

namespace f2t::routing {

namespace {

std::uint64_t key_of(net::NodeId node, net::PortId port) {
  return (std::uint64_t{node} << 16) | port;
}

}  // namespace

BfdManager::BfdManager(net::Network& network, const BfdConfig& config)
    : network_(network), config_(config) {
  // The hello phase is taken modulo tx_interval, and a session with no
  // hello clock or no missed-hello budget can never detect anything.
  if (config_.tx_interval <= 0 || config_.miss_multiplier < 1) {
    throw std::invalid_argument(
        "BfdManager: tx_interval must be > 0 and miss_multiplier >= 1");
  }
}

void BfdManager::attach_all() {
  for (net::Link* link : network_.links()) create_sessions(*link);
  network_.add_link_hook([this](net::Link& link) { create_sessions(link); });
}

void BfdManager::create_sessions(net::Link& link) {
  auto* a = dynamic_cast<net::L3Switch*>(link.end_a().node);
  auto* b = dynamic_cast<net::L3Switch*>(link.end_b().node);
  if (a == nullptr || b == nullptr) return;  // host links carry no session
  create_session(*a, link.end_a().port);
  create_session(*b, link.end_b().port);
}

void BfdManager::create_session(net::L3Switch& sw, net::PortId port) {
  const std::uint64_t key = key_of(sw.id(), port);
  if (sessions_.count(key) != 0) return;
  auto session = std::make_unique<Session>();
  Session& s = *session;
  s.sw = &sw;
  s.port = port;
  s.index = next_index_++;
  s.penalty_at = network_.simulator().now();
  sessions_.emplace(key, std::move(session));

  if (!handler_installed_[sw.id()]) {
    handler_installed_[sw.id()] = true;
    sw.add_control_handler(
        [this, &sw](net::PortId in_port, const net::Packet& packet) {
          const auto hello =
              std::dynamic_pointer_cast<const BfdHello>(packet.control);
          if (!hello) return;
          on_hello(sw, in_port, *hello);
        });
  }

  // Deterministic per-session phase (no RNG draw: probing must not perturb
  // the seeded streams other components consume) spreads hello clocks so
  // sessions do not fire in lockstep.
  const sim::Time phase =
      (static_cast<sim::Time>(s.index) * 7919137) % config_.tx_interval;
  network_.simulator().after(phase, [this, &s] { send_hello(s); });
  arm_detect_timer(s);
}

void BfdManager::send_hello(Session& s) {
  auto hello = std::make_shared<BfdHello>();
  hello->i_hear_you = s.hearing;
  net::Packet packet;
  packet.src = s.sw->router_id();
  packet.dst = s.sw->port(s.port).peer_addr;
  packet.proto = net::Protocol::kRouting;
  packet.size_bytes = config_.hello_bytes;
  packet.control = std::move(hello);
  ++counters_.hellos_sent;
  // Hellos keep flowing while the session is down — that is how the
  // session comes back once the path heals.
  s.sw->send(s.port, std::move(packet));
  network_.simulator().after(config_.tx_interval,
                             [this, &s] { send_hello(s); });
}

void BfdManager::arm_detect_timer(Session& s) {
  auto& sim = network_.simulator();
  if (s.detect_timer != sim::kInvalidEventId) sim.cancel(s.detect_timer);
  s.detect_timer = sim.after(config_.detect_time(), [this, &s] {
    s.detect_timer = sim::kInvalidEventId;
    ++counters_.hellos_missed;
    s.hearing = false;
    update_session(s);
  });
}

void BfdManager::on_hello(net::L3Switch& sw, net::PortId port,
                          const BfdHello& hello) {
  Session* s = find(sw.id(), port);
  if (s == nullptr) return;  // hello on a port we never sessioned
  ++counters_.hellos_received;
  if (s->remote_hears_us && !hello.i_hear_you) {
    ++counters_.remote_down_signals;
  }
  s->remote_hears_us = hello.i_hear_you;
  s->hearing = true;
  arm_detect_timer(*s);
  update_session(*s);
}

void BfdManager::update_session(Session& s) {
  const bool now_up = s.hearing && s.remote_hears_us;
  if (now_up == s.up) return;
  s.up = now_up;
  if (now_up) {
    ++counters_.sessions_up;
    if (obs_hook_) obs_hook_(ObsEvent::kSessionUp, s.sw->id(), s.port);
  } else {
    ++counters_.sessions_down;
    if (obs_hook_) obs_hook_(ObsEvent::kSessionDown, s.sw->id(), s.port);
    add_flap_penalty(s);
  }
  F2T_LOG(network_.simulator().logger(), sim::LogLevel::kDebug,
          network_.simulator().now(),
          s.sw->name() << " BFD port " << s.port
                       << (now_up ? " up" : " down"));
  report(s, now_up);
}

void BfdManager::report(Session& s, bool up) {
  if (config_.dampening.enabled) {
    if (s.suppressed) return;  // transitions withheld until reuse
    if (decayed_penalty(s) >= config_.dampening.suppress_threshold) {
      s.suppressed = true;
      ++counters_.suppresses;
      if (obs_hook_) obs_hook_(ObsEvent::kSuppress, s.sw->id(), s.port);
      // A suppressed port is held detected-down regardless of session
      // state: a route through a flapping link is worse than no route.
      s.sw->set_port_detected(s.port, false);
      schedule_reuse_check(s);
      return;
    }
  }
  s.sw->set_port_detected(s.port, up);
}

double BfdManager::decayed_penalty(const Session& s) const {
  const sim::Time elapsed = network_.simulator().now() - s.penalty_at;
  if (elapsed <= 0 || s.penalty <= 0) return s.penalty;
  const double half_lives = static_cast<double>(elapsed) /
                            static_cast<double>(config_.dampening.half_life);
  return s.penalty * std::exp2(-half_lives);
}

void BfdManager::add_flap_penalty(Session& s) {
  if (!config_.dampening.enabled) return;
  s.penalty = std::min(decayed_penalty(s) + config_.dampening.penalty_per_flap,
                       config_.dampening.max_penalty);
  s.penalty_at = network_.simulator().now();
  ++counters_.flaps_recorded;
}

void BfdManager::schedule_reuse_check(Session& s) {
  // Exact decay horizon: penalty p reaches the reuse threshold after
  // half_life * log2(p / reuse). Recheck then; flaps accrued while
  // suppressed push the horizon out, so the check reschedules itself.
  const double p = decayed_penalty(s);
  const double reuse = config_.dampening.reuse_threshold;
  sim::Time wait = config_.tx_interval;
  if (p > reuse && reuse > 0) {
    wait = static_cast<sim::Time>(
        static_cast<double>(config_.dampening.half_life) *
        std::log2(p / reuse));
    wait = std::max(wait, config_.tx_interval);
  }
  network_.simulator().after(wait, [this, &s] {
    if (!s.suppressed) return;
    if (decayed_penalty(s) >= config_.dampening.reuse_threshold) {
      schedule_reuse_check(s);
      return;
    }
    s.suppressed = false;
    ++counters_.reuses;
    if (obs_hook_) obs_hook_(ObsEvent::kReuse, s.sw->id(), s.port);
    s.sw->set_port_detected(s.port, s.up);
  });
}

BfdManager::Session* BfdManager::find(net::NodeId node, net::PortId port) {
  const auto it = sessions_.find(key_of(node, port));
  return it == sessions_.end() ? nullptr : it->second.get();
}

const BfdManager::Session* BfdManager::find_or_throw(
    const net::L3Switch& sw, net::PortId port) const {
  const auto it = sessions_.find(key_of(sw.id(), port));
  if (it == sessions_.end()) {
    throw std::invalid_argument("no BFD session on " + sw.name() + " port " +
                                std::to_string(port));
  }
  return it->second.get();
}

bool BfdManager::session_up(const net::L3Switch& sw, net::PortId port) const {
  return find_or_throw(sw, port)->up;
}

bool BfdManager::session_suppressed(const net::L3Switch& sw,
                                    net::PortId port) const {
  return find_or_throw(sw, port)->suppressed;
}

double BfdManager::session_penalty(const net::L3Switch& sw,
                                   net::PortId port) const {
  return decayed_penalty(*find_or_throw(sw, port));
}

}  // namespace f2t::routing
