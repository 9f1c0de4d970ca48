#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "net/network.hpp"
#include "sim/time.hpp"

namespace f2t::routing {

/// Flap dampening in the style of RFC 2439: every session-down transition
/// adds `penalty_per_flap` to a per-port penalty that decays exponentially
/// with `half_life`. When the penalty crosses `suppress_threshold` the
/// port is *suppressed* — reported down to the switch and held there, with
/// further session transitions withheld — until the penalty decays below
/// `reuse_threshold`, at which point the current session state is
/// reported. This is what keeps a lossy or flapping link from driving
/// unbounded LSA origination and SPF churn across the fabric.
struct BfdDampeningConfig {
  bool enabled = true;
  double penalty_per_flap = 1000;
  double suppress_threshold = 2500;
  double reuse_threshold = 800;
  double max_penalty = 10000;  ///< accumulation ceiling (RFC 2439 §4.2)
  sim::Time half_life = sim::seconds(4);
};

/// Probe-based detection timing. The defaults give a 60 ms detection
/// floor (20 ms × 3), matching the paper's measured "BFD-comparable"
/// interface-down detection.
struct BfdConfig {
  sim::Time tx_interval = sim::millis(20);
  int miss_multiplier = 3;  ///< missed hellos before declaring down
  /// Wire size of one hello (BFD control packet + UDP/IP/Ethernet).
  std::uint32_t hello_bytes = 66;
  BfdDampeningConfig dampening;

  sim::Time detect_time() const { return tx_interval * miss_multiplier; }
};

/// Hello control payload. `i_hear_you` carries the sender's view of the
/// session (it received a hello within its detection window) — the
/// remote-state signalling that takes *both* ends down on a one-way cut:
/// the deaf end times out, and its hellos then tell the still-hearing end
/// that the session is dead.
struct BfdHello : net::ControlPayload {
  bool i_hear_you = true;
};

/// Probe-based failure detection (DetectionMode::kProbe).
///
/// One session per (switch, port) over every switch-to-switch link. Each
/// session transmits hello packets through the real data plane every
/// tx_interval — so link queues, per-direction gray loss and
/// unidirectional cuts all apply — and declares the session down when no
/// hello arrives for tx_interval × miss_multiplier, or when the peer's
/// hellos signal that it no longer hears us. Session state reaches the
/// data plane through L3Switch::set_port_detected, exactly like the
/// oracle DetectionAgent, gated by RFC 2439-style flap dampening.
///
/// Unlike the oracle, this layer detects what a real BFD session detects:
/// a 100%-loss gray direction (hellos silently eaten) and a one-way cut
/// both take the session down; a link that flaps faster than the detect
/// window may never be declared down; and a lossy link that flaps the
/// session is eventually suppressed rather than allowed to churn SPF.
class BfdManager {
 public:
  struct Counters {
    std::uint64_t hellos_sent = 0;
    std::uint64_t hellos_received = 0;
    std::uint64_t hellos_missed = 0;  ///< detection timeouts fired
    std::uint64_t sessions_up = 0;    ///< up transitions
    std::uint64_t sessions_down = 0;  ///< down transitions
    std::uint64_t remote_down_signals = 0;  ///< peer said it cannot hear us
    std::uint64_t flaps_recorded = 0;       ///< dampening penalty additions
    std::uint64_t suppresses = 0;
    std::uint64_t reuses = 0;
  };

  /// Milestones surfaced to the observability layer, stamped with the
  /// session's switch and port.
  enum class ObsEvent { kSessionUp, kSessionDown, kSuppress, kReuse };
  using ObsHook = std::function<void(ObsEvent, net::NodeId, net::PortId)>;

  /// Throws std::invalid_argument when config.tx_interval <= 0 or
  /// config.miss_multiplier < 1.
  BfdManager(net::Network& network, const BfdConfig& config = {});

  /// Creates sessions on both ends of every switch-to-switch link and
  /// starts their hello clocks; also installs a network hook so links
  /// added later get sessions the moment they are wired.
  void attach_all();

  const BfdConfig& config() const { return config_; }
  const Counters& counters() const { return counters_; }
  void set_obs_hook(ObsHook hook) { obs_hook_ = std::move(hook); }

  std::size_t session_count() const { return sessions_.size(); }

  /// Test/diagnostic introspection for one session; all three throw
  /// std::invalid_argument when no session exists on (sw, port).
  bool session_up(const net::L3Switch& sw, net::PortId port) const;
  bool session_suppressed(const net::L3Switch& sw, net::PortId port) const;
  double session_penalty(const net::L3Switch& sw, net::PortId port) const;

 private:
  struct Session {
    net::L3Switch* sw = nullptr;
    net::PortId port = net::kInvalidPort;
    int index = 0;  ///< creation order; staggers the hello phase
    bool hearing = true;         ///< hello received within detect window
    bool remote_hears_us = true; ///< last hello's i_hear_you
    bool up = true;              ///< hearing && remote_hears_us
    sim::EventId detect_timer = sim::kInvalidEventId;
    double penalty = 0;          ///< dampening penalty at penalty_at
    sim::Time penalty_at = 0;
    bool suppressed = false;
  };

  void create_sessions(net::Link& link);
  void create_session(net::L3Switch& sw, net::PortId port);
  Session* find(net::NodeId node, net::PortId port);
  const Session* find_or_throw(const net::L3Switch& sw,
                               net::PortId port) const;

  void send_hello(Session& s);
  void arm_detect_timer(Session& s);
  void on_hello(net::L3Switch& sw, net::PortId port, const BfdHello& hello);
  void update_session(Session& s);
  void report(Session& s, bool up);
  double decayed_penalty(const Session& s) const;
  void add_flap_penalty(Session& s);
  void schedule_reuse_check(Session& s);

  net::Network& network_;
  BfdConfig config_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  std::unordered_map<net::NodeId, bool> handler_installed_;
  int next_index_ = 0;
  Counters counters_;
  ObsHook obs_hook_;
};

}  // namespace f2t::routing
