#include "routing/central.hpp"

#include <algorithm>
#include <stdexcept>

namespace f2t::routing {

void CentralController::manage(net::L3Switch& sw,
                               std::vector<net::Prefix> prefixes) {
  if (sim_ == nullptr) {
    sim_ = &sw.simulator();
  } else if (sim_ != &sw.simulator()) {
    throw std::invalid_argument("CentralController: mixed simulators");
  }
  switches_.push_back(Managed{&sw, std::move(prefixes)});
  net::L3Switch* ptr = &sw;
  // A port-state transition is the switch's failure (or recovery) report.
  sw.add_port_state_handler([this, ptr](net::PortId, bool) {
    sim_->after(config_.report_delay, [this, ptr] { on_report(*ptr); });
  });
}

std::vector<LocalAdjacency> CentralController::adjacency_of(
    const Managed& m) {
  std::vector<LocalAdjacency> adjacency;
  for (net::PortId p = 0; p < m.sw->port_count(); ++p) {
    const auto& info = m.sw->port(p);
    if (info.peer_is_switch && m.sw->port_detected_up(p)) {
      adjacency.push_back(LocalAdjacency{p, info.peer_addr});
    }
  }
  return adjacency;
}

LsaPtr CentralController::view_of(const Managed& m) const {
  auto lsa = std::make_shared<Lsa>();
  lsa->origin = m.sw->router_id();
  lsa->sequence = view_version_;
  // Every link at cost 1: DestinationSpf's BFS relies on it.
  for (const LocalAdjacency& adj : adjacency_of(m)) {
    const LsaLink link{adj.neighbor, 1};
    if (std::find(lsa->links.begin(), lsa->links.end(), link) ==
        lsa->links.end()) {
      lsa->links.push_back(link);
    }
  }
  lsa->prefixes = m.prefixes;
  return lsa;
}

Lsdb CentralController::build_view() const {
  // The controller's view is the union of the switches' *detected* local
  // states — exactly the information failure reports carry.
  Lsdb view;
  for (const Managed& m : switches_) view.consider(view_of(m));
  return view;
}

void CentralController::converge() { compute_and_deliver(false); }

void CentralController::on_report(net::L3Switch& /*sw*/) {
  ++counters_.reports;
  if (pending_compute_ != sim::kInvalidEventId) return;  // already batching
  pending_compute_ =
      sim_->after(config_.batch_window + config_.compute_delay, [this] {
        pending_compute_ = sim::kInvalidEventId;
        compute_and_deliver(true);
      });
}

void CentralController::compute_and_deliver(bool push) {
  ++counters_.computations;
  ++view_version_;
  const Lsdb view = build_view();
  const DestinationSpf spf(view);
  // One switch's route set is live at a time on the synchronous path.
  for (const Managed& m : switches_) {
    auto routes = spf.routes_for(m.sw->router_id(), adjacency_of(m));
    std::erase_if(routes, [&](const Route& r) {
      return std::find(m.prefixes.begin(), m.prefixes.end(), r.prefix) !=
             m.prefixes.end();
    });
    if (!push) {
      m.sw->fib().apply_source_delta(RouteSource::kOspf, std::move(routes));
      continue;
    }
    net::L3Switch* sw = m.sw;
    // The push (and its hook) still happens even when the delta turns out
    // empty — the controller does not know that before the switch applies
    // it — so fib_pushes and the simulated event stream are unchanged;
    // only the redundant FIB writes disappear.
    ++counters_.fib_pushes;
    sim_->after(config_.push_delay + config_.fib_update_delay,
                [this, sw, routes = std::move(routes)]() mutable {
                  sw->fib().apply_source_delta(RouteSource::kOspf,
                                               std::move(routes));
                  if (push_hook_) push_hook_(*sw);
                });
  }
}

}  // namespace f2t::routing
