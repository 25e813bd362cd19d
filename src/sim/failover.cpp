#include "sim/failover.hpp"

#include <algorithm>

#include "ckpt/ckpt.hpp"
#include "util/check.hpp"

namespace massf {

FailoverController::FailoverController(ForwardingPlane& fp,
                                       SimTime convergence_delay)
    : fp_(&fp), delay_(convergence_delay) {
  MASSF_CHECK(convergence_delay >= 0);
}

void FailoverController::attach(Engine& engine) {
  engine.hooks().barrier.push_back([this](Engine& eng, SimTime window_start) {
    on_barrier(eng, window_start);
  });
}

void FailoverController::schedule(Engine& engine, NetSim& sim, LinkId link,
                                  SimTime when, bool up) {
  sim.link_model().schedule_link_state(engine, link, when, up);
  // After every earlier change due at the same time: equal-time changes
  // apply in schedule order, as the data plane's same-time events fire.
  const SimTime at = when + delay_;
  const auto pos = std::upper_bound(
      pending_.begin(), pending_.end(), at,
      [](SimTime t, const Pending& p) { return t < p.at; });
  pending_.insert(pos, {at, link, up, when});
}

void FailoverController::fail_link(Engine& engine, NetSim& sim, LinkId link,
                                   SimTime when) {
  schedule(engine, sim, link, when, /*up=*/false);
}

void FailoverController::restore_link(Engine& engine, NetSim& sim,
                                      LinkId link, SimTime when) {
  schedule(engine, sim, link, when, /*up=*/true);
}

void FailoverController::on_barrier(Engine&, SimTime window_start) {
  bool any = false;
  while (!pending_.empty() && pending_.front().at <= window_start) {
    const Pending p = pending_.front();
    fp_->set_link_state(p.link, p.up);
    pending_.erase(pending_.begin());
    if (observer_) observer_(window_start, p.link, p.up, p.requested_at);
    any = true;
  }
  if (any) {
    fp_->reconverge();
    ++reconvergences_;
  }
}

void FailoverController::save(ckpt::Writer& w) const {
  w.u64(pending_.size());
  for (const Pending& p : pending_) {
    w.i64(p.at);
    w.i32(p.link);
    w.u8(p.up ? 1 : 0);
    w.i64(p.requested_at);
  }
  w.i32(reconvergences_);
}

bool FailoverController::load(ckpt::Reader& r) {
  const std::uint64_t n = r.u64();
  if (!r.ok() || n > (1ULL << 32)) return false;
  pending_.assign(static_cast<std::size_t>(n), Pending{});
  for (Pending& p : pending_) {
    p.at = r.i64();
    p.link = r.i32();
    p.up = r.u8() != 0;
    p.requested_at = r.i64();
  }
  reconvergences_ = r.i32();
  return r.ok();
}

}  // namespace massf
