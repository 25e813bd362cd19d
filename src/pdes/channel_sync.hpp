// Topology-aware channel-clock synchronization for the threaded executor.
//
// Instead of global gates that make every worker wait for the slowest one,
// the executor tracks progress per engine pair in the null-message/
// channel-clock tradition: each LP carries an epoch-tagged stage word
// (idle -> processing -> processed -> merging -> merged), a merge becomes
// ready as soon as the LP itself and its *in-neighbors on the channel
// graph* are processed (their channel clocks have reached the window end),
// and engines whose neighbors are already ahead run free with no gate at
// all. A quiescence detector — the thread that completes a window's last
// merge observes every channel clock at the window end — collapses the
// per-pair clocks into a global epoch and runs the engine's barrier
// hooks exactly where the sequential window loop runs them, so boundary
// semantics and the bit-exact event trace are unchanged (DESIGN.md
// section 5g).
//
// The ChannelGraph is the topology the sync protocol exploits. Channels
// are directional (src may send cross-LP events to dst) with a per-channel
// lookahead that must be at least the engine's global lookahead — it is
// the pairwise MLL the partitioner already computes for the window width.
// An empty graph means "unknown topology": every pair is assumed
// connected, which is always safe and degrades to all-pairs dependencies.
// When a graph is declared, Engine::schedule enforces it: a cross-LP send
// along an undeclared channel aborts rather than silently perturbing the
// merge order the declared topology promised.
#pragma once

#include <cstdint>
#include <vector>

#include "pdes/event.hpp"

namespace massf {

/// Directed cross-LP communication topology with per-channel lookahead.
/// Build with add(), then hand to Engine::set_channels (which finalizes).
class ChannelGraph {
 public:
  struct Channel {
    LpId src = kInvalidLp;
    LpId dst = kInvalidLp;
    SimTime lookahead = 0;
  };

  /// Declares that `src` may send cross-LP events to `dst`; `lookahead` is
  /// the channel's minimum latency (>= the engine lookahead, checked at
  /// set_channels). Self-channels and duplicates are dropped (same-LP
  /// sends never cross a channel; duplicates keep the smaller lookahead).
  void add(LpId src, LpId dst, SimTime lookahead);

  bool empty() const { return channels_.empty(); }
  std::size_t size() const { return channels_.size(); }
  const std::vector<Channel>& channels() const { return channels_; }

  /// Builds the per-LP neighbor indexes; ids must be < num_lps. Called by
  /// Engine::set_channels.
  void finalize(LpId num_lps);
  bool finalized() const { return finalized_; }

  /// True when src may send to dst. Valid after finalize; an empty graph
  /// allows everything.
  bool allows(LpId src, LpId dst) const;

  /// Sources that may send to `dst`, sorted by LP id (the deterministic
  /// merge order). Valid after finalize on a non-empty graph.
  const std::vector<LpId>& in_neighbors(LpId dst) const {
    return in_[static_cast<std::size_t>(dst)];
  }

  /// Smallest declared channel lookahead (kSimTimeMax when empty).
  SimTime min_lookahead() const { return min_lookahead_; }

 private:
  std::vector<Channel> channels_;
  std::vector<std::vector<LpId>> in_;   // per-dst sorted src ids
  std::vector<std::vector<LpId>> out_;  // per-src sorted dst ids
  SimTime min_lookahead_ = kSimTimeMax;
  bool finalized_ = false;
};

/// Aggregates of one run's synchronization behaviour, published as
/// `pdes.sync.*` when a registry is attached (schema in DESIGN.md 5g).
/// Only the threaded executor fills the dynamic fields; wait times are
/// measured only while a WindowProbe is attached (the hot path performs no
/// clock reads otherwise).
struct SyncStats {
  /// Declared channels (0 = all-pairs fallback).
  std::uint64_t channels = 0;
  /// Channel advances that carried no events: at each merge, an
  /// in-neighbor whose window outbox for the destination was empty.
  /// Deterministic — the null-message analog of the protocol.
  std::uint64_t null_events = 0;
  /// Claim scans that found no runnable work while the window was open
  /// (a neighbor's channel clock was still behind). Scheduling-dependent.
  std::uint64_t stalls = 0;
  /// Quiescent epochs detected (channel-clock collapses = window
  /// boundaries executed by the channel executor).
  std::uint64_t quiescence_epochs = 0;
  /// Thread-seconds blocked on a channel whose clock was behind (stall
  /// loops inside an open window). Probe-attached runs only.
  double channel_wait_s = 0;
  /// Thread-seconds between a thread running out of claimable work and
  /// the close of the window that was open at that moment. Probe-attached
  /// runs only. channel_wait_s + epoch_wait_s is the protocol-imposed
  /// wait the bench reports as barrier_wait_s for channel entries.
  double epoch_wait_s = 0;
};

/// Logs, once per process, that the host cannot report its concurrency
/// (`hardware_concurrency` == 0): spin budgets are then disabled and every
/// channel-clock stall yields at once. Returns true on the call that
/// logged; hc > 0 and every later call return false. Engine::run_threaded
/// calls it with std::thread::hardware_concurrency().
bool warn_unknown_host_concurrency(unsigned hardware_concurrency);

}  // namespace massf
