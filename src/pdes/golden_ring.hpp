// The pinned PDES calibration workload: the "golden ring".
//
// A ring of LPs forwarding hop events to their successor at exactly the
// lookahead, each hop spawning a same-window self-chain. Every LP folds the
// timestamps of the events it handles into a checksum, and the ring folds
// the LP checksums in id order, so any change to execution order, event
// count, or LP assignment moves it. At the default shape (32 LPs, chain 64,
// 2000 hops) under golden_ring_options() the trace is pinned: sequential,
// threaded, and recovered (re-run) runs must all reproduce
// kGoldenRingChecksum, kGoldenRingEvents, and kGoldenRingWindows. The same
// values appear in BENCH_pdes.json and in every campaign golden row;
// regenerate them only through tests/regen_golden.sh.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "pdes/engine.hpp"

namespace massf {

inline constexpr std::uint64_t kGoldenRingChecksum = 807988445054369792ULL;
inline constexpr std::uint64_t kGoldenRingEvents = 4162080ULL;
inline constexpr std::uint64_t kGoldenRingWindows = 2001ULL;

/// The engine options the pinned values hold under: 1 ms lookahead and a
/// horizon far past the ring's ~2 s of virtual time, so the run ends by
/// event exhaustion.
EngineOptions golden_ring_options();

/// An engine loaded with the ring and its seed events, ready to run.
struct GoldenRing {
  std::unique_ptr<Engine> engine;
  /// Checksum of LP `i`'s handled events. It reads LP state the engine
  /// owns, so it stays valid wherever the engine is moved.
  std::function<std::uint64_t(LpId)> lp_checksum;

  /// The ring checksum: the LP checksums folded in id order.
  std::uint64_t checksum() const;
};

/// Builds the ring.
GoldenRing build_golden_ring(
    const EngineOptions& options = golden_ring_options(),
    std::int64_t lps = 32, std::int64_t chain = 64, std::int64_t hops = 2000);

}  // namespace massf
