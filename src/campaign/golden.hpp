// The pinned PDES calibration workload for campaign roll-ups.
//
// A campaign with `golden 1` runs the golden ring (pdes/golden_ring.hpp)
// once per distinct thread count and records the checksum in the
// roll-up; the nightly gate (scripts/check_bench.py --campaign) pins the
// expected value, putting the engine-determinism contract into every
// campaign artifact.
#pragma once

#include <cstdint>

#include "pdes/golden_ring.hpp"

namespace massf {

/// Runs the golden ring under the given executor configuration (threads
/// <= 0 = sequential) and returns the trace checksum; `events` / `windows`
/// (optional) receive the run totals. Sequential and threaded runs
/// produce the bit-identical trace, so every configuration returns
/// kGoldenRingChecksum.
std::uint64_t golden_ring_checksum(std::int32_t threads,
                                   std::uint64_t* events = nullptr,
                                   std::uint64_t* windows = nullptr);

}  // namespace massf
