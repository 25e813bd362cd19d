// The event record of the conservative PDES engine.
//
// Events are plain data: a timestamp, a deterministic tie-break sequence
// number, the destination logical process, a user-defined type tag, and
// four 64-bit payload words. Millions of per-packet events flow through the
// engine, so events carry no allocations and no indirect calls.
#pragma once

#include <cstdint>

#include "util/sim_time.hpp"

namespace massf {

using LpId = std::int32_t;
constexpr LpId kInvalidLp = -1;

struct Event {
  SimTime time = 0;
  /// Assigned by the engine at insertion; (time, seq) totally orders the
  /// events of one LP, making execution deterministic.
  std::uint64_t seq = 0;
  LpId lp = kInvalidLp;
  std::int32_t type = 0;
  std::uint64_t a = 0, b = 0, c = 0, d = 0;
};

}  // namespace massf
