// Fork-join over independent work items on every CPU the process may use.
//
// Set-up loops whose iterations share nothing but read-only inputs (one
// shortest-path tree per destination, one partition per Tmll candidate)
// run on parallel_for. There is no pool that outlives a call and no
// option: the width is the CPU count of the process's affinity mask,
// capped by the item count, so `taskset` and cpusets are honoured and a
// one-item call never starts a thread.
#pragma once

#include <cstddef>
#include <functional>

namespace massf {

/// Number of threads parallel_for(items, ...) runs on: the CPUs in the
/// process's affinity mask (read at the first call), capped by `items`,
/// at least 1. Callers that keep per-worker state size it with this.
std::size_t parallel_width(std::size_t items);

/// Calls body(worker, item) once for every item in [0, items), on
/// parallel_width(items) threads. The caller is worker 0; workers 1.. are
/// started here and joined before return, so worker ids index state the
/// caller allocated. Items are handed out in ascending order to whichever
/// worker is free: which worker runs an item is unspecified. At width 1
/// every item runs inline on the caller. If a body throws, no further
/// items are started and the first exception is rethrown once every
/// worker has joined.
void parallel_for(
    std::size_t items,
    const std::function<void(std::size_t worker, std::size_t item)>& body);

}  // namespace massf
