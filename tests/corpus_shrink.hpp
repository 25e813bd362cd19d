// The corpus test's shrink: a scenario file scaled down to test size,
// shared by every test that runs a corpus file (scenario_corpus_test,
// guard_test).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "sim/scenario_config.hpp"

namespace massf {

// Scales a corpus scenario down to test size: same shape (app kind,
// executor, guard/fault wiring all preserved), `end_time` of virtual
// time. Guard-dump files go to `scratch` plus a suffix, so cases running
// in parallel processes never share a file.
inline ScenarioSpec shrink(ScenarioSpec spec, const std::string& scratch,
                           SimTime end_time) {
  spec.options.num_routers = 60;
  spec.options.num_hosts = 40;
  spec.options.num_as = std::min(spec.options.num_as, 4);
  spec.options.num_clients = 10;
  spec.options.num_servers = 4;
  spec.options.num_bg_sources = std::min(spec.options.num_bg_sources, 8);
  // GridNPB's mixed workload partitions its hosts three ways and insists
  // on >= 9; 12 keeps every app kind happy while staying tiny.
  spec.options.num_app_hosts = std::min(spec.options.num_app_hosts, 12);
  spec.options.num_engines = 4;
  spec.options.end_time = end_time;
  spec.options.profile_end_time = from_seconds(0.2);
  spec.options.executor_threads =
      std::min(spec.options.executor_threads, std::int32_t{2});
  if (!spec.options.guard.dump_path.empty()) {
    spec.options.guard.dump_path = scratch + "-guard.json";
  }
  if (spec.mappings.size() > 1) {
    spec.mappings.erase(spec.mappings.begin() + 1, spec.mappings.end());
  }
  return spec;
}

}  // namespace massf
