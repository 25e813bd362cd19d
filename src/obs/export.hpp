// Registry exporters with a stable, golden-testable schema.
//
// JSON layout (schema id "massf.metrics.v1", full field reference in
// DESIGN.md §"Telemetry"):
//
//   {
//     "schema": "massf.metrics.v1",
//     "counters": { "<name>": <uint>, ... },          // name-ordered
//     "gauges":   { "<name>": <double>, ... },
//     "histograms": {
//       "<name>": { "bounds": [..], "counts": [..],   // counts = bounds+1
//                    "count": <uint>, "sum": <double> }
//     }
//   }
//
// Doubles are rendered with std::to_chars shortest round-trip form, so
// output is byte-stable across runs and platforms with IEEE doubles.
#pragma once

#include <span>
#include <string>
#include <string_view>

namespace massf::obs {

class Registry;

/// Shortest round-trip decimal rendering of `v`; non-finite values clamp
/// to 0 / +-1e308 so the output stays valid JSON.
std::string format_double(double v);

std::string to_json(const Registry& registry);

/// to_json minus the metrics whose name matches an `exclude` entry: an
/// entry ending in '.' excludes by prefix, anything else exactly. The
/// campaign runner uses this to emit canonical per-run metrics with the
/// wall-clock/executor-identity fields stripped, so two executions of the
/// same run compare byte-identical.
std::string to_json_excluding(const Registry& registry,
                              std::span<const std::string_view> exclude);

/// `s` as the body of a JSON string: quotes, backslashes and control
/// characters escaped.
std::string escape_json(const std::string& s);

/// Writes `content` to `path` (truncating); returns false on I/O failure.
bool write_file(const std::string& path, const std::string& content);

}  // namespace massf::obs
