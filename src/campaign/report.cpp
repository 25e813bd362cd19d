#include "campaign/report.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "obs/export.hpp"

namespace massf {
namespace {

std::string escape_json(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  out += escape_json(s);
  out += '"';
  return out;
}

struct Aggregate {
  std::uint64_t runs = 0;
  std::uint64_t events = 0;
  double modeled_time_s = 0;
  double load_imbalance = 0;
  double parallel_efficiency = 0;
};

}  // namespace

std::string campaign_to_json(const CampaignSpec& spec,
                             const CampaignOutcome& outcome) {
  std::string out = "{\n  \"schema\": \"massf.campaign.v1\",\n";
  out += "  \"name\": " + quoted(spec.name) + ",\n";
  out += "  \"scenario\": " + quoted(spec.scenario) + ",\n";

  out += "  \"runs\": [";
  for (std::size_t i = 0; i < outcome.runs.size(); ++i) {
    const RunRecord& r = outcome.runs[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"id\": " + quoted(r.id) + ", \"axis\": {";
    for (std::size_t a = 0; a < r.axis.size(); ++a) {
      if (a) out += ", ";
      out += quoted(r.axis[a].axis) + ": " + quoted(r.axis[a].label);
    }
    out += "}, \"ok\": ";
    out += r.ok ? "true" : "false";
    if (!r.mapping.empty()) out += ", \"mapping\": " + quoted(r.mapping);
    out += ", \"events\": " + std::to_string(r.events);
    out += ", \"windows\": " + std::to_string(r.windows);
    out += ", \"modeled_time_s\": " + obs::format_double(r.modeled_time_s);
    out += ", \"load_imbalance\": " + obs::format_double(r.load_imbalance);
    out += ", \"parallel_efficiency\": " +
           obs::format_double(r.parallel_efficiency);
    out += ", \"mll_ms\": " + obs::format_double(r.mll_ms);
    out += ", \"faults_injected\": " + std::to_string(r.faults_injected);
    if (r.has_checksum) {
      // Checksums exceed 2^53; a string survives every JSON reader.
      out += ", \"checksum\": " + quoted(std::to_string(r.checksum));
    }
    if (!r.ok) out += ", \"error\": " + quoted(r.error);
    out += "}";
  }
  out += outcome.runs.empty() ? "],\n" : "\n  ],\n";

  out += "  \"failed\": [";
  bool first = true;
  for (const RunRecord& r : outcome.runs) {
    if (r.ok) continue;
    if (!first) out += ", ";
    first = false;
    out += quoted(r.id);
  }
  out += "],\n";

  // Per-axis-value aggregates over the successful scenario rows; the
  // std::map keys the section in sorted order for byte stability.
  std::map<std::string, Aggregate> agg;
  for (const RunRecord& r : outcome.runs) {
    if (!r.ok || r.golden) continue;
    for (const CampaignAxisValue& a : r.axis) {
      Aggregate& g = agg[a.axis + "=" + a.label];
      g.runs += 1;
      g.events += r.events;
      g.modeled_time_s += r.modeled_time_s;
      g.load_imbalance += r.load_imbalance;
      g.parallel_efficiency += r.parallel_efficiency;
    }
  }
  out += "  \"aggregates\": {";
  first = true;
  for (const auto& [key, g] : agg) {
    out += first ? "\n" : ",\n";
    first = false;
    const double n = static_cast<double>(g.runs);
    out += "    " + quoted(key) + ": {\"runs\": " + std::to_string(g.runs) +
           ", \"events\": " + std::to_string(g.events) +
           ", \"modeled_time_s_mean\": " +
           obs::format_double(g.modeled_time_s / n) +
           ", \"load_imbalance_mean\": " +
           obs::format_double(g.load_imbalance / n) +
           ", \"parallel_efficiency_mean\": " +
           obs::format_double(g.parallel_efficiency / n) + "}";
  }
  out += agg.empty() ? "},\n" : "\n  },\n";

  out += "  \"golden\": {";
  first = true;
  for (const RunRecord& r : outcome.runs) {
    if (!r.has_checksum) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + quoted(r.id) + ": " + quoted(std::to_string(r.checksum));
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"timing\": {\"wall_s\": " + obs::format_double(outcome.wall_s) +
         ", \"workers\": " + std::to_string(outcome.workers) +
         ", \"run_wall_s\": [";
  for (std::size_t i = 0; i < outcome.runs.size(); ++i) {
    if (i) out += ", ";
    out += obs::format_double(outcome.runs[i].wall_s);
  }
  out += "]}\n}\n";
  return out;
}

std::string campaign_table(const CampaignSpec& spec,
                           const CampaignOutcome& outcome) {
  std::size_t id_width = 2;
  for (const RunRecord& r : outcome.runs) {
    id_width = std::max(id_width, r.id.size());
  }
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%-*s %-7s %10s %9s %8s %7s %6s %7s  %s\n",
                static_cast<int>(id_width), "id", "mapping", "events",
                "T(s)", "MLL(ms)", "imbal", "PE", "wall(s)", "status");
  std::string out = spec.name.empty() ? "" : "campaign: " + spec.name + "\n";
  out += buf;
  for (const RunRecord& r : outcome.runs) {
    std::string status = r.ok ? "ok" : "FAILED " + r.error;
    if (r.has_checksum) {
      status += " checksum=" + std::to_string(r.checksum);
    }
    std::snprintf(buf, sizeof buf,
                  "%-*s %-7s %10llu %9.3f %8.3f %7.3f %6.3f %7.2f  %s\n",
                  static_cast<int>(id_width), r.id.c_str(),
                  r.mapping.empty() ? "-" : r.mapping.c_str(),
                  static_cast<unsigned long long>(r.events),
                  r.modeled_time_s, r.mll_ms, r.load_imbalance,
                  r.parallel_efficiency, r.wall_s, status.c_str());
    out += buf;
  }
  return out;
}

}  // namespace massf
