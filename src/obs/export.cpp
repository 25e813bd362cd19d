#include "obs/export.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "obs/metrics.hpp"

namespace massf::obs {

std::string escape_json(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

bool excluded(std::string_view name,
              std::span<const std::string_view> exclude) {
  for (const std::string_view e : exclude) {
    if (e.empty()) continue;
    if (e.back() == '.' ? name.substr(0, e.size()) == e : name == e) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::string format_double(double v) {
  if (std::isnan(v)) return "0";
  if (std::isinf(v)) return v > 0 ? "1e308" : "-1e308";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string to_json(const Registry& registry) {
  return to_json_excluding(registry, {});
}

std::string to_json_excluding(const Registry& registry,
                              std::span<const std::string_view> exclude) {
  std::string out = "{\n  \"schema\": \"massf.metrics.v1\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : registry.counters()) {
    if (excluded(name, exclude)) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + escape_json(name) + "\": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : registry.gauges()) {
    if (excluded(name, exclude)) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + escape_json(name) + "\": " + format_double(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& h : registry.histograms()) {
    if (excluded(h.name, exclude)) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + escape_json(h.name) + "\": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i) out += ", ";
      out += format_double(h.bounds[i]);
    }
    out += "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i) out += ", ";
      out += std::to_string(h.counts[i]);
    }
    out += "], \"count\": " + std::to_string(h.count) +
           ", \"sum\": " + format_double(h.sum) + "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = written == content.size() && std::fclose(f) == 0;
  if (written != content.size()) std::fclose(f);
  return ok;
}

}  // namespace massf::obs
