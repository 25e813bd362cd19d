#include "campaign/campaign.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <tuple>
#include <utility>

namespace massf {
namespace {

std::string line_err(int line, const std::string& what) {
  return "line " + std::to_string(line) + ": " + what;
}

bool ignored_key(const std::string& key) { return key.rfind("x_", 0) == 0; }

bool parse_i64(const std::string& s, std::int64_t* out) {
  char* end = nullptr;
  *out = std::strtoll(s.c_str(), &end, 10);
  return !s.empty() && end == s.c_str() + s.size();
}

std::string resolve_include(const std::string& include_dir,
                            const std::string& path) {
  if (include_dir.empty() || path.empty() || path.front() == '/') return path;
  return include_dir + "/" + path;
}

std::string dirname_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

// DmlNode is move-only (unique_ptr children); expansion stamps each run's
// overrides onto its own copy of the base tree.
DmlNode clone_dml(const DmlNode& node) {
  DmlNode out;
  out.attributes.reserve(node.attributes.size());
  for (const DmlAttribute& a : node.attributes) {
    DmlAttribute copy;
    copy.key = a.key;
    copy.atom = a.atom;
    copy.line = a.line;
    if (a.child) {
      copy.child = std::make_unique<DmlNode>(clone_dml(*a.child));
    }
    out.attributes.push_back(std::move(copy));
  }
  return out;
}

// Sets `dotted` (path segments separated by '.') to `value` in the
// Experiment tree: existing attributes under the leaf key are replaced
// (all of them — `mapping` repeats), missing sub-blocks are created. The
// campaign-file line rides along so the strict scenario parser reports
// bad values against the campaign file.
void merge_atom(DmlNode* node, const std::string& dotted,
                const std::string& value, int line) {
  const auto dot = dotted.find('.');
  if (dot == std::string::npos) {
    std::erase_if(node->attributes, [&](const DmlAttribute& a) {
      return a.key == dotted;
    });
    DmlAttribute a;
    a.key = dotted;
    a.atom = value;
    a.line = line;
    node->attributes.push_back(std::move(a));
    return;
  }
  const std::string head = dotted.substr(0, dot);
  const std::string rest = dotted.substr(dot + 1);
  for (DmlAttribute& a : node->attributes) {
    if (a.key == head && a.child) {
      merge_atom(a.child.get(), rest, value, line);
      return;
    }
  }
  merge_atom(&node->add_child(head), rest, value, line);
}

/// One sweep axis: a name plus its points; each point is a list of
/// (dotted key, value, line) assignments and a label for the run id.
struct AxisPoint {
  std::string label;
  std::vector<std::tuple<std::string, std::string, int>> assignments;
};
struct Axis {
  std::string name;
  std::vector<AxisPoint> points;
};

bool unknown_key(const DmlAttribute& a, const char* where,
                 std::string* error) {
  if (error) {
    *error = line_err(a.line, std::string("unknown key '") + a.key +
                                  "' in " + where +
                                  " (prefix with x_ to ignore)");
  }
  return false;
}

bool parse_sweep(const DmlNode& node, std::vector<Axis>* axes,
                 std::string* error) {
  Axis over{"override", {}}, mapping{"mapping", {}}, threads{"threads", {}},
      shards{"shards", {}}, seed{"seed", {}};
  for (const DmlAttribute& a : node.attributes) {
    if (ignored_key(a.key)) continue;
    if (a.key == "override" && a.child) {
      AxisPoint p;
      for (const DmlAttribute& o : a.child->attributes) {
        if (ignored_key(o.key)) continue;
        if (o.child) {
          if (error) {
            *error = line_err(o.line, "override entries must be scalar "
                                      "(use dotted keys for sub-blocks)");
          }
          return false;
        }
        if (o.key == "tag") {
          p.label = o.atom;
        } else {
          p.assignments.emplace_back(o.key, o.atom, o.line);
        }
      }
      if (p.label.empty()) p.label = "o" + std::to_string(over.points.size());
      over.points.push_back(std::move(p));
    } else if (a.key == "seed" || a.key == "threads" || a.key == "shards") {
      std::int64_t v = 0;
      if (!parse_i64(a.atom, &v) || (a.key == "threads" && v < 0) ||
          (a.key == "shards" && v < 1)) {
        if (error) {
          *error = line_err(
              a.line, "'" + a.key + "' wants a " +
                          (a.key == "shards" ? "positive" : "non-negative") +
                          " integer, got '" + a.atom + "'");
        }
        return false;
      }
      Axis& ax = a.key == "seed" ? seed
                 : a.key == "threads" ? threads
                                      : shards;
      const char* dotted = a.key == "seed"      ? "seed"
                           : a.key == "threads" ? "executor_threads"
                                                : "executor_shards";
      ax.points.push_back(
          {a.atom, {{std::string(dotted), a.atom, a.line}}});
    } else if (a.key == "mapping") {
      // Value validity is checked when the merged run re-parses, with
      // this atom's line.
      mapping.points.push_back({a.atom, {{a.key, a.atom, a.line}}});
    } else if (a.key == "sync") {
      if (error) *error = line_err(a.line, kSyncRemoved);
      return false;
    } else {
      if (error) {
        *error = line_err(a.line, "unknown sweep axis '" + a.key +
                                      "' (seed|threads|shards|mapping|"
                                      "override)");
      }
      return false;
    }
  }
  for (Axis* ax : {&over, &mapping, &threads, &shards, &seed}) {
    if (!ax->points.empty()) axes->push_back(std::move(*ax));
  }
  return true;
}

}  // namespace

std::optional<CampaignSpec> parse_campaign(std::string_view text,
                                           std::string* error,
                                           const std::string& include_dir) {
  DmlParseError perr;
  const auto root = parse_dml(text, &perr);
  if (!root) {
    if (error) *error = line_err(perr.line, perr.message);
    return std::nullopt;
  }
  const DmlNode* c = root->find("Campaign");
  if (c == nullptr) {
    if (error) *error = "missing top-level Campaign [ ] block";
    return std::nullopt;
  }

  CampaignSpec spec;
  std::optional<DmlNode> base;      // root holding one Experiment attribute
  std::string base_include_dir = include_dir;
  int base_line = 0;
  std::vector<Axis> axes;

  for (const DmlAttribute& a : c->attributes) {
    if (ignored_key(a.key)) continue;
    if (a.key == "Experiment" && a.child) {
      if (base) {
        if (error) {
          *error = line_err(a.line,
                            "both `scenario` and an embedded "
                            "Experiment [ ] block given");
        }
        return std::nullopt;
      }
      DmlNode wrapped;
      DmlAttribute exp;
      exp.key = "Experiment";
      exp.line = a.line;
      exp.child = std::make_unique<DmlNode>(clone_dml(*a.child));
      wrapped.attributes.push_back(std::move(exp));
      base = std::move(wrapped);
      base_line = a.line;
    } else if (a.child) {
      if (a.key == "sweep") {
        if (!parse_sweep(*a.child, &axes, error)) return std::nullopt;
      } else {
        unknown_key(a, "Campaign", error);
        return std::nullopt;
      }
    } else if (a.key == "name") {
      spec.name = a.atom;
    } else if (a.key == "scenario") {
      if (base) {
        if (error) {
          *error = line_err(a.line,
                            "both `scenario` and an embedded "
                            "Experiment [ ] block given");
        }
        return std::nullopt;
      }
      spec.scenario = a.atom;
      const std::string path = resolve_include(include_dir, a.atom);
      std::ifstream in(path);
      if (!in) {
        if (error) {
          *error = line_err(a.line, "cannot open scenario '" + a.atom + "'");
        }
        return std::nullopt;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      DmlParseError serr;
      auto sroot = parse_dml(buf.str(), &serr);
      if (!sroot) {
        if (error) {
          *error = line_err(a.line, "scenario '" + a.atom + "': " +
                                        line_err(serr.line, serr.message));
        }
        return std::nullopt;
      }
      base = std::move(*sroot);
      base_include_dir = dirname_of(path);
      base_line = a.line;
    } else if (a.key == "workers") {
      std::int64_t v = 0;
      if (!parse_i64(a.atom, &v) || v < 1) {
        if (error) {
          *error = line_err(a.line, "'workers' must be an integer >= 1");
        }
        return std::nullopt;
      }
      spec.workers = static_cast<std::int32_t>(v);
    } else if (a.key == "golden") {
      std::int64_t v = 0;
      if (!parse_i64(a.atom, &v)) {
        if (error) {
          *error = line_err(a.line, "'golden' wants an integer, got '" +
                                        a.atom + "'");
        }
        return std::nullopt;
      }
      spec.golden = v != 0;
    } else {
      unknown_key(a, "Campaign", error);
      return std::nullopt;
    }
  }

  if (!base) {
    if (error) {
      *error = "missing a base scenario (`scenario` file or an embedded "
               "Experiment [ ] block)";
    }
    return std::nullopt;
  }
  // Validate the base once on its own, so a broken base file is reported
  // directly rather than once per expanded run.
  {
    std::string berr;
    if (!scenario_spec_from_dml(*base, &berr, base_include_dir)) {
      if (error) {
        *error = spec.scenario.empty()
                     ? berr
                     : line_err(base_line, "scenario '" + spec.scenario +
                                               "': " + berr);
      }
      return std::nullopt;
    }
  }

  // Cross-product expansion: odometer over the non-empty axes, first axis
  // slowest, point order as written.
  std::vector<std::size_t> idx(axes.size(), 0);
  while (true) {
    DmlNode merged = clone_dml(*base);
    DmlNode* exp = nullptr;
    for (DmlAttribute& a : merged.attributes) {
      if (a.key == "Experiment" && a.child) exp = a.child.get();
    }
    CampaignRun run;
    for (std::size_t i = 0; i < axes.size(); ++i) {
      const AxisPoint& p = axes[i].points[idx[i]];
      for (const auto& [key, value, line] : p.assignments) {
        merge_atom(exp, key, value, line);
      }
      run.axis.push_back({axes[i].name, p.label});
      if (!run.id.empty()) run.id += ",";
      run.id += axes[i].name + "=" + p.label;
    }
    if (run.id.empty()) run.id = "base";
    std::string rerr;
    auto parsed = scenario_spec_from_dml(merged, &rerr, base_include_dir);
    if (!parsed) {
      if (error) *error = rerr;
      return std::nullopt;
    }
    run.spec = std::move(*parsed);
    spec.runs.push_back(std::move(run));

    // Advance the odometer (last axis fastest); done when it wraps.
    bool wrapped = true;
    for (std::size_t i = axes.size(); i-- > 0;) {
      if (++idx[i] < axes[i].points.size()) {
        wrapped = false;
        break;
      }
      idx[i] = 0;
    }
    if (wrapped) break;
  }

  if (spec.golden) {
    // One calibration row per distinct (threads, shards) the expansion
    // exercises, in first-appearance order. The shards suffix only
    // appears for sharded rows.
    std::vector<std::pair<std::int32_t, std::int32_t>> seen;
    for (const CampaignRun& r : spec.runs) {
      const auto key = std::make_pair(r.spec.options.executor_threads,
                                      r.spec.options.executor_shards);
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
      seen.push_back(key);
      CampaignRun g;
      g.golden = true;
      g.spec.options.executor_threads = key.first;
      g.spec.options.executor_shards = key.second;
      g.id = "golden[threads=" + std::to_string(key.first);
      if (key.second > 1) g.id += ",shards=" + std::to_string(key.second);
      g.id += "]";
      spec.runs.push_back(std::move(g));
    }
  }
  return spec;
}

std::optional<CampaignSpec> load_campaign_file(const std::string& path,
                                               std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_campaign(buf.str(), error, dirname_of(path));
}

}  // namespace massf
