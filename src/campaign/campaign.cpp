#include "campaign/campaign.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
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

/// One sweep axis: a name plus its points; each point is an override body
/// (merge_override), a label for the run id and the line that wrote it.
struct AxisPoint {
  std::string label;
  DmlNode assignments;
  int line = 0;
};
struct Axis {
  std::string name;
  std::vector<AxisPoint> points;

  /// Appends `p` unless the axis already has its label: two points with
  /// one label would share a run id, and the roll-up would merge them.
  bool add(AxisPoint p, std::string* error) {
    for (const AxisPoint& q : points) {
      if (q.label != p.label) continue;
      if (error) {
        *error = line_err(p.line, "duplicate " + name + " label '" +
                                      p.label + "' (first at line " +
                                      std::to_string(q.line) + ")");
      }
      return false;
    }
    points.push_back(std::move(p));
    return true;
  }
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

// A one-atom axis point: `key` set to the sweep atom's value, at its line.
AxisPoint scalar_point(const DmlAttribute& a, const char* key) {
  AxisPoint p{a.atom, {}, a.line};
  p.assignments.add_atom(key, a.atom);
  p.assignments.attributes.back().line = a.line;
  return p;
}

bool parse_sweep(const DmlNode& node, std::vector<Axis>* axes,
                 std::string* error) {
  Axis over{"override", {}}, mapping{"mapping", {}}, threads{"threads", {}},
      seed{"seed", {}};
  for (const DmlAttribute& a : node.attributes) {
    if (ignored_key(a.key)) continue;
    if (a.key == "override" && a.child) {
      AxisPoint p{"", clone_dml(*a.child), a.line};
      const auto is_tag = [](const DmlAttribute& o) {
        return o.key == "tag" && !o.child;
      };
      for (const DmlAttribute& o : p.assignments.attributes) {
        if (is_tag(o)) p.label = o.atom;
      }
      std::erase_if(p.assignments.attributes, is_tag);
      if (p.label.empty()) {
        p.label = std::to_string(over.points.size());
        p.label.insert(p.label.begin(), 'o');
      }
      if (!over.add(std::move(p), error)) return false;
    } else if (a.key == "seed" || a.key == "threads") {
      std::int64_t v = 0;
      if (!parse_i64(a.atom, &v) || (a.key == "threads" && v < 0)) {
        if (error) {
          *error = line_err(a.line, "'" + a.key +
                                        "' wants a non-negative integer, "
                                        "got '" + a.atom + "'");
        }
        return false;
      }
      Axis& axis = a.key == "seed" ? seed : threads;
      const char* key = a.key == "seed" ? "seed" : "executor_threads";
      if (!axis.add(scalar_point(a, key), error)) return false;
    } else if (a.key == "mapping") {
      // Value validity is checked when the merged run re-parses, with
      // this atom's line.
      if (!mapping.add(scalar_point(a, "mapping"), error)) return false;
    } else {
      if (error) {
        *error = line_err(a.line, "unknown sweep axis '" + a.key +
                                      "' (seed|threads|mapping|"
                                      "override)");
      }
      return false;
    }
  }
  for (Axis* ax : {&over, &mapping, &threads, &seed}) {
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
    CampaignRun run;
    for (std::size_t i = 0; i < axes.size(); ++i) {
      const AxisPoint& p = axes[i].points[idx[i]];
      if (!merge_override(&merged, p.assignments, error)) return std::nullopt;
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
    // One calibration row per distinct thread count the expansion
    // exercises, in first-appearance order. The counts are collected
    // first: appending to spec.runs while iterating it would invalidate
    // the iteration.
    std::vector<std::int32_t> thread_counts;
    for (const CampaignRun& r : spec.runs) {
      const std::int32_t threads = r.spec.options.executor_threads;
      if (std::find(thread_counts.begin(), thread_counts.end(), threads) ==
          thread_counts.end()) {
        thread_counts.push_back(threads);
      }
    }
    for (const std::int32_t threads : thread_counts) {
      CampaignRun g;
      g.golden = true;
      g.spec.options.executor_threads = threads;
      g.id = "golden[threads=" + std::to_string(threads) + "]";
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
