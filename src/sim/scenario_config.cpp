#include "sim/scenario_config.hpp"

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "fault/fault.hpp"

namespace massf {
namespace {

// Atoms with no source line (line 0: an override given on the command
// line) report the bare message.
std::string line_err(int line, const std::string& what) {
  return line > 0 ? "line " + std::to_string(line) + ": " + what : what;
}

bool parse_i64(const std::string& s, std::int64_t* out) {
  char* end = nullptr;
  *out = std::strtoll(s.c_str(), &end, 10);
  return !s.empty() && end == s.c_str() + s.size();
}

bool parse_f64(const std::string& s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return !s.empty() && end == s.c_str() + s.size();
}

bool ignored_key(const std::string& key) {
  // The forward-compatibility escape hatch: x_-prefixed keys parse (and
  // are dropped) everywhere, so a file can carry knobs for newer binaries.
  return key.rfind("x_", 0) == 0;
}

// Fetches a typed atom value, or fails with the attribute's source line.
bool atom_int(const DmlAttribute& a, std::int64_t* out, std::string* error) {
  if (!parse_i64(a.atom, out)) {
    if (error) {
      *error = line_err(a.line,
                        "'" + a.key + "' wants an integer, got '" + a.atom +
                            "'");
    }
    return false;
  }
  return true;
}

bool atom_double(const DmlAttribute& a, double* out, std::string* error) {
  if (!parse_f64(a.atom, out)) {
    if (error) {
      *error = line_err(a.line,
                        "'" + a.key + "' wants a number, got '" + a.atom +
                            "'");
    }
    return false;
  }
  return true;
}

// An integer atom that counts something (>= 0).
bool atom_count(const DmlAttribute& a, std::int64_t* out,
                std::string* error) {
  if (!atom_int(a, out, error)) return false;
  if (*out >= 0) return true;
  if (error) *error = line_err(a.line, "'" + a.key + "' must be >= 0");
  return false;
}

// A number atom that must be > 0 (a duration, a mean).
bool atom_positive(const DmlAttribute& a, double* out, std::string* error) {
  if (!atom_double(a, out, error)) return false;
  if (*out > 0) return true;
  if (error) *error = line_err(a.line, "'" + a.key + "' must be > 0");
  return false;
}

bool unknown_key(const DmlAttribute& a, const char* where,
                 std::string* error) {
  if (error) {
    *error = line_err(a.line, std::string("unknown key '") + a.key +
                                  "' in " + where +
                                  " (prefix with x_ to ignore)");
  }
  return false;
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

bool parse_background(const DmlNode& node, ScenarioOptions* o,
                      std::string* error) {
  for (const DmlAttribute& a : node.attributes) {
    if (ignored_key(a.key)) continue;
    if (a.child) return unknown_key(a, "background_flows [ ]", error);
    std::int64_t i = 0;
    double d = 0;
    if (a.key == "sources") {
      if (!atom_count(a, &i, error)) return false;
      o->num_bg_sources = static_cast<std::int32_t>(i);
    } else if (a.key == "think_time_s") {
      if (!atom_positive(a, &d, error)) return false;
      o->background.think_time_mean_s = d;
    } else if (a.key == "mean_bytes") {
      if (!atom_double(a, &d, error)) return false;
      if (d < 1) {
        if (error) *error = line_err(a.line, "'mean_bytes' must be >= 1");
        return false;
      }
      o->background.flow_mean_bytes = d;
    } else if (a.key == "recompute_every") {
      if (!atom_int(a, &i, error)) return false;
      if (i < 1) {
        if (error) *error = line_err(a.line, "'recompute_every' must be >= 1");
        return false;
      }
      o->netsim.link_model.fluid_recompute_every = static_cast<std::int32_t>(i);
    } else if (a.key == "stall_timeout_s") {
      if (!atom_positive(a, &d, error)) return false;
      o->netsim.link_model.fluid_stall_timeout_s = d;
    } else if (a.key == "rate_cap_bps") {
      if (!atom_double(a, &d, error)) return false;
      if (d < 0) {
        if (error) *error = line_err(a.line, "'rate_cap_bps' must be >= 0");
        return false;
      }
      o->netsim.link_model.fluid_flow_rate_cap_bps = d;
    } else {
      return unknown_key(a, "background_flows [ ]", error);
    }
  }
  return true;
}

bool parse_guard(const DmlNode& node, guard::GuardOptions* o,
                 std::string* error) {
  for (const DmlAttribute& a : node.attributes) {
    if (ignored_key(a.key)) continue;
    if (a.child) return unknown_key(a, "guard [ ]", error);
    std::int64_t i = 0;
    double d = 0;
    if (a.key == "enabled") {
      if (!atom_int(a, &i, error)) return false;
      o->enabled = i != 0;
    } else if (a.key == "deadline_s") {
      if (!atom_positive(a, &d, error)) return false;
      o->stall_deadline_s = d;
    } else if (a.key == "dump") {
      o->dump_path = a.atom;
    } else {
      return unknown_key(a, "guard [ ]", error);
    }
  }
  return true;
}

bool parse_faults(const DmlNode& node, const std::string& include_dir,
                  FaultSchedule* out, std::string* error) {
  for (const DmlAttribute& a : node.attributes) {
    if (ignored_key(a.key)) continue;
    if (a.child) return unknown_key(a, "faults [ ]", error);
    if (a.key == "file") {
      const std::string path = resolve_include(include_dir, a.atom);
      std::ifstream in(path);
      if (!in) {
        if (error) {
          *error = line_err(a.line,
                            "cannot open fault file '" + a.atom + "'");
        }
        return false;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      std::string what;
      const auto parsed = parse_fault_schedule(buf.str(), &what);
      if (!parsed) {
        // `what` carries the fault parser's own "line N: ..." for the
        // included file; keep both coordinates.
        if (error) {
          *error = line_err(a.line,
                            "fault file '" + a.atom + "': " + what);
        }
        return false;
      }
      out->append(*parsed);
    } else if (a.key == "event") {
      std::string what;
      const auto parsed = parse_fault_schedule(a.atom, &what);
      if (!parsed) {
        // One embedded line: strip the fault parser's "line 1: " so the
        // message points at the scenario file's line instead.
        const std::string prefix = "line 1: ";
        if (what.rfind(prefix, 0) == 0) what.erase(0, prefix.size());
        if (error) {
          *error = line_err(a.line, "fault event: " + what);
        }
        return false;
      }
      out->append(*parsed);
    } else {
      return unknown_key(a, "faults [ ]", error);
    }
  }
  return true;
}

// Sets `dotted` (path segments separated by '.') under `node` to the
// atom's value, creating missing sub-blocks with the atom's line. With
// `replace`, every existing attribute under the leaf key goes first (all
// of them: `mapping` repeats).
void merge_atom(DmlNode* node, std::string_view dotted,
                const DmlAttribute& atom, bool replace) {
  const auto dot = dotted.find('.');
  if (dot == std::string_view::npos) {
    if (replace) {
      std::erase_if(node->attributes, [&](const DmlAttribute& a) {
        return a.key == dotted;
      });
    }
    DmlAttribute a;
    a.key = std::string(dotted);
    a.atom = atom.atom;
    a.line = atom.line;
    node->attributes.push_back(std::move(a));
    return;
  }
  const std::string_view head = dotted.substr(0, dot);
  const std::string_view rest = dotted.substr(dot + 1);
  for (DmlAttribute& a : node->attributes) {
    if (a.key == head && a.child) {
      merge_atom(a.child.get(), rest, atom, replace);
      return;
    }
  }
  DmlNode& block = node->add_child(std::string(head));
  node->attributes.back().line = atom.line;
  merge_atom(&block, rest, atom, replace);
}

}  // namespace

std::optional<MappingKind> mapping_kind_from_name(const std::string& name) {
  for (const MappingKind k :
       {MappingKind::kTop, MappingKind::kTop2, MappingKind::kProf,
        MappingKind::kProf2, MappingKind::kHTop, MappingKind::kHProf,
        MappingKind::kPlace, MappingKind::kGreedy}) {
    if (name == mapping_kind_name(k)) return k;
  }
  return std::nullopt;
}

DmlNode scenario_spec_to_dml(const ScenarioSpec& spec) {
  const ScenarioOptions& o = spec.options;
  DmlNode root;
  DmlNode& e = root.add_child("Experiment");
  if (!spec.name.empty()) e.add_atom("name", spec.name);
  e.add_atom("multi_as", static_cast<std::int64_t>(o.multi_as ? 1 : 0));
  e.add_atom("routers", static_cast<std::int64_t>(o.num_routers));
  e.add_atom("hosts", static_cast<std::int64_t>(o.num_hosts));
  e.add_atom("as", static_cast<std::int64_t>(o.num_as));
  e.add_atom("clients", static_cast<std::int64_t>(o.num_clients));
  e.add_atom("servers", static_cast<std::int64_t>(o.num_servers));
  e.add_atom("app", std::string(o.app == AppKind::kScaLapack ? "scalapack"
                                : o.app == AppKind::kGridNpb ? "gridnpb"
                                                             : "none"));
  e.add_atom("app_hosts", static_cast<std::int64_t>(o.num_app_hosts));
  e.add_atom("engines", static_cast<std::int64_t>(o.num_engines));
  e.add_atom("seconds", to_seconds(o.end_time));
  e.add_atom("profile_seconds", to_seconds(o.profile_end_time));
  e.add_atom("think_time_s", o.http.think_time_mean_s);
  e.add_atom("file_mean_bytes", o.http.file_mean_bytes);
  e.add_atom("executor_threads",
             static_cast<std::int64_t>(o.executor_threads));
  e.add_atom("load_bin_s", to_seconds(o.load_bin));
  e.add_atom("seed", static_cast<std::int64_t>(o.seed));
  e.add_atom("link_model",
             std::string(link_model_kind_name(o.netsim.link_model.kind)));
  for (const MappingKind k : spec.mappings) {
    e.add_atom("mapping", std::string(mapping_kind_name(k)));
  }

  DmlNode& bg = e.add_child("background_flows");
  bg.add_atom("sources", static_cast<std::int64_t>(o.num_bg_sources));
  bg.add_atom("think_time_s", o.background.think_time_mean_s);
  bg.add_atom("mean_bytes", o.background.flow_mean_bytes);
  bg.add_atom("recompute_every",
              static_cast<std::int64_t>(o.netsim.link_model.fluid_recompute_every));
  bg.add_atom("stall_timeout_s", o.netsim.link_model.fluid_stall_timeout_s);
  bg.add_atom("rate_cap_bps", o.netsim.link_model.fluid_flow_rate_cap_bps);

  DmlNode& g = e.add_child("guard");
  g.add_atom("enabled", static_cast<std::int64_t>(o.guard.enabled ? 1 : 0));
  g.add_atom("deadline_s", o.guard.stall_deadline_s);
  g.add_atom("dump", o.guard.dump_path);

  if (!o.faults.empty()) {
    DmlNode& f = e.add_child("faults");
    // One `event` atom per schedule line; to_text sorts by time, so the
    // emission is canonical and parse -> to_dml is a fixed point.
    std::istringstream lines(o.faults.to_text());
    std::string line;
    while (std::getline(lines, line)) {
      if (!line.empty()) f.add_atom("event", line);
    }
  }
  return root;
}

std::optional<ScenarioSpec> scenario_spec_from_dml(
    const DmlNode& root, std::string* error,
    const std::string& include_dir) {
  const DmlNode* e = root.find("Experiment");
  if (e == nullptr) {
    if (error) *error = "missing top-level Experiment [ ] block";
    return std::nullopt;
  }
  ScenarioSpec spec;
  ScenarioOptions& o = spec.options;
  spec.mappings.clear();

  for (const DmlAttribute& a : e->attributes) {
    if (ignored_key(a.key)) continue;
    if (a.child) {
      if (a.key == "background_flows") {
        if (!parse_background(*a.child, &o, error)) {
          return std::nullopt;
        }
      } else if (a.key == "guard") {
        if (!parse_guard(*a.child, &o.guard, error)) {
          return std::nullopt;
        }
      } else if (a.key == "faults") {
        if (!parse_faults(*a.child, include_dir, &o.faults, error)) {
          return std::nullopt;
        }
      } else {
        unknown_key(a, "Experiment", error);
        return std::nullopt;
      }
      continue;
    }

    std::int64_t i = 0;
    double d = 0;
    if (a.key == "name") {
      spec.name = a.atom;
    } else if (a.key == "multi_as") {
      if (!atom_int(a, &i, error)) return std::nullopt;
      o.multi_as = i != 0;
    } else if (a.key == "routers") {
      if (!atom_int(a, &i, error)) return std::nullopt;
      o.num_routers = static_cast<std::int32_t>(i);
    } else if (a.key == "hosts") {
      if (!atom_int(a, &i, error)) return std::nullopt;
      o.num_hosts = static_cast<std::int32_t>(i);
    } else if (a.key == "as") {
      if (!atom_int(a, &i, error)) return std::nullopt;
      o.num_as = static_cast<std::int32_t>(i);
    } else if (a.key == "clients") {
      if (!atom_count(a, &i, error)) return std::nullopt;
      o.num_clients = static_cast<std::int32_t>(i);
    } else if (a.key == "servers") {
      if (!atom_count(a, &i, error)) return std::nullopt;
      o.num_servers = static_cast<std::int32_t>(i);
    } else if (a.key == "app") {
      if (a.atom == "scalapack" || a.atom == "ScaLapack") {
        o.app = AppKind::kScaLapack;
      } else if (a.atom == "gridnpb" || a.atom == "GridNPB") {
        o.app = AppKind::kGridNpb;
      } else if (a.atom == "none") {
        o.app = AppKind::kNone;
      } else {
        if (error) {
          *error = line_err(a.line, "unknown app '" + a.atom +
                                        "' (scalapack|gridnpb|none)");
        }
        return std::nullopt;
      }
    } else if (a.key == "app_hosts") {
      if (!atom_count(a, &i, error)) return std::nullopt;
      o.num_app_hosts = static_cast<std::int32_t>(i);
    } else if (a.key == "engines") {
      if (!atom_int(a, &i, error)) return std::nullopt;
      o.num_engines = static_cast<std::int32_t>(i);
    } else if (a.key == "seconds") {
      if (!atom_positive(a, &d, error)) return std::nullopt;
      o.end_time = from_seconds(d);
    } else if (a.key == "profile_seconds") {
      if (!atom_positive(a, &d, error)) return std::nullopt;
      o.profile_end_time = from_seconds(d);
    } else if (a.key == "think_time_s") {
      if (!atom_double(a, &d, error)) return std::nullopt;
      o.http.think_time_mean_s = d;
    } else if (a.key == "file_mean_bytes") {
      if (!atom_double(a, &d, error)) return std::nullopt;
      o.http.file_mean_bytes = d;
    } else if (a.key == "executor_threads") {
      if (!atom_count(a, &i, error)) return std::nullopt;
      o.executor_threads = static_cast<std::int32_t>(i);
    } else if (a.key == "load_bin_s") {
      if (!atom_double(a, &d, error)) return std::nullopt;
      o.load_bin = from_seconds(d);
    } else if (a.key == "seed") {
      if (!atom_int(a, &i, error)) return std::nullopt;
      o.seed = static_cast<std::uint64_t>(i);
    } else if (a.key == "link_model") {
      if (!parse_link_model_kind(a.atom, &o.netsim.link_model.kind)) {
        if (error) {
          *error = line_err(a.line, "unknown link_model '" + a.atom +
                                        "' (packet|hybrid)");
        }
        return std::nullopt;
      }
    } else if (a.key == "mapping") {
      const auto k = mapping_kind_from_name(a.atom);
      if (!k) {
        if (error) {
          *error = line_err(a.line, "unknown mapping '" + a.atom + "'");
        }
        return std::nullopt;
      }
      spec.mappings.push_back(*k);
    } else {
      unknown_key(a, "Experiment", error);
      return std::nullopt;
    }
  }

  if (spec.mappings.empty()) spec.mappings = {MappingKind::kHProf};
  if (o.num_routers < 2 || o.num_hosts < 1 || o.num_engines < 1) {
    if (error) *error = "routers/hosts/engines out of range";
    return std::nullopt;
  }
  return spec;
}

std::optional<ScenarioSpec> parse_scenario(std::string_view text,
                                           std::string* error,
                                           const std::string& include_dir) {
  DmlParseError perr;
  const auto root = parse_dml(text, &perr);
  if (!root) {
    if (error) *error = line_err(perr.line, perr.message);
    return std::nullopt;
  }
  return scenario_spec_from_dml(*root, error, include_dir);
}

std::optional<ScenarioSpec> load_scenario_file(const std::string& path,
                                               std::string* error,
                                               std::string_view override_text) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  DmlParseError perr;
  auto root = parse_dml(buf.str(), &perr);
  if (!root) {
    if (error) *error = line_err(perr.line, perr.message);
    return std::nullopt;
  }
  if (!override_text.empty()) {
    auto body = parse_dml(override_text, &perr);
    if (!body) {
      if (error) *error = perr.message;
      return std::nullopt;
    }
    // The override is not part of the file: no line of it to report.
    for (DmlAttribute& a : body->attributes) a.line = 0;
    if (!merge_override(&*root, *body, error)) return std::nullopt;
  }
  return scenario_spec_from_dml(*root, error, dirname_of(path));
}

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

bool merge_override(DmlNode* root, const DmlNode& body, std::string* error) {
  DmlNode* exp = nullptr;
  for (DmlAttribute& a : root->attributes) {
    if (a.key == "Experiment" && a.child) {
      exp = a.child.get();
      break;
    }
  }
  if (exp == nullptr) {
    if (error) *error = "missing top-level Experiment [ ] block";
    return false;
  }
  std::set<std::string> replaced;  // keys whose base atoms are gone
  for (const DmlAttribute& a : body.attributes) {
    if (ignored_key(a.key)) continue;
    if (a.child) {
      if (error) {
        *error = line_err(a.line, "override entries must be scalar (use "
                                  "dotted keys for sub-blocks)");
      }
      return false;
    }
    merge_atom(exp, a.key, a, replaced.insert(a.key).second);
  }
  return true;
}

}  // namespace massf
