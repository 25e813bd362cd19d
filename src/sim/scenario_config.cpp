#include "sim/scenario_config.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/flags.hpp"

namespace massf {
namespace {

// ---- schema table -----------------------------------------------------------
//
// Emission order. Every atom the parser accepts (and only those) appears
// here; the strict parser, the serializer, and the flag cross-check test
// all read this table, so a knob added in one place shows up everywhere
// or the tests fail.
constexpr ScenarioSchemaKey kSchema[] = {
    {"", "name", nullptr},
    {"", "multi_as", nullptr},
    {"", "routers", nullptr},
    {"", "hosts", nullptr},
    {"", "as", nullptr},
    {"", "clients", nullptr},
    {"", "servers", nullptr},
    {"", "app", nullptr},
    {"", "app_hosts", nullptr},
    {"", "engines", nullptr},
    {"", "seconds", nullptr},
    {"", "profile_seconds", nullptr},
    {"", "think_time_s", nullptr},
    {"", "file_mean_bytes", nullptr},
    {"", "executor_threads", nullptr},
    {"", "load_bin_s", nullptr},
    {"", "seed", nullptr},
    {"", "link_model", "link-model"},
    {"", "mapping", "mapping"},
    {"background_flows", "sources", nullptr},
    {"background_flows", "think_time_s", nullptr},
    {"background_flows", "mean_bytes", nullptr},
    {"background_flows", "fidelity", nullptr},
    {"background_flows", "recompute_every", nullptr},
    {"background_flows", "stall_timeout_s", nullptr},
    {"background_flows", "rate_cap_bps", nullptr},
    {"rebalance", "enabled", "rebalance"},
    {"rebalance", "threshold", "rebalance-threshold"},
    {"rebalance", "every", "rebalance-every"},
    {"rebalance", "sustain", "rebalance-sustain"},
    {"rebalance", "max_moves", "rebalance-max-moves"},
    {"rebalance", "fm_tolerance", nullptr},
    {"rebalance", "fm_passes", nullptr},
    {"ckpt", "every", "ckpt-every"},
    {"ckpt", "path", "ckpt-path"},
    {"ckpt", "stop_after", "ckpt-stop"},
    {"ckpt", "restore", "restore"},
    {"guard", "enabled", "guard"},
    {"guard", "deadline_s", "guard-deadline"},
    {"guard", "poll_s", nullptr},
    {"guard", "dump", "guard-dump"},
    {"guard", "policy", "guard-policy"},
    {"guard", "retries", "guard-retries"},
    {"faults", "file", "faults"},
    {"faults", "event", nullptr},
};

std::string line_err(int line, const std::string& what) {
  return "line " + std::to_string(line) + ": " + what;
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
      if (!atom_int(a, &i, error)) return false;
      if (i < 0) {
        if (error) *error = line_err(a.line, "'sources' must be >= 0");
        return false;
      }
      o->num_bg_sources = static_cast<std::int32_t>(i);
    } else if (a.key == "think_time_s") {
      if (!atom_double(a, &d, error)) return false;
      if (d <= 0) {
        if (error) *error = line_err(a.line, "'think_time_s' must be > 0");
        return false;
      }
      o->background.think_time_mean_s = d;
    } else if (a.key == "mean_bytes") {
      if (!atom_double(a, &d, error)) return false;
      if (d < 1) {
        if (error) *error = line_err(a.line, "'mean_bytes' must be >= 1");
        return false;
      }
      o->background.flow_mean_bytes = d;
    } else if (a.key == "fidelity") {
      if (a.atom == "flow") {
        o->background.flow_fidelity = true;
      } else if (a.atom == "packet") {
        o->background.flow_fidelity = false;
      } else {
        if (error) {
          *error = line_err(a.line, "unknown fidelity '" + a.atom +
                                        "' (flow|packet)");
        }
        return false;
      }
    } else if (a.key == "recompute_every") {
      if (!atom_int(a, &i, error)) return false;
      if (i < 1) {
        if (error) *error = line_err(a.line, "'recompute_every' must be >= 1");
        return false;
      }
      o->netsim.link_model.fluid_recompute_every = static_cast<std::int32_t>(i);
    } else if (a.key == "stall_timeout_s") {
      if (!atom_double(a, &d, error)) return false;
      if (d <= 0) {
        if (error) *error = line_err(a.line, "'stall_timeout_s' must be > 0");
        return false;
      }
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

bool parse_rebalance(const DmlNode& node, RebalanceOptions* o,
                     std::string* error) {
  for (const DmlAttribute& a : node.attributes) {
    if (ignored_key(a.key)) continue;
    if (a.child) return unknown_key(a, "rebalance [ ]", error);
    std::int64_t i = 0;
    double d = 0;
    if (a.key == "enabled") {
      if (!atom_int(a, &i, error)) return false;
      o->enabled = i != 0;
    } else if (a.key == "threshold") {
      if (!atom_double(a, &d, error)) return false;
      if (d < 1.0) {
        if (error) *error = line_err(a.line, "'threshold' must be >= 1.0");
        return false;
      }
      o->threshold = d;
    } else if (a.key == "every") {
      if (!atom_int(a, &i, error)) return false;
      if (i < 1) {
        if (error) *error = line_err(a.line, "'every' must be >= 1");
        return false;
      }
      o->every_windows = static_cast<std::uint64_t>(i);
    } else if (a.key == "sustain") {
      if (!atom_int(a, &i, error)) return false;
      if (i < 1) {
        if (error) *error = line_err(a.line, "'sustain' must be >= 1");
        return false;
      }
      o->sustain = static_cast<std::int32_t>(i);
    } else if (a.key == "max_moves") {
      if (!atom_int(a, &i, error)) return false;
      if (i < 1) {
        if (error) *error = line_err(a.line, "'max_moves' must be >= 1");
        return false;
      }
      o->max_moves = static_cast<std::int32_t>(i);
    } else if (a.key == "fm_tolerance") {
      if (!atom_double(a, &d, error)) return false;
      o->fm_tolerance = d;
    } else if (a.key == "fm_passes") {
      if (!atom_int(a, &i, error)) return false;
      o->fm_passes = static_cast<std::int32_t>(i);
    } else {
      return unknown_key(a, "rebalance [ ]", error);
    }
  }
  return true;
}

bool parse_ckpt(const DmlNode& node, int block_line, CkptOptions* o,
                std::string* error) {
  for (const DmlAttribute& a : node.attributes) {
    if (ignored_key(a.key)) continue;
    if (a.child) return unknown_key(a, "ckpt [ ]", error);
    if (a.key == "every") {
      std::int64_t i = 0;
      if (!atom_int(a, &i, error)) return false;
      if (i < 0) {
        if (error) *error = line_err(a.line, "'every' must be >= 0");
        return false;
      }
      o->every_windows = static_cast<std::uint64_t>(i);
    } else if (a.key == "path") {
      o->path = a.atom;
    } else if (a.key == "stop_after") {
      std::int64_t i = 0;
      if (!atom_int(a, &i, error)) return false;
      o->stop_after = i != 0;
    } else if (a.key == "restore") {
      o->restore_path = a.atom;
    } else {
      return unknown_key(a, "ckpt [ ]", error);
    }
  }
  if (o->every_windows > 0 && o->path.empty()) {
    if (error) {
      *error = line_err(block_line, "ckpt [ every > 0 ] requires a path");
    }
    return false;
  }
  return true;
}

bool parse_guard(const DmlNode& node, guard::GuardOptions* o,
                 std::int32_t* retries, std::string* error) {
  for (const DmlAttribute& a : node.attributes) {
    if (ignored_key(a.key)) continue;
    if (a.child) return unknown_key(a, "guard [ ]", error);
    std::int64_t i = 0;
    double d = 0;
    if (a.key == "enabled") {
      if (!atom_int(a, &i, error)) return false;
      o->enabled = i != 0;
    } else if (a.key == "deadline_s") {
      if (!atom_double(a, &d, error)) return false;
      if (d <= 0) {
        if (error) *error = line_err(a.line, "'deadline_s' must be > 0");
        return false;
      }
      o->stall_deadline_s = d;
    } else if (a.key == "poll_s") {
      if (!atom_double(a, &d, error)) return false;
      o->poll_interval_s = d;
    } else if (a.key == "dump") {
      o->dump_path = a.atom;
    } else if (a.key == "policy") {
      if (a.atom == "recover") {
        o->on_stall = guard::OnStall::kCancel;
      } else if (a.atom == "abort") {
        o->on_stall = guard::OnStall::kAbort;
      } else {
        if (error) {
          *error = line_err(a.line, "unknown guard policy '" + a.atom +
                                        "' (recover|abort)");
        }
        return false;
      }
    } else if (a.key == "retries") {
      if (!atom_int(a, &i, error)) return false;
      if (i < 0) {
        if (error) *error = line_err(a.line, "'retries' must be >= 0");
        return false;
      }
      *retries = static_cast<std::int32_t>(i);
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

}  // namespace

std::span<const ScenarioSchemaKey> scenario_schema() { return kSchema; }

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
  bg.add_atom("fidelity",
              std::string(o.background.flow_fidelity ? "flow" : "packet"));
  bg.add_atom("recompute_every",
              static_cast<std::int64_t>(o.netsim.link_model.fluid_recompute_every));
  bg.add_atom("stall_timeout_s", o.netsim.link_model.fluid_stall_timeout_s);
  bg.add_atom("rate_cap_bps", o.netsim.link_model.fluid_flow_rate_cap_bps);

  DmlNode& rb = e.add_child("rebalance");
  rb.add_atom("enabled",
              static_cast<std::int64_t>(o.rebalance.enabled ? 1 : 0));
  rb.add_atom("threshold", o.rebalance.threshold);
  rb.add_atom("every", static_cast<std::int64_t>(o.rebalance.every_windows));
  rb.add_atom("sustain", static_cast<std::int64_t>(o.rebalance.sustain));
  rb.add_atom("max_moves", static_cast<std::int64_t>(o.rebalance.max_moves));
  rb.add_atom("fm_tolerance", o.rebalance.fm_tolerance);
  rb.add_atom("fm_passes", static_cast<std::int64_t>(o.rebalance.fm_passes));

  DmlNode& ck = e.add_child("ckpt");
  ck.add_atom("every", static_cast<std::int64_t>(o.ckpt.every_windows));
  ck.add_atom("path", o.ckpt.path);
  ck.add_atom("stop_after", static_cast<std::int64_t>(o.ckpt.stop_after));
  ck.add_atom("restore", o.ckpt.restore_path);

  DmlNode& g = e.add_child("guard");
  g.add_atom("enabled", static_cast<std::int64_t>(o.guard.enabled ? 1 : 0));
  g.add_atom("deadline_s", o.guard.stall_deadline_s);
  g.add_atom("poll_s", o.guard.poll_interval_s);
  g.add_atom("dump", o.guard.dump_path);
  g.add_atom("policy", std::string(o.guard.on_stall == guard::OnStall::kAbort
                                       ? "abort"
                                       : "recover"));
  g.add_atom("retries", static_cast<std::int64_t>(spec.guard_retries));

  if (!spec.faults.empty()) {
    DmlNode& f = e.add_child("faults");
    // One `event` atom per schedule line; to_text sorts by time, so the
    // emission is canonical and parse -> to_dml is a fixed point.
    std::istringstream lines(spec.faults.to_text());
    std::string line;
    while (std::getline(lines, line)) {
      if (!line.empty()) f.add_atom("event", line);
    }
  }
  return root;
}

DmlNode scenario_options_to_dml(const ScenarioOptions& options) {
  ScenarioSpec spec;
  spec.options = options;
  return scenario_spec_to_dml(spec);
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
      } else if (a.key == "rebalance") {
        if (!parse_rebalance(*a.child, &o.rebalance, error)) {
          return std::nullopt;
        }
      } else if (a.key == "ckpt") {
        if (!parse_ckpt(*a.child, a.line, &o.ckpt, error)) {
          return std::nullopt;
        }
      } else if (a.key == "guard") {
        if (!parse_guard(*a.child, &o.guard, &spec.guard_retries, error)) {
          return std::nullopt;
        }
      } else if (a.key == "faults") {
        if (!parse_faults(*a.child, include_dir, &spec.faults, error)) {
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
      if (!atom_int(a, &i, error)) return std::nullopt;
      o.num_clients = static_cast<std::int32_t>(i);
    } else if (a.key == "servers") {
      if (!atom_int(a, &i, error)) return std::nullopt;
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
      if (!atom_int(a, &i, error)) return std::nullopt;
      o.num_app_hosts = static_cast<std::int32_t>(i);
    } else if (a.key == "engines") {
      if (!atom_int(a, &i, error)) return std::nullopt;
      o.num_engines = static_cast<std::int32_t>(i);
    } else if (a.key == "seconds") {
      if (!atom_double(a, &d, error)) return std::nullopt;
      o.end_time = from_seconds(d);
    } else if (a.key == "profile_seconds") {
      if (!atom_double(a, &d, error)) return std::nullopt;
      o.profile_end_time = from_seconds(d);
    } else if (a.key == "think_time_s") {
      if (!atom_double(a, &d, error)) return std::nullopt;
      o.http.think_time_mean_s = d;
    } else if (a.key == "file_mean_bytes") {
      if (!atom_double(a, &d, error)) return std::nullopt;
      o.http.file_mean_bytes = d;
    } else if (a.key == "executor_threads") {
      if (!atom_int(a, &i, error)) return std::nullopt;
      o.executor_threads = static_cast<std::int32_t>(i);
    } else if (a.key == "sync") {
      if (error) *error = line_err(a.line, kSyncRemoved);
      return std::nullopt;
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

std::optional<ScenarioOptions> scenario_options_from_dml(
    const DmlNode& root, std::string* error) {
  const auto spec = scenario_spec_from_dml(root, error);
  if (!spec) return std::nullopt;
  return spec->options;
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
                                               std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_scenario(buf.str(), error, dirname_of(path));
}

void add_run_control_flags(FlagTable& flags) {
  flags.add_string("mapping", "",
                   "comma-separated mapping kinds overriding the scenario's "
                   "`mapping` list");
  flags.add_int("ckpt-every", 0,
                "checkpoint every N sync windows (0 = off)",
                [](std::int64_t v) {
                  return v >= 0 ? "" : "must be >= 0";
                });
  flags.add_string("ckpt-path", "", "checkpoint file to write");
  flags.add_bool("ckpt-stop", false, "stop after the first checkpoint");
  flags.add_string("restore", "", "checkpoint file to resume from");
  flags.add_string("faults", "",
                   "fault schedule file (link flaps, crashes, loss bursts); "
                   "replaces the scenario's faults [ ] block");
  flags.add_string("link-model", "packet",
                   "network fidelity: 'packet' (per-packet events only) or "
                   "'hybrid' (analytic fluid background flows)",
                   [](const std::string& v) {
                     LinkModelKind k;
                     return parse_link_model_kind(v, &k)
                                ? ""
                                : "must be 'packet' or 'hybrid'";
                   });
  flags.add_bool("rebalance", false,
                 "enable online LP rebalancing at window boundaries");
  flags.add_double("rebalance-threshold", 1.25,
                   "trigger when max/avg engine load exceeds this",
                   [](double v) {
                     return v >= 1.0 ? "" : "must be >= 1.0";
                   });
  flags.add_int("rebalance-every", 64,
                "check imbalance every N sync windows",
                [](std::int64_t v) {
                  return v >= 1 ? "" : "must be >= 1";
                });
  flags.add_int("rebalance-sustain", 2,
                "consecutive over-threshold checks before migrating",
                [](std::int64_t v) {
                  return v >= 1 ? "" : "must be >= 1";
                });
  flags.add_int("rebalance-max-moves", 8,
                "max routers migrated per trigger",
                [](std::int64_t v) {
                  return v >= 1 ? "" : "must be >= 1";
                });
  flags.add_bool("guard", guard::default_guard_options().enabled,
                 "arm the liveness watchdog over every run (MASSF_GUARD=1 "
                 "flips this default)");
  flags.add_double("guard-deadline",
                   guard::default_guard_options().stall_deadline_s,
                   "seconds without progress before declaring a stall",
                   [](double v) { return v > 0 ? "" : "must be > 0"; });
  flags.add_string("guard-dump", "guard_stall.json",
                   "stall diagnostic JSON file (empty = stderr only)");
  flags.add_string("guard-policy", "recover",
                   "on stall: 'recover' (cancel + retry ladder) or 'abort'",
                   [](const std::string& v) {
                     return v == "recover" || v == "abort"
                                ? ""
                                : "must be 'recover' or 'abort'";
                   });
  flags.add_int("guard-retries", 1,
                "same-configuration retries before degrading",
                [](std::int64_t v) {
                  return v >= 0 ? "" : "must be >= 0";
                });
}

bool apply_run_control_flags(const FlagTable& flags, ScenarioSpec* spec,
                             std::string* error) {
  ScenarioOptions& o = spec->options;
  if (flags.set("mapping")) {
    spec->mappings.clear();
    std::stringstream ss(flags.get_string("mapping"));
    std::string name;
    while (std::getline(ss, name, ',')) {
      const auto k = mapping_kind_from_name(name);
      if (!k) {
        if (error) *error = "unknown mapping '" + name + "'";
        return false;
      }
      spec->mappings.push_back(*k);
    }
    if (spec->mappings.empty()) {
      if (error) *error = "--mapping lists no mapping";
      return false;
    }
  }

  if (flags.set("ckpt-every")) {
    o.ckpt.every_windows =
        static_cast<std::uint64_t>(flags.get_int("ckpt-every"));
  }
  if (flags.set("ckpt-path")) o.ckpt.path = flags.get_string("ckpt-path");
  if (flags.set("ckpt-stop")) o.ckpt.stop_after = flags.get_bool("ckpt-stop");
  if (flags.set("restore")) o.ckpt.restore_path = flags.get_string("restore");
  if (o.ckpt.every_windows > 0 && o.ckpt.path.empty()) {
    if (error) {
      *error = "checkpointing every N windows requires a checkpoint path "
               "(--ckpt-path / ckpt [ path ])";
    }
    return false;
  }

  if (flags.set("faults")) {
    const std::string path = flags.get_string("faults");
    std::ifstream in(path);
    if (!in) {
      if (error) *error = "cannot open '" + path + "'";
      return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string what;
    const auto parsed = parse_fault_schedule(buf.str(), &what);
    if (!parsed) {
      if (error) *error = "fault schedule '" + path + "': " + what;
      return false;
    }
    spec->faults = *parsed;  // the flag replaces the file's faults block
  }

  if (flags.set("link-model")) {
    // Validated by the flag's own validator; parse cannot fail here.
    parse_link_model_kind(flags.get_string("link-model"),
                          &o.netsim.link_model.kind);
  }

  if (flags.set("rebalance")) o.rebalance.enabled = flags.get_bool("rebalance");
  if (flags.set("rebalance-threshold")) {
    o.rebalance.threshold = flags.get_double("rebalance-threshold");
  }
  if (flags.set("rebalance-every")) {
    o.rebalance.every_windows =
        static_cast<std::uint64_t>(flags.get_int("rebalance-every"));
  }
  if (flags.set("rebalance-sustain")) {
    o.rebalance.sustain =
        static_cast<std::int32_t>(flags.get_int("rebalance-sustain"));
  }
  if (flags.set("rebalance-max-moves")) {
    o.rebalance.max_moves =
        static_cast<std::int32_t>(flags.get_int("rebalance-max-moves"));
  }

  if (flags.set("guard")) o.guard.enabled = flags.get_bool("guard");
  if (flags.set("guard-deadline")) {
    o.guard.stall_deadline_s = flags.get_double("guard-deadline");
  }
  if (flags.set("guard-dump")) o.guard.dump_path = flags.get_string("guard-dump");
  if (flags.set("guard-policy")) {
    o.guard.on_stall = flags.get_string("guard-policy") == "abort"
                           ? guard::OnStall::kAbort
                           : guard::OnStall::kCancel;
  }
  if (flags.set("guard-retries")) {
    spec->guard_retries =
        static_cast<std::int32_t>(flags.get_int("guard-retries"));
  }
  return true;
}

}  // namespace massf
