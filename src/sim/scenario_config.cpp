#include "sim/scenario_config.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <set>
#include <span>
#include <sstream>
#include <type_traits>
#include <variant>

#include "fault/fault.hpp"

namespace massf {
namespace {

constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
// The longest duration a key may give. SimTime counts nanoseconds in 63
// bits (292 years); 1e9 s (31.7 years) leaves the engine's window
// arithmetic headroom past the horizon.
constexpr double kMaxDurationS = 1e9;

// ---- the kinds of key ------------------------------------------------------

// The fields an integer atom lands in; one-of-names keys store their
// name's value the same way.
using IntField = std::variant<std::int32_t*, std::uint64_t*, bool*, AppKind*,
                              LinkModelKind*>;

// A count, a 0/1 switch or the seed, in [lo, hi].
struct IntKey {
  IntField field;
  std::int64_t lo, hi;
};
// A number in `range` (seconds held as a double, bits per second).
struct NumberKey {
  double* field;
  DmlRange range;
};
// Seconds held as SimTime ticks: > 0, or >= 0 unless `positive`, and at
// most kMaxDurationS.
struct DurationKey {
  SimTime* field;
  bool positive;
};
// One name of a fixed set, each standing for an enum value; the error
// lists the names in this order.
struct Name {
  const char* text;
  std::int64_t value;
};
struct NamesKey {
  IntField field;
  std::span<const Name> names;
};
struct StringKey {
  std::string* field;
};
// Repeated atoms: each `mapping` appends to the run list, each
// `faults.event` (one fault-format line) to the schedule.
struct MappingKey {
  std::vector<MappingKind>* field;
};
struct EventKey {
  FaultSchedule* field;
};

struct Key {
  const char* block;  ///< "" = the Experiment block itself
  const char* name;
  std::variant<IntKey, NumberKey, DurationKey, NamesKey, StringKey,
               MappingKey, EventKey>
      kind;
};

constexpr Name kAppNames[] = {
    {"scalapack", static_cast<std::int64_t>(AppKind::kScaLapack)},
    {"gridnpb", static_cast<std::int64_t>(AppKind::kGridNpb)},
    {"none", static_cast<std::int64_t>(AppKind::kNone)},
};
constexpr Name kLinkModelNames[] = {
    {"packet", static_cast<std::int64_t>(LinkModelKind::kPacket)},
    {"hybrid", static_cast<std::int64_t>(LinkModelKind::kHybrid)},
};

// The scenario format: one row per key, bound to the field of `s` it
// reads and writes, in the order scenario_spec_to_dml writes them. Each
// range is what the key's consumer needs; cross-key checks (`as` against
// `routers`, clients need servers) are Scenario's constructor's.
std::vector<Key> scenario_keys(ScenarioSpec& s) {
  ScenarioOptions& o = s.options;
  LinkModelOptions& lm = o.netsim.link_model;
  return {
      {"", "name", StringKey{&s.name}},
      {"", "multi_as", IntKey{&o.multi_as, 0, 1}},
      {"", "routers", IntKey{&o.num_routers, 2, kInt32Max}},
      {"", "hosts", IntKey{&o.num_hosts, 1, kInt32Max}},
      {"", "as", IntKey{&o.num_as, 0, kInt32Max}},
      {"", "clients", IntKey{&o.num_clients, 0, kInt32Max}},
      {"", "servers", IntKey{&o.num_servers, 0, kInt32Max}},
      {"", "app", NamesKey{&o.app, kAppNames}},
      {"", "app_hosts", IntKey{&o.num_app_hosts, 0, kInt32Max}},
      {"", "engines", IntKey{&o.num_engines, 1, kInt32Max}},
      {"", "seconds", DurationKey{&o.end_time, true}},
      {"", "profile_seconds", DurationKey{&o.profile_end_time, true}},
      {"", "think_time_s",
       NumberKey{&o.http.think_time_mean_s, {0, kMaxDurationS, true}}},
      {"", "executor_threads", IntKey{&o.executor_threads, 0, kInt32Max}},
      {"", "load_bin_s", DurationKey{&o.load_bin, false}},
      {"", "seed", IntKey{&o.seed, 0, kInt64Max}},
      {"", "link_model", NamesKey{&lm.kind, kLinkModelNames}},
      {"", "mapping", MappingKey{&s.mappings}},
      {"background_flows", "sources",
       IntKey{&o.num_bg_sources, 0, kInt32Max}},
      {"background_flows", "rate_cap_bps",
       NumberKey{&lm.fluid_flow_rate_cap_bps,
                 {0, std::numeric_limits<double>::max()}}},
      {"guard", "enabled", IntKey{&o.guard.enabled, 0, 1}},
      {"guard", "deadline_s",
       NumberKey{&o.guard.stall_deadline_s, {0, kMaxDurationS, true}}},
      {"guard", "dump", StringKey{&o.guard.dump_path}},
      {"faults", "event", EventKey{&o.faults}},
  };
}

// Overload set for std::visit.
template <class... F>
struct Visitor : F... {
  using F::operator()...;
};
template <class... F>
Visitor(F...) -> Visitor<F...>;

void store(const IntField& field, std::int64_t v) {
  std::visit(
      [v](auto* f) { *f = static_cast<std::remove_pointer_t<decltype(f)>>(v); },
      field);
}

std::int64_t load(const IntField& field) {
  return std::visit([](auto* f) { return static_cast<std::int64_t>(*f); },
                    field);
}

// Reads atom `a` into the field of key `k`, range-checked.
bool read_atom(const Key& k, const DmlAttribute& a, std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error) *error = dml_error(a.line, what);
    return false;
  };
  return std::visit(
      Visitor{
          [&](const IntKey& r) {
            std::int64_t v = 0;
            if (!dml_read_int(a, r.lo, r.hi, &v, error)) return false;
            store(r.field, v);
            return true;
          },
          [&](const NumberKey& r) {
            return dml_read_number(a, r.range, r.field, error);
          },
          [&](const DurationKey& r) {
            double s = 0;
            if (!dml_read_number(a, {0, kMaxDurationS, r.positive}, &s,
                                 error)) {
              return false;
            }
            *r.field = from_seconds(s);
            return true;
          },
          [&](const NamesKey& r) {
            std::string list;
            for (const Name& n : r.names) {
              if (a.atom == n.text) {
                store(r.field, n.value);
                return true;
              }
              list += list.empty() ? "" : "|";
              list += n.text;
            }
            return fail("unknown " + a.key + " '" + a.atom + "' (" + list +
                        ")");
          },
          [&](const StringKey& r) {
            *r.field = a.atom;
            return true;
          },
          [&](const MappingKey& r) {
            const auto kind = mapping_kind_from_name(a.atom);
            if (!kind) return fail("unknown mapping '" + a.atom + "'");
            r.field->push_back(*kind);
            return true;
          },
          [&](const EventKey& r) {
            std::string what;
            const auto parsed = parse_fault_schedule(a.atom, &what);
            if (!parsed) {
              // One embedded line: strip the fault parser's "line 1: " so
              // the message points at the scenario file's line instead.
              const std::string prefix = "line 1: ";
              if (what.starts_with(prefix)) what.erase(0, prefix.size());
              return fail("fault event: " + what);
            }
            r.field->append(*parsed);
            return true;
          },
      },
      k.kind);
}

// Appends the atoms of key `k` to `out`: one, or one per mapping or fault
// event.
void write_atoms(const Key& k, DmlNode& out) {
  std::visit(
      Visitor{
          [&](const IntKey& r) { out.add_atom(k.name, load(r.field)); },
          [&](const NumberKey& r) { out.add_atom(k.name, *r.field); },
          [&](const DurationKey& r) {
            out.add_atom(k.name, to_seconds(*r.field));
          },
          [&](const NamesKey& r) {
            for (const Name& n : r.names) {
              if (n.value == load(r.field)) {
                out.add_atom(k.name, std::string(n.text));
              }
            }
          },
          [&](const StringKey& r) { out.add_atom(k.name, *r.field); },
          [&](const MappingKey& r) {
            for (const MappingKind m : *r.field) {
              out.add_atom(k.name, std::string(mapping_kind_name(m)));
            }
          },
          [&](const EventKey& r) {
            // One atom per schedule line; to_text sorts by time, so the
            // emission is canonical and parse -> to_dml is a fixed point.
            std::istringstream lines(r.field->to_text());
            std::string line;
            while (std::getline(lines, line)) {
              if (!line.empty()) out.add_atom(k.name, line);
            }
          },
      },
      k.kind);
}

// Reads the atoms of `node`, the Experiment block (`block` "") or one of
// its sub-blocks, through the rows of `keys`.
bool read_block(const DmlNode& node, std::string_view block,
                const std::vector<Key>& keys, std::string* error) {
  const std::string where =
      block.empty() ? "Experiment" : std::string(block) + " [ ]";
  for (const DmlAttribute& a : node.attributes) {
    if (dml_ignored(a.key)) continue;
    // A sub-block names its rows' block; an atom names its row.
    const auto row = std::find_if(keys.begin(), keys.end(), [&](const Key& k) {
      if (a.child) return block.empty() && *k.block && a.key == k.block;
      return block == k.block && a.key == k.name;
    });
    if (row == keys.end()) return dml_unknown_key(a, where, error);
    if (a.child ? !read_block(*a.child, a.key, keys, error)
                : !read_atom(*row, a, error)) {
      return false;
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
  ScenarioSpec copy = spec;  // the rows bind mutable fields
  DmlNode root;
  DmlNode& e = root.add_child("Experiment");
  for (const Key& k : scenario_keys(copy)) {
    if (!*k.block) {
      write_atoms(k, e);
      continue;
    }
    // A block's rows are adjacent, and a block with no atoms (an empty
    // fault schedule) is not written.
    DmlNode atoms;
    write_atoms(k, atoms);
    if (atoms.attributes.empty()) continue;
    DmlAttribute& last = e.attributes.back();
    DmlNode& block =
        last.child && last.key == k.block ? *last.child : e.add_child(k.block);
    for (DmlAttribute& a : atoms.attributes) {
      block.attributes.push_back(std::move(a));
    }
  }
  return root;
}

std::optional<ScenarioSpec> scenario_spec_from_dml(const DmlNode& root,
                                                   std::string* error) {
  const DmlNode* e = root.find("Experiment");
  if (e == nullptr) {
    if (error) *error = "missing top-level Experiment [ ] block";
    return std::nullopt;
  }
  ScenarioSpec spec;
  spec.mappings.clear();
  if (!read_block(*e, "", scenario_keys(spec), error)) return std::nullopt;
  if (spec.mappings.empty()) spec.mappings = {MappingKind::kHProf};
  return spec;
}

std::optional<ScenarioSpec> parse_scenario(std::string_view text,
                                           std::string* error) {
  DmlParseError perr;
  const auto root = parse_dml(text, &perr);
  if (!root) {
    if (error) *error = dml_error(perr.line, perr.message);
    return std::nullopt;
  }
  return scenario_spec_from_dml(*root, error);
}

std::optional<ScenarioSpec> load_scenario_file(const std::string& path,
                                               std::string* error,
                                               std::string_view override_text) {
  // Every error names its source: the file, or the override.
  const auto fail = [&](const std::string& source, const std::string& what) {
    if (error) *error = source + ": " + what;
    return std::nullopt;
  };
  std::ifstream in(path);
  if (!in) return fail(path, "cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  DmlParseError perr;
  auto root = parse_dml(buf.str(), &perr);
  if (!root) return fail(path, dml_error(perr.line, perr.message));
  std::string what;
  auto spec = scenario_spec_from_dml(*root, &what);
  if (!spec) return fail(path, what);
  if (override_text.empty()) return spec;

  // The file is valid on its own, so whatever fails now is the override's
  // doing. Its atoms have no line in the file to report.
  auto body = parse_dml(override_text, &perr);
  if (!body) return fail("--override", perr.message);
  for (DmlAttribute& a : body->attributes) a.line = 0;
  if (!merge_override(&*root, *body, &what)) return fail("--override", what);
  spec = scenario_spec_from_dml(*root, &what);
  if (!spec) return fail("--override", what);
  return spec;
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
    if (dml_ignored(a.key)) continue;
    if (a.child) {
      if (error) {
        *error = dml_error(a.line, "override entries must be scalar (use "
                                   "dotted keys for sub-blocks)");
      }
      return false;
    }
    merge_atom(exp, a.key, a, replaced.insert(a.key).second);
  }
  return true;
}

}  // namespace massf
