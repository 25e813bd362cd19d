// DML (Domain Model Language) — the configuration format of SSF-family
// simulators. MaSSF "use[s] a network configuration interface similar to
// ... SSFNet" and expresses BGP policies "in the simulator input Domain
// Model Language (DML) file" (paper Sections 2.1 and 5.1.2); this module
// provides the format.
//
// DML is a nested list of key-value pairs:
//
//   Net [
//     frequency 1000000000
//     router [ id 3  interface [ id 0 bitrate 1e8 latency 0.0001 ] ]
//     # comments run to end of line
//   ]
//
// A value is either an atom (bare word, number, or "quoted string") or a
// bracketed child list. Keys repeat freely (e.g. many `router` entries).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace massf {

class DmlNode;

/// One key-value attribute; the value is an atom xor a child node.
struct DmlAttribute {
  std::string key;
  std::string atom;                    ///< valid when child == nullptr
  std::unique_ptr<DmlNode> child;      ///< valid when non-null
  /// Source line of the key (1-based); 0 for atoms built in code or given
  /// on a command line. The atom readers below put it in their messages.
  int line = 0;
};

class DmlNode {
 public:
  DmlNode() = default;
  DmlNode(DmlNode&&) = default;
  DmlNode& operator=(DmlNode&&) = default;

  std::vector<DmlAttribute> attributes;

  /// First child list under `key`, or nullptr.
  const DmlNode* find(std::string_view key) const;

  // -- construction helpers (for writers) ---------------------------------
  void add_atom(std::string key, std::string value);
  void add_atom(std::string key, std::int64_t value);
  void add_atom(std::string key, double value);
  DmlNode& add_child(std::string key);
};

// -- strict atom readers ------------------------------------------------------
//
// The formats built on DML (scenarios, campaigns) read their atoms through
// these: a malformed or out-of-range value fails with a message in the
// fault parser's idiom, "line N: what" (the bare `what` for an atom with
// no line), and never aborts — a bad value in a file is an input error
// the caller reports.

/// "line N: what", or `what` alone when `line` is 0.
std::string dml_error(int line, const std::string& what);

/// Reads an integer atom in [lo, hi] into `out`. Fails with
/// "'<key>' wants an integer, got '<atom>'", "'<key>' must be >= <lo>" or
/// "'<key>' must be <= <hi>".
bool dml_read_int(const DmlAttribute& a, std::int64_t lo, std::int64_t hi,
                  std::int64_t* out, std::string* error);

/// The values a number atom may take: [lo, hi], or (lo, hi] with lo_open.
struct DmlRange {
  double lo = 0;
  double hi = 0;
  bool lo_open = false;
};

/// Reads a number atom in `range` into `out`. Fails with "'<key>' wants a
/// number, got '<atom>'" (NaN included), "'<key>' must be >= <lo>" (or
/// "> <lo>") or "'<key>' must be <= <hi>".
bool dml_read_number(const DmlAttribute& a, const DmlRange& range,
                     double* out, std::string* error);

/// True for an `x_`-prefixed key, which strict readers skip: the
/// forward-compatibility escape hatch, so a file can carry knobs for newer
/// binaries.
bool dml_ignored(std::string_view key);

/// Fails with "unknown key '<key>' in <where> (prefix with x_ to ignore)";
/// returns false.
bool dml_unknown_key(const DmlAttribute& a, std::string_view where,
                     std::string* error);

struct DmlParseError {
  std::string message;
  int line = 0;
};

/// Parses a DML document. On success returns the root node (the document's
/// top-level attribute list); on failure returns the error via `error` and
/// nullopt.
std::optional<DmlNode> parse_dml(std::string_view text,
                                 DmlParseError* error = nullptr);

/// Serializes a node tree back to DML text (stable formatting; output
/// re-parses to an identical tree).
std::string write_dml(const DmlNode& root);

}  // namespace massf
