// Command-line flag parsing for the example and bench binaries.
//
// FlagTable is a declarative flag table: each flag is registered once with
// its name, type, default, help text, and optional validator, and the
// table generates the parser and the --help screen from that single
// declaration. Errors carry the argv position in the fault parser's
// "line N: what" idiom ("arg N (--flag=value): what") and exit 2.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace massf {

/// One declared flag: everything the generated parser and --help screen
/// need, in one row of the table.
struct FlagSpec {
  enum Type { kBool, kInt, kDouble, kString };
  std::string name;
  Type type = kString;
  std::string default_text;  ///< textual default, echoed by --help
  std::string help;
  /// Returns an error description ("must be >= 1.0") or "" when valid.
  /// Runs on explicitly provided values only — defaults are trusted.
  std::function<std::string(const std::string&)> validate;
};

class FlagTable {
 public:
  FlagTable(std::string program, std::string description);

  /// Registration; one call per flag, in the order --help should list them.
  /// Validators receive the typed value the user supplied.
  FlagTable& add_bool(std::string name, bool def, std::string help);
  FlagTable& add_int(std::string name, std::int64_t def, std::string help,
                     std::function<std::string(std::int64_t)> validate = {});
  FlagTable& add_double(std::string name, double def, std::string help,
                        std::function<std::string(double)> validate = {});
  FlagTable& add_string(std::string name, std::string def, std::string help,
                        std::function<std::string(const std::string&)>
                            validate = {});

  /// Parses argv against the table. Returns false with `*error` set to
  /// "arg N (--flag=value): what" on an unknown flag, a flag given twice,
  /// a value of the wrong type, or a validator rejection. `--help` sets
  /// help_requested().
  bool parse(int argc, const char* const* argv, std::string* error);

  /// parse() + error handling for main(): prints the error (exit 2) or the
  /// generated help screen (exit 0) and never returns in those cases.
  void parse_or_exit(int argc, const char* const* argv);

  bool help_requested() const { return help_requested_; }
  /// The generated --help screen: usage line, description, one row per
  /// declared flag with its type, default, and help text.
  std::string help_text() const;

  /// Typed lookups (the declared default when the flag wasn't provided).
  /// Aborts on a name that was never declared — a typo in the binary, not
  /// in the user's command line.
  bool get_bool(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  std::string get_string(const std::string& name) const;
  /// True when the user explicitly provided the flag.
  bool set(const std::string& name) const;

 private:
  const FlagSpec* find(const std::string& name) const;
  const std::string& value_or_default(const std::string& name,
                                      FlagSpec::Type type) const;

  std::string program_;
  std::string description_;
  std::vector<FlagSpec> specs_;
  std::map<std::string, std::string> values_;  ///< explicitly set only
  bool help_requested_ = false;
};

}  // namespace massf
