#include "util/flags.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "util/error.hpp"

namespace massf {
namespace {

const char* type_name(FlagSpec::Type t) {
  switch (t) {
    case FlagSpec::kBool:
      return "bool";
    case FlagSpec::kInt:
      return "int";
    case FlagSpec::kDouble:
      return "float";
    case FlagSpec::kString:
      return "string";
  }
  return "?";
}

bool parse_int(const std::string& text, std::int64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const std::int64_t v = std::strtoll(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size()) return false;
  *out = v;
  return true;
}

bool parse_double(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return false;
  *out = v;
  return true;
}

bool parse_bool(const std::string& text, bool* out) {
  if (text == "true" || text == "1" || text == "yes") {
    *out = true;
    return true;
  }
  if (text == "false" || text == "0" || text == "no") {
    *out = false;
    return true;
  }
  return false;
}

}  // namespace

FlagTable::FlagTable(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

FlagTable& FlagTable::add_bool(std::string name, bool def, std::string help) {
  specs_.push_back({std::move(name), FlagSpec::kBool,
                    def ? "true" : "false", std::move(help), {}});
  return *this;
}

FlagTable& FlagTable::add_int(
    std::string name, std::int64_t def, std::string help,
    std::function<std::string(std::int64_t)> validate) {
  FlagSpec spec{std::move(name), FlagSpec::kInt, std::to_string(def),
                std::move(help), {}};
  if (validate) {
    spec.validate = [v = std::move(validate)](const std::string& text) {
      std::int64_t x = 0;
      parse_int(text, &x);  // type-checked before validators run
      return v(x);
    };
  }
  specs_.push_back(std::move(spec));
  return *this;
}

FlagTable& FlagTable::add_double(std::string name, double def,
                                 std::string help,
                                 std::function<std::string(double)> validate) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", def);
  FlagSpec spec{std::move(name), FlagSpec::kDouble, buf, std::move(help), {}};
  if (validate) {
    spec.validate = [v = std::move(validate)](const std::string& text) {
      double x = 0;
      parse_double(text, &x);
      return v(x);
    };
  }
  specs_.push_back(std::move(spec));
  return *this;
}

FlagTable& FlagTable::add_string(
    std::string name, std::string def, std::string help,
    std::function<std::string(const std::string&)> validate) {
  specs_.push_back({std::move(name), FlagSpec::kString, std::move(def),
                    std::move(help), std::move(validate)});
  return *this;
}

const FlagSpec* FlagTable::find(const std::string& name) const {
  for (const FlagSpec& s : specs_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

bool FlagTable::parse(int argc, const char* const* argv, std::string* error) {
  const auto fail = [&](int arg_no, const std::string& shown,
                        const std::string& what) {
    // Same idiom as the fault-schedule parser's "line N: what", keyed by
    // argv position instead of file line.
    if (error != nullptr) {
      *error = "arg " + std::to_string(arg_no) + " (" + shown + "): " + what;
    }
    return false;
  };

  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    const int arg_no = i;
    const std::string shown(arg);
    if (!arg.starts_with("--")) {
      return fail(arg_no, shown, "expected a --flag");
    }
    arg.remove_prefix(2);
    if (arg == "help") {
      help_requested_ = true;
      continue;
    }
    std::string name;
    std::string value;
    bool have_value = false;
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
      have_value = true;
    } else {
      name = std::string(arg);
    }
    const FlagSpec* spec = find(name);
    if (spec == nullptr) {
      return fail(arg_no, shown, "unknown flag (see --help)");
    }
    // --name value form: consume the next argv entry, except for booleans,
    // which are presence-style (--flag) unless given --flag=....
    if (!have_value && spec->type != FlagSpec::kBool && i + 1 < argc &&
        argv[i + 1][0] != '-') {
      value = argv[++i];
      have_value = true;
    }
    if (!have_value) {
      if (spec->type != FlagSpec::kBool) {
        return fail(arg_no, shown,
                    std::string("expects a ") + type_name(spec->type) +
                        " value");
      }
      value = "true";
    }
    const std::string shown_kv = "--" + name + "=" + value;
    if (values_.count(name) > 0) return fail(arg_no, shown_kv, "given twice");
    switch (spec->type) {
      case FlagSpec::kBool: {
        bool b = false;
        if (!parse_bool(value, &b)) {
          return fail(arg_no, shown_kv, "expects true or false");
        }
        break;
      }
      case FlagSpec::kInt: {
        std::int64_t x = 0;
        if (!parse_int(value, &x)) {
          return fail(arg_no, shown_kv, "expects an integer");
        }
        break;
      }
      case FlagSpec::kDouble: {
        double x = 0;
        if (!parse_double(value, &x)) {
          return fail(arg_no, shown_kv, "expects a number");
        }
        break;
      }
      case FlagSpec::kString:
        break;
    }
    if (spec->validate) {
      const std::string what = spec->validate(value);
      if (!what.empty()) return fail(arg_no, shown_kv, what);
    }
    values_[name] = value;
  }
  return true;
}

void FlagTable::parse_or_exit(int argc, const char* const* argv) {
  std::string error;
  if (!parse(argc, argv, &error)) {
    std::fprintf(stderr, "%s: %s\n", program_.c_str(), error.c_str());
    std::exit(2);
  }
  if (help_requested_) {
    std::fputs(help_text().c_str(), stdout);
    std::exit(0);
  }
}

std::string FlagTable::help_text() const {
  std::string out = "usage: " + program_ + " [flags]\n";
  if (!description_.empty()) out += description_ + "\n";
  out += "\nflags:\n";
  std::size_t width = 4;  // --help
  for (const FlagSpec& s : specs_) width = std::max(width, s.name.size());
  for (const FlagSpec& s : specs_) {
    char line[512];
    std::snprintf(line, sizeof line, "  --%-*s  %-7s default=%-10s %s\n",
                  static_cast<int>(width), s.name.c_str(),
                  type_name(s.type), s.default_text.c_str(), s.help.c_str());
    out += line;
  }
  char line[512];
  std::snprintf(line, sizeof line, "  --%-*s  %-7s %-18s %s\n",
                static_cast<int>(width), "help", "bool", "",
                "print this screen and exit");
  out += line;
  return out;
}

const std::string& FlagTable::value_or_default(const std::string& name,
                                               FlagSpec::Type type) const {
  const FlagSpec* spec = find(name);
  if (spec == nullptr) {
    MASSF_THROW(ErrorCategory::kInternal,
                "flag lookup on undeclared flag --" + name);
  }
  if (spec->type != type) {
    MASSF_THROW(ErrorCategory::kInternal,
                "flag --" + name + " accessed as " + type_name(type) +
                    " but declared " + type_name(spec->type));
  }
  const auto it = values_.find(name);
  return it == values_.end() ? spec->default_text : it->second;
}

bool FlagTable::get_bool(const std::string& name) const {
  bool b = false;
  parse_bool(value_or_default(name, FlagSpec::kBool), &b);
  return b;
}

std::int64_t FlagTable::get_int(const std::string& name) const {
  std::int64_t x = 0;
  parse_int(value_or_default(name, FlagSpec::kInt), &x);
  return x;
}

double FlagTable::get_double(const std::string& name) const {
  double x = 0;
  parse_double(value_or_default(name, FlagSpec::kDouble), &x);
  return x;
}

std::string FlagTable::get_string(const std::string& name) const {
  return value_or_default(name, FlagSpec::kString);
}

bool FlagTable::set(const std::string& name) const {
  return values_.count(name) > 0;
}

}  // namespace massf
