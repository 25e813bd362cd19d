#include "dml/dml.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <system_error>

namespace massf {
namespace {

struct Token {
  enum Kind { kAtom, kOpen, kClose, kEnd } kind = kEnd;
  std::string text;
  int line = 1;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Token next() {
    skip_ws_and_comments();
    Token t;
    t.line = line_;
    if (pos_ >= text_.size()) {
      t.kind = Token::kEnd;
      return t;
    }
    const char c = text_[pos_];
    if (c == '[') {
      ++pos_;
      t.kind = Token::kOpen;
      return t;
    }
    if (c == ']') {
      ++pos_;
      t.kind = Token::kClose;
      return t;
    }
    t.kind = Token::kAtom;
    if (c == '"') {
      ++pos_;
      while (pos_ < text_.size() && text_[pos_] != '"') {
        if (text_[pos_] == '\n') ++line_;
        t.text.push_back(text_[pos_++]);
      }
      if (pos_ < text_.size()) ++pos_;  // closing quote
      return t;
    }
    while (pos_ < text_.size() && !std::isspace(static_cast<unsigned char>(
                                      text_[pos_])) &&
           text_[pos_] != '[' && text_[pos_] != ']' && text_[pos_] != '#') {
      t.text.push_back(text_[pos_++]);
    }
    return t;
  }

  int line() const { return line_; }

 private:
  void skip_ws_and_comments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '#' || (c == '/' && pos_ + 1 < text_.size() &&
                              text_[pos_ + 1] == '/')) {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

// Parses the body of a list (after '['), or the whole document when
// `top_level`. Returns false on error.
bool parse_list(Lexer& lex, DmlNode& node, bool top_level,
                DmlParseError* error) {
  for (;;) {
    Token key = lex.next();
    if (key.kind == Token::kEnd) {
      if (top_level) return true;
      if (error) *error = {"unexpected end of input inside [ ]", key.line};
      return false;
    }
    if (key.kind == Token::kClose) {
      if (top_level) {
        if (error) *error = {"unbalanced ']'", key.line};
        return false;
      }
      return true;
    }
    if (key.kind != Token::kAtom) {
      if (error) *error = {"expected a key", key.line};
      return false;
    }
    Token value = lex.next();
    if (value.kind == Token::kAtom) {
      DmlAttribute attr;
      attr.key = std::move(key.text);
      attr.atom = std::move(value.text);
      attr.line = key.line;
      node.attributes.push_back(std::move(attr));
    } else if (value.kind == Token::kOpen) {
      DmlAttribute attr;
      attr.key = std::move(key.text);
      attr.child = std::make_unique<DmlNode>();
      attr.line = key.line;
      if (!parse_list(lex, *attr.child, false, error)) return false;
      node.attributes.push_back(std::move(attr));
    } else {
      if (error) {
        *error = {"key '" + key.text + "' has no value", value.line};
      }
      return false;
    }
  }
}

void write_node(const DmlNode& node, std::ostringstream& os, int depth) {
  const std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
  for (const DmlAttribute& attr : node.attributes) {
    if (attr.child) {
      os << indent << attr.key << " [\n";
      write_node(*attr.child, os, depth + 1);
      os << indent << "]\n";
    } else {
      // Quote atoms containing whitespace or special characters.
      const bool needs_quotes =
          attr.atom.empty() ||
          attr.atom.find_first_of(" \t\n[]#\"") != std::string::npos;
      os << indent << attr.key << ' ';
      if (needs_quotes) {
        os << '"' << attr.atom << '"';
      } else {
        os << attr.atom;
      }
      os << '\n';
    }
  }
}

}  // namespace

const DmlNode* DmlNode::find(std::string_view key) const {
  for (const DmlAttribute& attr : attributes) {
    if (attr.key == key && attr.child) return attr.child.get();
  }
  return nullptr;
}

void DmlNode::add_atom(std::string key, std::string value) {
  DmlAttribute attr;
  attr.key = std::move(key);
  attr.atom = std::move(value);
  attributes.push_back(std::move(attr));
}

void DmlNode::add_atom(std::string key, std::int64_t value) {
  add_atom(std::move(key), std::to_string(value));
}

void DmlNode::add_atom(std::string key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  add_atom(std::move(key), std::string(buf));
}

DmlNode& DmlNode::add_child(std::string key) {
  DmlAttribute attr;
  attr.key = std::move(key);
  attr.child = std::make_unique<DmlNode>();
  attributes.push_back(std::move(attr));
  return *attributes.back().child;
}

std::string dml_error(int line, const std::string& what) {
  return line > 0 ? "line " + std::to_string(line) + ": " + what : what;
}

namespace {

std::string bound_text(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

bool bound_error(const DmlAttribute& a, const char* op,
                 const std::string& bound, std::string* error) {
  if (error) {
    *error = dml_error(a.line, "'" + a.key + "' must be " + op + " " + bound);
  }
  return false;
}

bool type_error(const DmlAttribute& a, const char* want,
                std::string* error) {
  if (error) {
    *error = dml_error(a.line, "'" + a.key + "' wants " + want + ", got '" +
                                   a.atom + "'");
  }
  return false;
}

}  // namespace

bool dml_read_int(const DmlAttribute& a, std::int64_t lo, std::int64_t hi,
                  std::int64_t* out, std::string* error) {
  const char* first = a.atom.data();
  const char* last = first + a.atom.size();
  std::int64_t v = 0;
  const auto [end, ec] = std::from_chars(first, last, v);
  if (ec == std::errc::result_out_of_range) {
    // Past the 64-bit range, so past [lo, hi] on the side of its sign.
    return a.atom.front() == '-'
               ? bound_error(a, ">=", std::to_string(lo), error)
               : bound_error(a, "<=", std::to_string(hi), error);
  }
  if (ec != std::errc() || end != last) {
    return type_error(a, "an integer", error);
  }
  if (v < lo) return bound_error(a, ">=", std::to_string(lo), error);
  if (v > hi) return bound_error(a, "<=", std::to_string(hi), error);
  *out = v;
  return true;
}

bool dml_read_number(const DmlAttribute& a, const DmlRange& range,
                     double* out, std::string* error) {
  char* end = nullptr;
  const double v = std::strtod(a.atom.c_str(), &end);
  if (a.atom.empty() || end != a.atom.c_str() + a.atom.size() ||
      std::isnan(v)) {
    return type_error(a, "a number", error);
  }
  if (range.lo_open ? !(v > range.lo) : !(v >= range.lo)) {
    return bound_error(a, range.lo_open ? ">" : ">=", bound_text(range.lo),
                       error);
  }
  if (!(v <= range.hi)) {
    return bound_error(a, "<=", bound_text(range.hi), error);
  }
  *out = v;
  return true;
}

bool dml_ignored(std::string_view key) { return key.starts_with("x_"); }

bool dml_unknown_key(const DmlAttribute& a, std::string_view where,
                     std::string* error) {
  if (error) {
    *error = dml_error(a.line, "unknown key '" + a.key + "' in " +
                                   std::string(where) +
                                   " (prefix with x_ to ignore)");
  }
  return false;
}

std::optional<DmlNode> parse_dml(std::string_view text,
                                 DmlParseError* error) {
  Lexer lex(text);
  DmlNode root;
  if (!parse_list(lex, root, /*top_level=*/true, error)) return std::nullopt;
  return root;
}

std::string write_dml(const DmlNode& root) {
  std::ostringstream os;
  write_node(root, os, 0);
  return os.str();
}

}  // namespace massf
