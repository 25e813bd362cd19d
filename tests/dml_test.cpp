#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "dml/dml.hpp"

namespace massf {
namespace {

// The first atom under `key` (a failure when there is none).
const DmlAttribute& atom_of(const DmlNode& node, std::string_view key) {
  for (const DmlAttribute& a : node.attributes) {
    if (a.key == key && !a.child) return a;
  }
  ADD_FAILURE() << "no atom '" << key << "'";
  static const DmlAttribute kNone;
  return kNone;
}

std::int64_t int_of(const DmlNode& node, std::string_view key) {
  std::int64_t v = 0;
  std::string error;
  EXPECT_TRUE(dml_read_int(atom_of(node, key),
                           std::numeric_limits<std::int64_t>::min(),
                           std::numeric_limits<std::int64_t>::max(), &v,
                           &error))
      << error;
  return v;
}

double number_of(const DmlNode& node, std::string_view key) {
  double v = 0;
  std::string error;
  EXPECT_TRUE(dml_read_number(atom_of(node, key),
                              {-std::numeric_limits<double>::max(),
                               std::numeric_limits<double>::max()},
                              &v, &error))
      << error;
  return v;
}

TEST(Dml, ParsesBasicDocument) {
  const auto root = parse_dml(R"(
    Net [
      frequency 1000000000
      name "my network"
      router [ id 3 ]
      router [ id 4 ]
    ]
  )");
  ASSERT_TRUE(root.has_value());
  const DmlNode* net = root->find("Net");
  ASSERT_NE(net, nullptr);
  EXPECT_EQ(int_of(*net, "frequency"), 1000000000);
  EXPECT_EQ(atom_of(*net, "name").atom, "my network");
  std::vector<const DmlNode*> routers;
  for (const DmlAttribute& a : net->attributes) {
    if (a.key == "router" && a.child) routers.push_back(a.child.get());
  }
  ASSERT_EQ(routers.size(), 2u);
  EXPECT_EQ(int_of(*routers[1], "id"), 4);
}

TEST(Dml, CommentsIgnored) {
  const auto root = parse_dml(R"(
    # a hash comment
    key 1
    // a slash comment
    other [ inner 2 ]  # trailing
  )");
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(int_of(*root, "key"), 1);
  EXPECT_EQ(int_of(*root->find("other"), "inner"), 2);
}

TEST(Dml, NestedLists) {
  const auto root = parse_dml("a [ b [ c [ d 7 ] ] ]");
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(int_of(*root->find("a")->find("b")->find("c"), "d"), 7);
}

TEST(Dml, ErrorsReportLine) {
  DmlParseError err;
  EXPECT_FALSE(parse_dml("a [\nb [\n", &err).has_value());
  EXPECT_GE(err.line, 2);
  EXPECT_FALSE(parse_dml("]", &err).has_value());
  EXPECT_FALSE(parse_dml("key", &err).has_value());  // key without value
}

// The strict readers name the key and its line, and check the range.
TEST(Dml, TypedReadersCheckTypeAndRange) {
  const auto root = parse_dml("x 3\ny 2.5\nbig 9999999999999999999\nn nan");
  ASSERT_TRUE(root.has_value());
  std::int64_t i = 0;
  double d = 0;
  std::string error;
  EXPECT_TRUE(dml_read_int(atom_of(*root, "x"), 0, 3, &i, &error));
  EXPECT_EQ(i, 3);
  EXPECT_FALSE(dml_read_int(atom_of(*root, "x"), 4, 9, &i, &error));
  EXPECT_EQ(error, "line 1: 'x' must be >= 4");
  EXPECT_FALSE(dml_read_int(atom_of(*root, "x"), 0, 2, &i, &error));
  EXPECT_EQ(error, "line 1: 'x' must be <= 2");
  EXPECT_FALSE(dml_read_int(atom_of(*root, "y"), 0, 9, &i, &error));
  EXPECT_EQ(error, "line 2: 'y' wants an integer, got '2.5'");
  EXPECT_FALSE(dml_read_int(atom_of(*root, "big"), 0,
                            std::numeric_limits<std::int64_t>::max(), &i,
                            &error));
  EXPECT_EQ(error, "line 3: 'big' must be <= 9223372036854775807");

  EXPECT_TRUE(dml_read_number(atom_of(*root, "y"), {0, 2.5, true}, &d,
                              &error));
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_FALSE(dml_read_number(atom_of(*root, "y"), {2.5, 9, true}, &d,
                               &error));
  EXPECT_EQ(error, "line 2: 'y' must be > 2.5");
  EXPECT_FALSE(dml_read_number(atom_of(*root, "y"), {0, 1}, &d, &error));
  EXPECT_EQ(error, "line 2: 'y' must be <= 1");
  EXPECT_FALSE(dml_read_number(atom_of(*root, "n"), {0, 1}, &d, &error));
  EXPECT_EQ(error, "line 4: 'n' wants a number, got 'nan'");

  // An atom with no source line (built in code, or given on a command
  // line) reports the bare message.
  DmlAttribute flag;
  flag.key = "routers";
  flag.atom = "many";
  EXPECT_FALSE(dml_read_int(flag, 0, 9, &i, &error));
  EXPECT_EQ(error, "'routers' wants an integer, got 'many'");
  EXPECT_FALSE(dml_unknown_key(flag, "Experiment", &error));
  EXPECT_EQ(error,
            "unknown key 'routers' in Experiment (prefix with x_ to ignore)");
  EXPECT_TRUE(dml_ignored("x_future"));
  EXPECT_FALSE(dml_ignored("future"));
}

TEST(Dml, WriteParsesBack) {
  DmlNode root;
  DmlNode& top = root.add_child("Top");
  top.add_atom("count", std::int64_t{12});
  top.add_atom("rate", 2.5);
  top.add_atom("label", std::string("has spaces"));
  DmlNode& inner = top.add_child("inner");
  inner.add_atom("v", std::int64_t{-3});

  const std::string text = write_dml(root);
  const auto parsed = parse_dml(text);
  ASSERT_TRUE(parsed.has_value());
  const DmlNode* t = parsed->find("Top");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(int_of(*t, "count"), 12);
  EXPECT_DOUBLE_EQ(number_of(*t, "rate"), 2.5);
  EXPECT_EQ(atom_of(*t, "label").atom, "has spaces");
  EXPECT_EQ(int_of(*t->find("inner"), "v"), -3);
}

TEST(Dml, QuotedStringsWithBrackets) {
  const auto root = parse_dml(R"(s "a [weird] # string")");
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(atom_of(*root, "s").atom, "a [weird] # string");
}

TEST(Dml, EmptyListAndEmptyDocument) {
  const auto empty = parse_dml("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->attributes.empty());

  const auto root = parse_dml("box [ ]");
  ASSERT_TRUE(root.has_value());
  ASSERT_NE(root->find("box"), nullptr);
  EXPECT_TRUE(root->find("box")->attributes.empty());
}

TEST(Dml, RepeatedKeysPreserveOrder) {
  const auto root = parse_dml("v 1 v 2 v 3");
  ASSERT_TRUE(root.has_value());
  ASSERT_EQ(root->attributes.size(), 3u);
  EXPECT_EQ(root->attributes[0].atom, "1");
  EXPECT_EQ(root->attributes[2].atom, "3");
}

TEST(Dml, AtomsWithPunctuation) {
  const auto root = parse_dml("path /a/b-c.d_e ratio -2.5e-3");
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(atom_of(*root, "path").atom, "/a/b-c.d_e");
  EXPECT_DOUBLE_EQ(number_of(*root, "ratio"), -2.5e-3);
}

TEST(Dml, MixedAtomAndChildSameKey) {
  // `find` must skip atoms.
  const auto root = parse_dml("x 5 x [ y 6 ]");
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(int_of(*root, "x"), 5);
  ASSERT_NE(root->find("x"), nullptr);
  EXPECT_EQ(int_of(*root->find("x"), "y"), 6);
}

}  // namespace
}  // namespace massf
