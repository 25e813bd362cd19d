#include <gtest/gtest.h>

#include "dml/dml.hpp"

namespace massf {
namespace {

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
  EXPECT_EQ(net->require_int("frequency"), 1000000000);
  EXPECT_EQ(net->require_string("name"), "my network");
  EXPECT_EQ(net->find_all("router").size(), 2u);
  EXPECT_EQ(net->find_all("router")[1]->require_int("id"), 4);
}

TEST(Dml, CommentsIgnored) {
  const auto root = parse_dml(R"(
    # a hash comment
    key 1
    // a slash comment
    other [ inner 2 ]  # trailing
  )");
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(root->require_int("key"), 1);
  EXPECT_EQ(root->find("other")->require_int("inner"), 2);
}

TEST(Dml, NestedLists) {
  const auto root = parse_dml("a [ b [ c [ d 7 ] ] ]");
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(root->find("a")->find("b")->find("c")->require_int("d"), 7);
}

TEST(Dml, ErrorsReportLine) {
  DmlParseError err;
  EXPECT_FALSE(parse_dml("a [\nb [\n", &err).has_value());
  EXPECT_GE(err.line, 2);
  EXPECT_FALSE(parse_dml("]", &err).has_value());
  EXPECT_FALSE(parse_dml("key", &err).has_value());  // key without value
}

TEST(Dml, TypedAccessorsWithFallback) {
  const auto root = parse_dml("x 3 y 2.5 s hello");
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(root->get_int("x", -1), 3);
  EXPECT_DOUBLE_EQ(root->get_double("y", 0), 2.5);
  EXPECT_EQ(root->get_string("s", ""), "hello");
  EXPECT_EQ(root->get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(root->get_double("missing", 1.5), 1.5);
  EXPECT_EQ(root->get_string("missing", "dflt"), "dflt");
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
  EXPECT_EQ(t->require_int("count"), 12);
  EXPECT_DOUBLE_EQ(t->require_double("rate"), 2.5);
  EXPECT_EQ(t->require_string("label"), "has spaces");
  EXPECT_EQ(t->find("inner")->require_int("v"), -3);
}

TEST(Dml, QuotedStringsWithBrackets) {
  const auto root = parse_dml(R"(s "a [weird] # string")");
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(root->require_string("s"), "a [weird] # string");
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
  // atom() returns the first.
  EXPECT_EQ(root->require_int("v"), 1);
}

TEST(Dml, AtomsWithPunctuation) {
  const auto root = parse_dml("path /a/b-c.d_e ratio -2.5e-3");
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(root->require_string("path"), "/a/b-c.d_e");
  EXPECT_DOUBLE_EQ(root->require_double("ratio"), -2.5e-3);
}

TEST(Dml, MixedAtomAndChildSameKey) {
  // `find` must skip atoms, `atom` must skip children.
  const auto root = parse_dml("x 5 x [ y 6 ]");
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(root->require_int("x"), 5);
  ASSERT_NE(root->find("x"), nullptr);
  EXPECT_EQ(root->find("x")->require_int("y"), 6);
}

}  // namespace
}  // namespace massf
