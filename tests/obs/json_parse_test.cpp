#include <gtest/gtest.h>

#include <string>

#include "obs/json.hpp"

namespace quicksand::obs {
namespace {

TEST(JsonParse, RoundTripsBuilderOutput) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", "quicksand-bench-v1");
  doc.Set("count", std::int64_t{42});
  doc.Set("ratio", 0.25);
  doc.Set("ok", true);
  JsonValue list = JsonValue::Array();
  list.Append(std::int64_t{1});
  list.Append("two");
  doc.Set("list", std::move(list));
  JsonValue nested = JsonValue::Object();
  nested.Set("inner", std::int64_t{-7});
  doc.Set("nested", std::move(nested));

  const std::string dumped = doc.Dump(2);
  const std::optional<JsonValue> parsed = JsonValue::Parse(dumped);
  ASSERT_TRUE(parsed.has_value());
  // Byte-identical re-dump: key order, number formatting, and escapes all
  // survive the round trip.
  EXPECT_EQ(parsed->Dump(2), dumped);
}

TEST(JsonParse, AccessorsNavigate) {
  const auto doc = JsonValue::Parse(
      R"({"a": {"b": [10, 20.5, "x", false, null]}, "s": "hi\nthere"})");
  ASSERT_TRUE(doc.has_value());
  const JsonValue* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->IsObject());
  const JsonValue* b = a->Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->IsArray());
  ASSERT_EQ(b->elements().size(), 5u);
  EXPECT_EQ(b->elements()[0].AsInt(), 10);
  EXPECT_DOUBLE_EQ(b->elements()[1].AsDouble(), 20.5);
  EXPECT_EQ(b->elements()[2].AsString(), "x");
  EXPECT_FALSE(b->elements()[3].AsBool());
  EXPECT_EQ(doc->Find("s")->AsString(), "hi\nthere");
  EXPECT_EQ(doc->Find("missing"), nullptr);
}

TEST(JsonParse, EscapesRoundTrip) {
  JsonValue doc = JsonValue::Object();
  doc.Set("tricky", std::string("quote\" slash\\ tab\t newline\n ctrl\x01"));
  const std::string dumped = doc.Dump();
  const auto parsed = JsonValue::Parse(dumped);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Find("tricky")->AsString(),
            "quote\" slash\\ tab\t newline\n ctrl\x01");
}

TEST(JsonParse, FailsClosedWithByteOffsets) {
  std::string error;
  EXPECT_FALSE(JsonValue::Parse("", &error).has_value());
  EXPECT_FALSE(JsonValue::Parse("{", &error).has_value());
  EXPECT_FALSE(JsonValue::Parse("{\"a\": }", &error).has_value());
  EXPECT_FALSE(JsonValue::Parse("[1, 2,]", &error).has_value());
  EXPECT_FALSE(JsonValue::Parse("{\"a\": 1} trailing", &error).has_value());
  EXPECT_FALSE(JsonValue::Parse("nul", &error).has_value());
  EXPECT_NE(error.find("byte"), std::string::npos) << error;
}

TEST(JsonParse, DepthLimited) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  EXPECT_FALSE(JsonValue::Parse(deep).has_value());
}

}  // namespace
}  // namespace quicksand::obs
