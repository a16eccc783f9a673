// Malformed-input coverage for the minimal JSON parser. The sweep merger
// parses many artifacts this process did not write (per-cell telemetry from
// child benches, committed sweep baselines), so every corruption class must
// fail loudly with an offset-located error — never a silently wrong
// document.
#include "sim/json_parse.h"

#include <gtest/gtest.h>

#include <string>

namespace tsxhpc::sim {
namespace {

/// Parse and require failure; returns the error message for shape checks.
std::string parse_error(const std::string& text) {
  std::string err;
  const JsonValue v = JsonParser::parse(text, &err);
  EXPECT_TRUE(v.is_null()) << "expected parse failure for: " << text;
  EXPECT_FALSE(err.empty()) << "no error message for: " << text;
  return err;
}

/// The message of the JsonError `fn` throws.
template <typename Fn>
std::string lookup_error(Fn fn) {
  try {
    fn();
  } catch (const JsonError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a JsonError";
  return "";
}

TEST(JsonParse, WellFormedRoundTrip) {
  std::string err;
  const JsonValue v = JsonParser::parse(
      R"({"a":1,"b":[true,false,null],"c":{"d":"x\ny","e":-2.5e3}})", &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(v.u64("a"), 1u);
  EXPECT_EQ(v.arr("b").size(), 3u);
  EXPECT_EQ(lookup_error([&] { v.arr("b").obj(0); }),
            "b[0]: expected object, got boolean");
  EXPECT_EQ(lookup_error([&] { v.arr("b").obj(2); }),
            "b[2]: expected object, got null");
  EXPECT_EQ(v.obj("c").str("d"), "x\ny");
  EXPECT_EQ(v.obj("c").f64("e"), -2500.0);
}

TEST(JsonParse, StrictLookupsNameThePathAndTheProblem) {
  std::string err;
  const JsonValue v = JsonParser::parse(
      R"({"runs":[{"label":"x","threads":"abc","n":-1,"f":1.5,"ok":true,)"
      R"("b":[null]}]})",
      &err);
  ASSERT_TRUE(err.empty()) << err;
  const JsonValue& run = v.arr("runs").obj(0);
  EXPECT_TRUE(run.boolean("ok"));
  EXPECT_EQ(lookup_error([&] { run.u64("tid"); }),
            "runs[0]: missing member 'tid'");
  EXPECT_EQ(lookup_error([&] { run.arr("threads"); }),
            "runs[0].threads: expected array, got string");
  EXPECT_EQ(lookup_error([&] { run.u64("n"); }),
            "runs[0].n: expected unsigned integer, got -1");
  EXPECT_EQ(lookup_error([&] { run.u64("f"); }),
            "runs[0].f: expected unsigned integer, got 1.5");
  EXPECT_EQ(lookup_error([&] { run.arr("b").obj(0); }),
            "runs[0].b[0]: expected object, got null");
  EXPECT_EQ(lookup_error([&] { run.arr("b").obj(1); }),
            "runs[0].b: index 1 out of range (size 1)");
  EXPECT_EQ(lookup_error([&] { v.objects("runs")[0].obj("label"); }),
            "runs[0].label: expected object, got string");
  EXPECT_EQ(lookup_error([&] { v.str("schema"); }),
            "(root): missing member 'schema'");
  EXPECT_EQ(lookup_error([&] { JsonParser::parse("[1]").str("schema"); }),
            "(root): expected object, got array");
  // find() is the optional lookup: absent is null, present is the member.
  EXPECT_EQ(run.find("cc"), nullptr);
  ASSERT_NE(run.find("label"), nullptr);
  EXPECT_EQ(run.find("label")->type(), JsonValue::Type::kString);
}

TEST(JsonParse, MultiByteUtf8StringsSurvive) {
  std::string err;
  // "著" (3-byte) and "é" (2-byte) and a 4-byte emoji.
  const std::string text = "{\"s\":\"\xe8\x91\x97 \xc3\xa9 \xf0\x9f\x98\x80\"}";
  const JsonValue v = JsonParser::parse(text, &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(v.str("s"), "\xe8\x91\x97 \xc3\xa9 \xf0\x9f\x98\x80");
}

TEST(JsonParse, TruncatedObjectFails) {
  parse_error("{\"runs\":[{\"label\":\"a\"}");
  parse_error("{\"a\":");
  parse_error("{\"a\"");
  parse_error("{");
  parse_error("[1,2");
  parse_error("\"unterminated");
}

TEST(JsonParse, ErrorsCarryTheOffset) {
  const std::string err = parse_error("{\"a\":1,\"b\":}");
  EXPECT_NE(err.find("offset"), std::string::npos) << err;
}

TEST(JsonParse, BadEscapesFail) {
  parse_error(R"({"a":"\q"})");        // unknown escape
  parse_error(R"({"a":"\u12"})");      // short \u
  parse_error(R"({"a":"\u12zz"})");    // non-hex \u
  parse_error("{\"a\":\"x\\");         // escape at end of input
}

TEST(JsonParse, DuplicateKeysFail) {
  const std::string err = parse_error(R"({"a":1,"a":2})");
  EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
  // Nested objects are checked too.
  parse_error(R"({"outer":{"k":1,"k":1}})");
  // Same key at different nesting levels is fine.
  std::string ok_err;
  const JsonValue v = JsonParser::parse(R"({"a":{"a":1}})", &ok_err);
  EXPECT_TRUE(ok_err.empty()) << ok_err;
  EXPECT_EQ(v.obj("a").u64("a"), 1u);
}

TEST(JsonParse, NonUtf8BytesFail) {
  // 0xFF can never appear in UTF-8.
  parse_error(std::string("{\"a\":\"\xff\"}"));
  // Bare continuation byte without a lead.
  parse_error(std::string("{\"a\":\"\x80go\"}"));
  // Overlong-encoding lead bytes 0xC0/0xC1 are invalid.
  parse_error(std::string("{\"a\":\"\xc0\xaf\"}"));
  // Lead byte whose continuation is missing (truncated sequence).
  parse_error(std::string("{\"a\":\"\xe8\x91:\"}"));
}

TEST(JsonParse, UnescapedControlCharactersFail) {
  parse_error(std::string("{\"a\":\"x\ny\"}"));  // literal newline
  parse_error(std::string("{\"a\":\"x\x01y\"}"));
  // The escaped spellings still work, including \u00XX for control bytes.
  std::string err;
  const JsonValue v = JsonParser::parse(R"({"a":"x\ny\u0001z"})", &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(v.str("a"), std::string("x\ny\x01z"));
}

TEST(JsonParse, BadLiteralsAndNumbersFail) {
  parse_error("{\"a\":tru}");
  parse_error("{\"a\":nul}");
  parse_error("{\"a\":+1}");
  parse_error("{\"a\":-}");
  parse_error("{\"a\":1} trailing");
}

}  // namespace
}  // namespace tsxhpc::sim
