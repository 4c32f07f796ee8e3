// ucr::json — the reader under the result cache and the daemon protocol.
// The load-bearing properties: exact number round-trips (raw tokens, not
// doubles), loud rejection of malformed documents, and escape() being the
// inverse of string parsing.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/check.hpp"

namespace ucr::json {
namespace {

TEST(JsonParse, ObjectMembersKeepDocumentOrderAndTypes) {
  const Value value = parse(
      "{\"a\":1,\"b\":\"two\",\"c\":[true,false,null],\"d\":{\"e\":2.5}}");
  ASSERT_TRUE(value.is_object());
  ASSERT_EQ(value.members().size(), 4u);
  EXPECT_EQ(value.members()[0].first, "a");
  EXPECT_EQ(value.members()[3].first, "d");
  EXPECT_EQ(value.at("a").as_u64(), 1u);
  EXPECT_EQ(value.at("b").as_string(), "two");
  ASSERT_EQ(value.at("c").items().size(), 3u);
  EXPECT_TRUE(value.at("c").items()[0].as_bool());
  EXPECT_FALSE(value.at("c").items()[1].as_bool());
  EXPECT_EQ(value.at("c").items()[2].type(), Value::Type::kNull);
  EXPECT_DOUBLE_EQ(value.at("d").at("e").as_double(), 2.5);
  EXPECT_EQ(value.find("missing"), nullptr);
  EXPECT_THROW(value.at("missing"), ContractViolation);
}

TEST(JsonParse, NumbersKeepTheirExactTokens) {
  const Value value = parse(
      "{\"u\":18446744073709551615,\"d\":1.5e-300,\"n\":-7,"
      "\"s\":5e-324}");
  // The u64 max round-trips exactly — a double would lose the low bits.
  EXPECT_EQ(value.at("u").as_u64(), 18446744073709551615ull);
  EXPECT_EQ(value.at("u").number_token(), "18446744073709551615");
  EXPECT_DOUBLE_EQ(value.at("d").as_double(), 1.5e-300);
  // Signed / fractional tokens refuse as_u64 rather than truncate.
  EXPECT_THROW(value.at("n").as_u64(), ContractViolation);
  EXPECT_THROW(value.at("d").as_u64(), ContractViolation);
  EXPECT_DOUBLE_EQ(value.at("n").as_double(), -7.0);
  // The smallest subnormal, as shortest round-trip formatting writes it.
  EXPECT_EQ(value.at("s").as_double(),
            std::numeric_limits<double>::denorm_min());
}

TEST(JsonParse, StringEscapesDecode) {
  const Value value =
      parse("{\"s\":\"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\"}");
  EXPECT_EQ(value.at("s").as_string(), "a\"b\\c\n\tA\xc3\xa9");
}

TEST(JsonParse, MalformedDocumentsThrow) {
  EXPECT_THROW(parse(""), ContractViolation);
  EXPECT_THROW(parse("{"), ContractViolation);
  EXPECT_THROW(parse("{\"a\":1,}"), ContractViolation);
  EXPECT_THROW(parse("{\"a\":1}extra"), ContractViolation);
  EXPECT_THROW(parse("{'a':1}"), ContractViolation);
  EXPECT_THROW(parse("{\"a\":01}"), ContractViolation);
  EXPECT_THROW(parse("{\"a\":+1}"), ContractViolation);
  EXPECT_THROW(parse("[1 2]"), ContractViolation);
  EXPECT_THROW(parse("nul"), ContractViolation);
  // Duplicate keys are a document bug, not a last-wins update.
  EXPECT_THROW(parse("{\"a\":1,\"a\":2}"), ContractViolation);
}

TEST(JsonParse, TypeMismatchesThrow) {
  const Value value = parse("{\"a\":1}");
  EXPECT_THROW(value.at("a").as_string(), ContractViolation);
  EXPECT_THROW(value.at("a").as_bool(), ContractViolation);
  EXPECT_THROW(value.at("a").items(), ContractViolation);
  EXPECT_THROW(value.as_u64(), ContractViolation);
}

TEST(JsonEscape, RoundTripsThroughParse) {
  const std::string nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01";
  const Value value = parse("{\"s\":\"" + escape(nasty) + "\"}");
  EXPECT_EQ(value.at("s").as_string(), nasty);
}

}  // namespace
}  // namespace ucr::json
