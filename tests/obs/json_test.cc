// The tiny JSON layer under the metrics registry and the bench documents:
// construction, accessors, deterministic dumping, and parse round trips.
#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "obs/json.h"

namespace kf::obs {
namespace {

TEST(Json, TypedConstructionAndAccessors) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_EQ(Json(true).bool_value(), true);
  EXPECT_DOUBLE_EQ(Json(2.5).number(), 2.5);
  EXPECT_DOUBLE_EQ(Json(7).number(), 7.0);
  EXPECT_EQ(Json("hi").str(), "hi");
  EXPECT_EQ(Json(std::string("there")).str(), "there");
}

TEST(Json, AccessorTypeMismatchThrows) {
  EXPECT_THROW(Json(1.0).str(), Error);
  EXPECT_THROW(Json("x").number(), Error);
  EXPECT_THROW(Json().array(), Error);
}

TEST(Json, ObjectAutoVivifiesAndFinds) {
  Json doc;
  doc["a"]["b"] = Json(3);
  EXPECT_TRUE(doc.Has("a"));
  EXPECT_FALSE(doc.Has("z"));
  EXPECT_EQ(doc.at("a").at("b").number(), 3.0);
  EXPECT_EQ(doc.Find("z"), nullptr);
  EXPECT_THROW(doc.at("z"), Error);
}

TEST(Json, ArrayPushBackAndIndex) {
  Json arr = Json::MakeArray();
  arr.push_back(Json(1));
  arr.push_back(Json("two"));
  ASSERT_EQ(arr.size(), 2u);
  EXPECT_EQ(arr.at(0).number(), 1.0);
  EXPECT_EQ(arr.at(1).str(), "two");
  EXPECT_THROW(arr.at(5), Error);
}

TEST(Json, DumpIsDeterministicWithSortedKeys) {
  Json doc = Json::MakeObject();
  doc["zebra"] = Json(1);
  doc["alpha"] = Json(2);
  EXPECT_EQ(doc.Dump(), "{\"alpha\":2,\"zebra\":1}");
}

TEST(Json, IntegralDoublesPrintWithoutExponent) {
  EXPECT_EQ(Json(61069056.0).Dump(), "61069056");
  EXPECT_EQ(Json(-3.0).Dump(), "-3");
  EXPECT_EQ(Json(0.0).Dump(), "0");
}

TEST(Json, NonIntegralDoublesRoundTripExactly) {
  for (double v : {0.1, 1.0 / 3.0, 2.5e-7, 1.23456789012345e10}) {
    const std::string text = Json(v).Dump();
    EXPECT_DOUBLE_EQ(Json::Parse(text).number(), v) << text;
  }
}

TEST(Json, StringEscaping) {
  const Json v("line\n\"quoted\"\ttab");
  const Json back = Json::Parse(v.Dump());
  EXPECT_EQ(back.str(), "line\n\"quoted\"\ttab");
}

TEST(Json, ParseHandlesWhitespaceLiteralsAndNesting) {
  const Json doc = Json::Parse(
      "  { \"a\" : [ 1 , 2.5 , true , false , null , \"s\" ] }  ");
  const Json& arr = doc.at("a");
  ASSERT_EQ(arr.size(), 6u);
  EXPECT_EQ(arr.at(0).number(), 1.0);
  EXPECT_EQ(arr.at(2).bool_value(), true);
  EXPECT_TRUE(arr.at(4).is_null());
  EXPECT_EQ(arr.at(5).str(), "s");
}

TEST(Json, ParseUnicodeEscape) {
  EXPECT_EQ(Json::Parse("\"\\u0041\"").str(), "A");
  EXPECT_EQ(Json::Parse("\"\\u00e9\"").str(), "\xc3\xa9");  // é as UTF-8
}

TEST(Json, ParseErrorsCarryOffsets) {
  for (const char* malformed : {"", "{", "[1,]", "{\"a\":1} trailing", "nul",
                                "\"\\x\"", "\"\\u12g4\"", "1e", "{1:2}"}) {
    try {
      (void)Json::Parse(malformed);
      ADD_FAILURE() << "accepted: " << malformed;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos) << e.what();
    }
  }
}

TEST(Json, ParseRejectsNestingBeyondTheCap) {
  // Recursion is bounded: 50,000 nested arrays are a typed rejection, not a
  // stack overflow.
  EXPECT_THROW(Json::Parse(std::string(50000, '[')), InvalidArgument);
  const auto nested_arrays = [](int levels) {
    return std::string(levels, '[') + std::string(levels, ']');
  };
  const auto nested_objects = [](int levels) {
    std::string text;
    for (int i = 0; i < levels; ++i) text += "{\"a\":";
    return text + "1" + std::string(levels, '}');
  };
  EXPECT_THROW(Json::Parse(nested_arrays(257)), InvalidArgument);
  EXPECT_THROW(Json::Parse(nested_objects(257)), InvalidArgument);

  // Exactly at the cap (256 levels) parses.
  const Json arrays = Json::Parse(nested_arrays(256));
  int depth = 1;
  for (const Json* level = &arrays; !level->array().empty(); level = &level->array()[0]) {
    ++depth;
  }
  EXPECT_EQ(depth, 256);
  EXPECT_NO_THROW(Json::Parse(nested_objects(256)));
}

TEST(Json, EqualityIsDeep) {
  const Json a = Json::Parse("{\"x\":[1,{\"y\":2}]}");
  const Json b = Json::Parse("{\"x\":[1,{\"y\":2}]}");
  const Json c = Json::Parse("{\"x\":[1,{\"y\":3}]}");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(Json, DumpParseRoundTripOnNestedDocument) {
  Json doc = Json::MakeObject();
  doc["schema"] = Json("kf-bench-v1");
  Json series = Json::MakeArray();
  Json entry = Json::MakeObject();
  entry["name"] = Json("fused");
  Json points = Json::MakeArray();
  Json point = Json::MakeArray();
  point.push_back(Json(4194304.0));
  point.push_back(Json(1.9823912));
  points.push_back(std::move(point));
  entry["points"] = std::move(points);
  series.push_back(std::move(entry));
  doc["series"] = std::move(series);

  EXPECT_EQ(Json::Parse(doc.Dump()), doc);
  EXPECT_EQ(Json::Parse(doc.Dump(2)), doc);  // pretty-printed form too
}

}  // namespace
}  // namespace kf::obs
