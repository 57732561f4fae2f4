#include "relational/csv.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/random.h"

namespace kf::relational {
namespace {

Table SampleTable() {
  Table t(Schema{{"id", DataType::kInt64},
                 {"flag", DataType::kInt32},
                 {"price", DataType::kFloat64}});
  t.AppendRow({Value::Int64(1), Value::Int32(0), Value::Float64(9.5)});
  t.AppendRow({Value::Int64(-2), Value::Int32(1), Value::Float64(0.125)});
  return t;
}

TEST(Csv, RoundTripPreservesSchemaAndRows) {
  const Table original = SampleTable();
  const Table parsed = FromCsv(ToCsv(original));
  EXPECT_EQ(parsed.schema().ToString(), original.schema().ToString());
  EXPECT_TRUE(SameRowMultiset(parsed, original));
}

TEST(Csv, HeaderCarriesTypes) {
  const std::string csv = ToCsv(SampleTable());
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "id:i64,flag:i32,price:f64");
}

TEST(Csv, RoundTripsDoublesExactly) {
  Table t(Schema{{"x", DataType::kFloat64}});
  t.AppendRow({Value::Float64(0.1 + 0.2)});  // needs 17 significant digits
  const Table parsed = FromCsv(ToCsv(t));
  EXPECT_EQ(parsed.column(0).Get(0).as_double(), 0.1 + 0.2);
}

TEST(Csv, RandomTablesRoundTrip) {
  Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    Table t(Schema{{"a", DataType::kInt32}, {"b", DataType::kFloat64}});
    const int rows = static_cast<int>(rng.UniformInt(0, 200));
    for (int r = 0; r < rows; ++r) {
      t.AppendRow({Value::Int32(static_cast<std::int32_t>(rng.UniformInt(-1000, 1000))),
                   Value::Float64(rng.UniformDouble(-5, 5))});
    }
    EXPECT_TRUE(SameRowMultiset(FromCsv(ToCsv(t)), t)) << "trial " << trial;
  }
}

TEST(Csv, EmptyTableRoundTrips) {
  Table t(Schema{{"only", DataType::kInt64}});
  const Table parsed = FromCsv(ToCsv(t));
  EXPECT_EQ(parsed.row_count(), 0u);
  EXPECT_EQ(parsed.schema().field(0).name, "only");
}

TEST(Csv, MalformedInputsThrow) {
  EXPECT_THROW(FromCsv(""), kf::Error);                         // no header
  EXPECT_THROW(FromCsv("a:i32,b\n1,2\n"), kf::Error);           // missing type
  EXPECT_THROW(FromCsv("a:i128\n1\n"), kf::Error);              // unknown type
  EXPECT_THROW(FromCsv("a:i32,b:i32\n1\n"), kf::Error);         // ragged row
  EXPECT_THROW(FromCsv("a:i32\nxyz\n"), kf::Error);             // bad integer
  EXPECT_THROW(FromCsv("a:f64\n1.5zz\n"), kf::Error);           // trailing junk
}

// Every ingestion failure carries the stable invalid_argument code so
// servers can classify client errors without string-matching messages.
TEST(Csv, MalformedInputsThrowTypedInvalidArgument) {
  const auto expect_invalid = [](const std::string& csv, const char* what) {
    try {
      (void)FromCsv(csv);
      ADD_FAILURE() << "expected kf::InvalidArgument for " << what;
    } catch (const kf::Error& e) {
      EXPECT_EQ(e.code(), kf::ErrorCode::kInvalidArgument) << what;
    }
  };
  expect_invalid("", "empty input");
  expect_invalid("a:i32,b\n1,2\n", "header field without type tag");
  expect_invalid("a:i128\n1\n", "unknown type tag");
  expect_invalid("a:i32,b:i32\n1\n", "truncated row (too few cells)");
  expect_invalid("a:i32,b:i32\n1,2,3\n", "overlong row (too many cells)");
  expect_invalid("a:i32\nxyz\n", "non-numeric integer field");
  expect_invalid("a:i32\n\xF0\x9F\x92\xA9\n", "non-ascii integer field");
  expect_invalid("a:f64\nnot-a-float\n", "non-numeric float field");
  expect_invalid("a:f64\n1.5zz\n", "float with trailing junk");
  expect_invalid("a:i32\n99999999999999999999\n", "integer out of range");
}

// An i32 cell beyond int32 is an error naming its line and cell; it used to
// wrap silently (4294967296 loaded as 0, 2147483648 as -2147483648).
TEST(Csv, OutOfRangeInt32CellsThrowNamingLineAndCell) {
  for (const std::string cell : {"4294967296", "2147483648", "-2147483649"}) {
    try {
      (void)FromCsv("a:i64,b:i32\n1,7\n2," + cell + "\n");
      ADD_FAILURE() << "expected kf::InvalidArgument for " << cell;
    } catch (const kf::InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 3"), std::string::npos) << what;
      EXPECT_NE(what.find("'" + cell + "'"), std::string::npos) << what;
    }
  }
  const Table edges = FromCsv("a:i32\n2147483647\n-2147483648\n");
  EXPECT_EQ(edges.column(0).AsInt32(),
            (std::vector<std::int32_t>{2147483647, -2147483647 - 1}));
}

TEST(Csv, OverlongLinesThrowTypedInvalidArgument) {
  // Lines beyond the 1 MiB guard are rejected up front, header or data.
  const std::string long_cell(std::size_t{1} << 21, '7');
  const auto expect_invalid = [](const std::string& csv, const char* what) {
    try {
      (void)FromCsv(csv);
      ADD_FAILURE() << "expected kf::InvalidArgument for " << what;
    } catch (const kf::Error& e) {
      EXPECT_EQ(e.code(), kf::ErrorCode::kInvalidArgument) << what;
    }
  };
  expect_invalid("a:i64\n" + long_cell + "\n", "overlong data line");
  expect_invalid(long_cell + ":i64\n1\n", "overlong header line");
}

TEST(Csv, LargeButBoundedLinesStillParse) {
  // Just under the guard: many cells, one long line — must succeed.
  Table t(Schema{{"a", DataType::kInt64}});
  std::string csv = "a:i64\n123456789\n";
  EXPECT_EQ(FromCsv(csv).row_count(), 1u);
}

TEST(Csv, BlankLinesIgnored) {
  const Table parsed = FromCsv("a:i32\n1\n\n2\n");
  EXPECT_EQ(parsed.row_count(), 2u);
}

}  // namespace
}  // namespace kf::relational
