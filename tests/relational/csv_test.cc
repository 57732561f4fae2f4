#include "relational/csv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

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

TEST(Csv, HeaderCarriesTypes) {
  const std::string csv = ToCsv(SampleTable());
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "id:i64,flag:i32,price:f64");
}

TEST(Csv, RendersRowsInTableOrder) {
  EXPECT_EQ(ToCsv(SampleTable()),
            "id:i64,flag:i32,price:f64\n"
            "1,0,9.5\n"
            "-2,1,0.125\n");
}

TEST(Csv, RendersEmptyTableAsHeaderOnly) {
  EXPECT_EQ(ToCsv(Table(Schema{{"only", DataType::kInt64}})), "only:i64\n");
}

// Tests compare tables through ToCsv, so the text must tell every double
// apart: each rendered cell parses back to the same bits, neighbouring
// doubles render differently, and so do +0.0 and -0.0.
TEST(Csv, RoundTripsDoublesExactly) {
  const double sum = 0.1 + 0.2;  // needs 17 significant digits
  const std::vector<double> values = {sum, std::nextafter(sum, 1.0), 0.0, -0.0,
                                      -1e-308, 1.7976931348623157e308};
  Table t(Schema{{"x", DataType::kFloat64}});
  for (double v : values) t.AppendRow({Value::Float64(v)});

  std::istringstream lines(ToCsv(t));
  std::string line;
  std::getline(lines, line);  // header
  std::vector<std::string> cells;
  for (double v : values) {
    ASSERT_TRUE(static_cast<bool>(std::getline(lines, line)));
    char* end = nullptr;
    const double parsed = std::strtod(line.c_str(), &end);
    EXPECT_EQ(*end, '\0') << line;
    EXPECT_EQ(std::memcmp(&parsed, &v, sizeof v), 0) << line;
    cells.push_back(line);
  }
  EXPECT_NE(cells[0], cells[1]);  // neighbouring doubles
  EXPECT_NE(cells[2], cells[3]);  // +0.0 against -0.0
}

}  // namespace
}  // namespace kf::relational
