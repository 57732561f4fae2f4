#include "relational/column.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"

namespace kf::relational {
namespace {

TEST(Value, ConstructorsAndAccessors) {
  const Value i32 = Value::Int32(-7);
  EXPECT_EQ(i32.type, DataType::kInt32);
  EXPECT_EQ(i32.as_int(), -7);
  EXPECT_DOUBLE_EQ(i32.as_double(), -7.0);
  EXPECT_TRUE(i32.as_bool());

  const Value f = Value::Float64(2.5);
  EXPECT_TRUE(f.is_float());
  EXPECT_EQ(f.as_int(), 2);
  EXPECT_FALSE(Value::Int64(0).as_bool());
}

TEST(Value, NumericComparisonAcrossTypes) {
  EXPECT_TRUE(Value::Int32(3) == Value::Int64(3));
  EXPECT_TRUE(Value::Int32(3) == Value::Float64(3.0));
  EXPECT_TRUE(Value::Int32(2) < Value::Float64(2.5));
  EXPECT_TRUE(Value::Float64(2.5) < Value::Int64(3));
  EXPECT_TRUE(Value::Int64(5) >= Value::Int32(5));
  EXPECT_TRUE(Value::Int64(5) != Value::Float64(5.5));
}

TEST(Value, HashConsistentWithEquality) {
  ValueHash h;
  EXPECT_EQ(h(Value::Int32(42)), h(Value::Int64(42)));
  EXPECT_EQ(h(Value::Int64(42)), h(Value::Float64(42.0)));
}

TEST(Column, TypedAppendAndGet) {
  Column c(DataType::kInt32);
  c.Append(Value::Int32(1));
  c.Append(Value::Int64(2));  // converted
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.Get(0).as_int(), 1);
  EXPECT_EQ(c.Get(1).as_int(), 2);
  EXPECT_EQ(c.Get(1).type, DataType::kInt32);
}

TEST(Column, ByteSizeTracksWidth) {
  Column i32(DataType::kInt32);
  Column f64(DataType::kFloat64);
  for (int i = 0; i < 10; ++i) {
    i32.Append(Value::Int32(i));
    f64.Append(Value::Float64(i));
  }
  EXPECT_EQ(i32.byte_size(), 40u);
  EXPECT_EQ(f64.byte_size(), 80u);
}

TEST(Column, TypedAccessThrowsOnMismatch) {
  Column c(DataType::kInt32);
  EXPECT_NO_THROW(c.AsInt32());
  EXPECT_THROW(c.AsInt64(), Error);
  EXPECT_THROW(c.AsFloat64(), Error);
}

TEST(Column, DirectVectorAccessIsLive) {
  Column c(DataType::kFloat64);
  c.AsFloat64().push_back(1.5);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_DOUBLE_EQ(c.Get(0).as_double(), 1.5);
}

TEST(Column, ClearEmpties) {
  Column c(DataType::kInt64);
  c.Append(Value::Int64(1));
  c.Clear();
  EXPECT_TRUE(c.empty());
}

TEST(Column, GetOutOfRangeThrows) {
  Column c(DataType::kInt32);
  EXPECT_THROW(c.Get(0), std::out_of_range);
}

Column Int32Column(std::initializer_list<std::int32_t> values) {
  Column c(DataType::kInt32);
  c.AsInt32() = values;
  return c;
}

const std::int32_t* RowsOf(const Column& c) { return c.AsInt32().data(); }

TEST(Column, CopySharesRows) {
  const Column original = Int32Column({1, 2, 3});
  const Column copy = original;
  EXPECT_EQ(RowsOf(copy), RowsOf(original));
  Column assigned(DataType::kInt32);
  assigned = copy;
  EXPECT_EQ(RowsOf(assigned), RowsOf(original));
  EXPECT_EQ(assigned.AsInt32(), (std::vector<std::int32_t>{1, 2, 3}));
}

// Each mutator, applied to either side of a copy, gives that side its own
// rows and leaves the other side's values and storage as they were.
TEST(Column, EveryMutatorDetaches) {
  const std::vector<std::pair<const char*, void (*)(Column&)>> mutators = {
      {"Append", [](Column& c) { c.Append(Value::Int32(9)); }},
      {"Reserve", [](Column& c) { c.Reserve(64); }},
      {"Clear", [](Column& c) { c.Clear(); }},
      {"AsInt32", [](Column& c) { c.AsInt32()[0] = 9; }},
  };
  for (const auto& [name, mutate] : mutators) {
    for (const bool mutate_copy : {true, false}) {
      SCOPED_TRACE(std::string(name) + (mutate_copy ? " on the copy" : " on the original"));
      Column original = Int32Column({1, 2, 3});
      Column copy = original;
      const std::int32_t* shared = RowsOf(original);
      Column& written = mutate_copy ? copy : original;
      const Column& kept = mutate_copy ? original : copy;
      mutate(written);
      EXPECT_EQ(RowsOf(kept), shared);
      EXPECT_EQ(kept.AsInt32(), (std::vector<std::int32_t>{1, 2, 3}));
      EXPECT_NE(RowsOf(written), shared);
    }
  }
}

TEST(Column, WideTypedAccessorsDetach) {
  Column i64(DataType::kInt64);
  i64.Append(Value::Int64(5));
  const Column i64_copy = i64;
  i64.AsInt64()[0] = 6;
  EXPECT_EQ(i64_copy.Get(0).as_int(), 5);
  EXPECT_EQ(i64.Get(0).as_int(), 6);

  Column f64(DataType::kFloat64);
  f64.Append(Value::Float64(0.5));
  const Column f64_copy = f64;
  f64.AsFloat64()[0] = 1.5;
  EXPECT_DOUBLE_EQ(f64_copy.Get(0).as_double(), 0.5);
  EXPECT_DOUBLE_EQ(f64.Get(0).as_double(), 1.5);
}

TEST(Column, SoleOwnerWritesInPlace) {
  Column c = Int32Column({1, 2, 3});
  const std::int32_t* rows = RowsOf(c);
  c.AsInt32()[1] = 7;
  EXPECT_EQ(RowsOf(c), rows);
  {
    const Column copy = c;
  }
  c.AsInt32()[2] = 8;  // the copy is gone: no detach
  EXPECT_EQ(RowsOf(c), rows);
  EXPECT_EQ(c.AsInt32(), (std::vector<std::int32_t>{1, 7, 8}));
}

TEST(Column, MovedFromIsEmptyOfItsType) {
  Column source = Int32Column({1, 2, 3});
  const std::int32_t* rows = RowsOf(source);
  Column moved = std::move(source);
  EXPECT_EQ(RowsOf(moved), rows);
  EXPECT_TRUE(source.empty());
  EXPECT_EQ(source.type(), DataType::kInt32);
  EXPECT_TRUE(source.AsInt32().empty());
  source.Append(Value::Int32(4));
  EXPECT_EQ(source.Get(0).as_int(), 4);

  Column assigned(DataType::kFloat64);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.type(), DataType::kInt32);
  EXPECT_EQ(RowsOf(assigned), rows);
  EXPECT_TRUE(moved.empty());
  EXPECT_EQ(moved.type(), DataType::kInt32);
}

}  // namespace
}  // namespace kf::relational
