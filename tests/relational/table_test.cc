#include "relational/table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/integrity.h"

namespace kf::relational {
namespace {

Schema TwoColSchema() {
  return Schema{{"k", DataType::kInt64}, {"v", DataType::kFloat64}};
}

TEST(Schema, IndexOfAndRowWidth) {
  const Schema s = TwoColSchema();
  EXPECT_EQ(s.IndexOf("k"), 0u);
  EXPECT_EQ(s.IndexOf("v"), 1u);
  EXPECT_THROW(s.IndexOf("nope"), Error);
  EXPECT_EQ(s.row_width_bytes(), 16u);
}

TEST(Table, AppendAndGetRows) {
  Table t(TwoColSchema());
  t.AppendRow({Value::Int64(1), Value::Float64(1.5)});
  t.AppendRow({Value::Int64(2), Value::Float64(2.5)});
  EXPECT_EQ(t.row_count(), 2u);
  const Row row = t.GetRow(1);
  EXPECT_EQ(row[0].as_int(), 2);
  EXPECT_DOUBLE_EQ(row[1].as_double(), 2.5);
  EXPECT_THROW(t.GetRow(2), Error);
}

TEST(Table, AppendRowValidatesArity) {
  Table t(TwoColSchema());
  EXPECT_THROW(t.AppendRow({Value::Int64(1)}), Error);
}

TEST(Table, ByteSizeSumsColumns) {
  Table t(TwoColSchema());
  for (int i = 0; i < 4; ++i) t.AppendRow({Value::Int64(i), Value::Float64(i)});
  EXPECT_EQ(t.byte_size(), 4u * (8 + 8));
}

TEST(Table, ColumnByName) {
  Table t(TwoColSchema());
  t.AppendRow({Value::Int64(7), Value::Float64(0.5)});
  EXPECT_EQ(t.column("k").Get(0).as_int(), 7);
}

TEST(Table, SyncRowCountFromColumns) {
  Table t(Schema{{"v", DataType::kInt32}});
  t.column(0).AsInt32() = {1, 2, 3};
  t.SyncRowCountFromColumns();
  EXPECT_EQ(t.row_count(), 3u);
}

TEST(Table, SyncRowCountRejectsRaggedColumns) {
  Table t(TwoColSchema());
  t.column(0).Append(Value::Int64(1));
  EXPECT_THROW(t.SyncRowCountFromColumns(), Error);
}

TEST(Table, SameRowMultisetIsOrderInsensitive) {
  Table a(TwoColSchema()), b(TwoColSchema());
  a.AppendRow({Value::Int64(1), Value::Float64(1.0)});
  a.AppendRow({Value::Int64(2), Value::Float64(2.0)});
  b.AppendRow({Value::Int64(2), Value::Float64(2.0)});
  b.AppendRow({Value::Int64(1), Value::Float64(1.0)});
  EXPECT_TRUE(SameRowMultiset(a, b));
}

TEST(Table, SameRowMultisetCountsDuplicates) {
  Table a(TwoColSchema()), b(TwoColSchema());
  a.AppendRow({Value::Int64(1), Value::Float64(1.0)});
  a.AppendRow({Value::Int64(1), Value::Float64(1.0)});
  b.AppendRow({Value::Int64(1), Value::Float64(1.0)});
  EXPECT_FALSE(SameRowMultiset(a, b));
  b.AppendRow({Value::Int64(1), Value::Float64(1.0)});
  EXPECT_TRUE(SameRowMultiset(a, b));
}

TEST(Table, ApproxSameRowMultisetToleratesUlps) {
  Table a(TwoColSchema()), b(TwoColSchema());
  a.AppendRow({Value::Int64(1), Value::Float64(0.1 + 0.2)});
  b.AppendRow({Value::Int64(1), Value::Float64(0.3)});
  EXPECT_TRUE(ApproxSameRowMultiset(a, b));
  EXPECT_FALSE(SameRowMultiset(a, b));  // exact comparison sees the ulp
}

TEST(Table, ApproxSameRowMultisetRejectsRealDifferences) {
  Table a(TwoColSchema()), b(TwoColSchema());
  a.AppendRow({Value::Int64(1), Value::Float64(1.0)});
  b.AppendRow({Value::Int64(1), Value::Float64(1.01)});
  EXPECT_FALSE(ApproxSameRowMultiset(a, b));
}

TEST(Table, ToStringTruncates) {
  Table t(TwoColSchema());
  for (int i = 0; i < 30; ++i) t.AppendRow({Value::Int64(i), Value::Float64(i)});
  const std::string s = t.ToString(5);
  EXPECT_NE(s.find("rows=30"), std::string::npos);
  EXPECT_NE(s.find("25 more"), std::string::npos);
}

Table Numbered(std::size_t rows) {
  Table t(TwoColSchema());
  for (std::size_t r = 0; r < rows; ++r) {
    t.AppendRow({Value::Int64(static_cast<std::int64_t>(r)),
                 Value::Float64(static_cast<double>(r) / 2)});
  }
  return t;
}

TEST(Table, CopySharesEveryColumn) {
  const Table original = Numbered(100);
  Table copy = original;
  EXPECT_EQ(std::as_const(copy).column(0).AsInt64().data(), original.column(0).AsInt64().data());
  EXPECT_EQ(std::as_const(copy).column(1).AsFloat64().data(),
            original.column(1).AsFloat64().data());
  copy.AppendRow({Value::Int64(-1), Value::Float64(-1.0)});
  EXPECT_EQ(original.row_count(), 100u);
  EXPECT_EQ(original.column(0).size(), 100u);
  EXPECT_EQ(copy.GetRow(100)[0].as_int(), -1);
}

TEST(Table, AppendRowsCopiesARangeIntoItsOwnRows) {
  const Table source = Numbered(10);
  Table out = Numbered(2);
  const Table before = out;  // shares out's rows
  out.AppendRows(source, 3, 7);
  ASSERT_EQ(out.row_count(), 6u);
  for (std::size_t r = 0; r < 4; ++r) EXPECT_EQ(out.GetRow(2 + r), source.GetRow(3 + r));
  EXPECT_EQ(before.column(0).size(), 2u);
  EXPECT_EQ(source.row_count(), 10u);
  out.AppendRows(source, 10, 10);
  EXPECT_EQ(out.row_count(), 6u);

  // A rejected append changes nothing.
  Table ints(Schema{{"k", DataType::kInt64}, {"v", DataType::kInt64}});
  ints.AppendRow({Value::Int64(1), Value::Int64(2)});
  EXPECT_THROW(out.AppendRows(ints, 0, 1), Error);
  EXPECT_THROW(out.AppendRows(source, 8, 11), Error);
  EXPECT_THROW(out.AppendRows(source, 5, 4), Error);
  EXPECT_THROW(out.AppendRows(out, 0, 1), Error);
  EXPECT_EQ(out.row_count(), 6u);
  EXPECT_EQ(out.column(0).size(), 6u);
  EXPECT_EQ(out.column(1).size(), 6u);
}

// A silent-corruption flip on a table that shares its rows (an executor's
// bare-source sink result shares the caller's source) writes its own rows.
TEST(Table, FlipRandomBitOnACopyLeavesTheOriginal) {
  const Table original = Numbered(64);
  const std::uint64_t before = core::ChecksumTable(original);
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    Table copy = original;
    ASSERT_TRUE(core::FlipRandomBit(copy, seed));
    EXPECT_NE(core::ChecksumTable(copy), before);
    EXPECT_EQ(core::ChecksumTable(original), before);
  }
}

// Writers copy one shared table and rewrite their copies while readers
// checksum the shared one: nobody sees another thread's writes.
TEST(Table, ConcurrentCopiesAndWritesStayApart) {
  const Table shared = Numbered(4096);
  const std::uint64_t expected = core::ChecksumTable(shared);
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 3; ++w) {
    threads.emplace_back([&, w] {
      for (int round = 0; round < 20; ++round) {
        Table mine = shared;
        const auto mark = static_cast<std::int64_t>(-(w * 100 + round) - 1);
        for (std::int64_t& k : mine.column(0).AsInt64()) k = mark;
        mine.column(1).AsFloat64().front() = static_cast<double>(mark);
        mine.AppendRow({Value::Int64(mark), Value::Float64(0.0)});
        for (std::int64_t k : std::as_const(mine).column(0).AsInt64()) {
          if (k != mark) ++wrong;
        }
        if (mine.column(1).Get(0).as_double() != static_cast<double>(mark)) ++wrong;
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        if (core::ChecksumTable(shared) != expected) ++wrong;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(core::ChecksumTable(shared), expected);
}

// Once every copy is gone, the owner writes its rows in place. The copies'
// holders signal only through relaxed atomics, so under TSan it is the
// column's sole-owner check that orders their last reads before that write.
TEST(Table, SoleOwnerWritesInPlaceAfterEveryCopyLetGo) {
  Table owner = Numbered(4096);
  const std::uint64_t expected = core::ChecksumTable(owner);
  const std::int64_t* rows = std::as_const(owner).column(0).AsInt64().data();
  std::vector<Table> copies(3, owner);
  std::atomic<int> wrong{0}, released{0};
  std::vector<std::thread> readers;
  for (Table& copy : copies) {
    readers.emplace_back([&] {
      if (core::ChecksumTable(copy) != expected) ++wrong;
      copy = Table();
      released.fetch_add(1, std::memory_order_relaxed);
    });
  }
  while (released.load(std::memory_order_relaxed) < 3) std::this_thread::yield();
  owner.column(0).AsInt64()[0] = -1;
  EXPECT_EQ(std::as_const(owner).column(0).AsInt64().data(), rows);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(owner.column(0).Get(0).as_int(), -1);
}

}  // namespace
}  // namespace kf::relational
