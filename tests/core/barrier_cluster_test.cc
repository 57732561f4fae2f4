// Barrier clusters — SORT, UNIQUE, UNION, INTERSECT, DIFFERENCE — run alone
// through ExecuteCluster, column at a time, and must return exactly the bytes
// the operator-at-a-time ApplyOperator returns: the same rows in the same
// order, the same type tags, the same payload bits. Inputs repeat values and
// hold the cases row keys and comparators must get right: ±0.0 (two keys,
// one sort rank), NaNs of both signs with two payloads (one key per sign,
// never less or greater than anything), and ±inf.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/fused_pipeline.h"
#include "relational/operators.h"
#include "tests/core/byte_identical.h"
#include "tests/core/random_graph.h"

namespace kf::core {
namespace {

using relational::ApplyOperator;
using relational::DataType;
using relational::OperatorDesc;
using relational::Table;

// Columns of the given types, few distinct values each, with the edge
// cases of random_graph.h's RandomDouble unless `finite` (a UNION converts
// right floats into an int column).
Table MakeTable(const std::vector<DataType>& types, std::size_t rows, std::uint64_t seed,
                bool finite = false) {
  Rng rng(seed);
  return random_graph_internal::RandomTypedTable(
      rng, types, std::vector<bool>(types.size(), finite), rows);
}

// `op` over `left` (and `right`) as a singleton cluster.
class BarrierCluster {
 public:
  BarrierCluster(const OperatorDesc& op, const Table& left, const Table* right = nullptr)
      : left_(left), right_(right) {
    const NodeId l = graph_.AddSource("left", left.schema(), left.row_count());
    tables_.emplace(l, &left);
    NodeId r = kNoNode;
    if (right != nullptr) {
      r = graph_.AddSource("right", right->schema(), right->row_count());
      tables_.emplace(r, right);
    }
    node_ = right != nullptr ? graph_.AddOperator(op, l, r) : graph_.AddOperator(op, l);
    cluster_.nodes = {node_};
    cluster_.primary_input = l;
    if (right != nullptr) cluster_.build_inputs = {r};
    cluster_.outputs = {node_};
  }

  Table Run(int chunk_count, ThreadPool* pool) const {
    auto lookup = [&](NodeId id) -> const Table& { return *tables_.at(id); };
    ClusterExecution exec = ExecuteCluster(graph_, cluster_, lookup, chunk_count, pool);
    EXPECT_EQ(exec.member_rows.at(node_), exec.outputs.at(node_).row_count());
    return std::move(exec.outputs.at(node_));
  }

  Table Reference() const {
    return ApplyOperator(graph_.node(node_).desc, left_, right_);
  }

 private:
  OpGraph graph_;
  std::map<NodeId, const Table*> tables_;
  NodeId node_ = kNoNode;
  FusionCluster cluster_;
  const Table& left_;
  const Table* right_;
};

// Runs `op` at 1, 64 and 448 chunks, with and without a pool, against the
// reference; returns the reference.
Table ExpectMatchesReference(const OperatorDesc& op, const Table& left,
                             const Table* right = nullptr) {
  static ThreadPool pool(3);
  const BarrierCluster cluster(op, left, right);
  Table expected = cluster.Reference();
  for (int chunks : {1, 64, 448}) {
    for (ThreadPool* use_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
      EXPECT_TRUE(ByteIdentical(cluster.Run(chunks, use_pool), expected))
          << relational::ToString(op.kind) << " chunks=" << chunks
          << " pool=" << (use_pool != nullptr) << " left " << left.schema().ToString();
    }
  }
  return expected;
}

const std::vector<DataType> kMixed = {DataType::kInt32, DataType::kInt64,
                                      DataType::kFloat64};

TEST(BarrierCluster, SortOnOneToThreeKeysOfMixedTypes) {
  const std::vector<std::vector<int>> key_sets = {
      {0}, {1}, {2}, {2, 0}, {0, 2}, {1, 2}, {2, 1}, {0, 2, 1}, {2, 1, 0}, {2, 2, 0}, {}};
  for (std::size_t rows : {0, 1, 17, 300}) {
    for (std::uint64_t seed : {1, 2, 3}) {
      const Table t = MakeTable(kMixed, rows, seed * 97 + rows);
      for (const std::vector<int>& keys : key_sets) {
        ExpectMatchesReference(OperatorDesc::Sort(keys), t);
      }
    }
  }
}

TEST(BarrierCluster, SortKeyOutOfRangeThrowsTheReferenceError) {
  const Table t = MakeTable(kMixed, 20, 5);
  for (const std::vector<int>& keys : {std::vector<int>{3}, std::vector<int>{0, -1}}) {
    const BarrierCluster cluster(OperatorDesc::Sort(keys), t);
    ErrorCode expected = ErrorCode::kCancelled;
    try {
      (void)cluster.Reference();
    } catch (const kf::Error& e) {
      expected = e.code();
    }
    ASSERT_EQ(expected, ErrorCode::kGeneric);
    try {
      (void)cluster.Run(64, nullptr);
      ADD_FAILURE() << "out-of-range SORT key did not throw";
    } catch (const kf::Error& e) {
      EXPECT_EQ(e.code(), expected) << e.what();
    }
  }
}

TEST(BarrierCluster, UniqueKeepsFirstSeenRows) {
  const std::vector<std::vector<DataType>> schemas = {
      {DataType::kFloat64}, {DataType::kInt32, DataType::kFloat64}, kMixed};
  for (const std::vector<DataType>& types : schemas) {
    for (std::size_t rows : {0, 1, 40, 400}) {
      const Table t = MakeTable(types, rows, rows + types.size());
      const Table unique = ExpectMatchesReference(OperatorDesc::Unique(), t);
      if (types.size() == 1 && rows == 400) {
        // Thirteen halves in [-3, 3], -0.0 apart from 0.0, ±inf, and the
        // four NaNs as two rows, one per sign.
        EXPECT_EQ(unique.row_count(), 18u);
      }
    }
  }
}

// Left and right column types of a set operator.
struct SetCase {
  const char* name;
  std::vector<DataType> left, right;
  bool rows_can_match;
};

const SetCase kSetCases[] = {
    {"i32_vs_i64",
     {DataType::kInt32, DataType::kFloat64},
     {DataType::kInt64, DataType::kFloat64},
     true},
    {"i64_vs_i32",
     {DataType::kInt64, DataType::kInt32},
     {DataType::kInt32, DataType::kInt64},
     true},
    {"f64_vs_i64",
     {DataType::kFloat64, DataType::kInt32},
     {DataType::kInt64, DataType::kInt32},
     false},
    {"i64_vs_f64",
     {DataType::kInt64, DataType::kInt32},
     {DataType::kFloat64, DataType::kInt32},
     false},
};

TEST(BarrierCluster, SetOperatorsAcrossColumnTypes) {
  for (const SetCase& c : kSetCases) {
    std::size_t intersected = 0;
    for (std::size_t left_rows : {0, 5, 150}) {
      for (std::size_t right_rows : {0, 7, 120}) {
        const Table left = MakeTable(c.left, left_rows, left_rows * 31 + 1);
        // Right floats unioned into an int column must convert to an int.
        const Table right =
            MakeTable(c.right, right_rows, right_rows * 17 + 2, !c.rows_can_match);
        ExpectMatchesReference(OperatorDesc::Union(), left, &right);
        const Table both =
            ExpectMatchesReference(OperatorDesc::Intersect(), left, &right);
        const Table only_left =
            ExpectMatchesReference(OperatorDesc::Difference(), left, &right);
        intersected += both.row_count();
        if (!c.rows_can_match) {
          EXPECT_TRUE(
              ByteIdentical(only_left, ApplyOperator(OperatorDesc::Unique(), left)))
              << c.name;
        }
      }
    }
    if (c.rows_can_match) {
      EXPECT_GT(intersected, 0u) << c.name << ": no rows matched across the sides";
    } else {
      EXPECT_EQ(intersected, 0u) << c.name << ": an int matched a float";
    }
  }
}

}  // namespace
}  // namespace kf::core
