// Relational-algebra operator descriptors and their functional semantics.
//
// Every operator of paper Table I is here (SELECT, PROJECT, PRODUCT, JOIN,
// UNION, INTERSECTION, DIFFERENCE), plus the auxiliary operators the TPC-H
// queries need (ARITH maps, AGGREGATION, SORT, UNIQUE). `ApplyOperator` is
// the executable semantics, one row at a time: the reference the executor's
// column-at-a-time kernels (core/fused_pipeline.h) must match byte for byte
// (float sums aside, which those kernels add per chunk), and what tests, the
// graph fuzzer and the benchmark oracles compare against. The executor never
// calls it. Set operators use set semantics (distinct rows); JOIN is an
// equi-join on one key field per side, emitting the left row plus the right
// row's non-key fields (Table I's convention, key = field 0 by default).
#ifndef KF_RELATIONAL_OPERATORS_H_
#define KF_RELATIONAL_OPERATORS_H_

#include <optional>
#include <string>
#include <vector>

#include "relational/expr.h"
#include "relational/table.h"

namespace kf::relational {

enum class OpKind : std::uint8_t {
  kSelect,
  kProject,
  kProduct,
  kJoin,
  kUnion,
  kIntersect,
  kDifference,
  kAggregate,
  kArith,
  kSort,
  kUnique,
};

const char* ToString(OpKind kind);

struct AggregateSpec {
  enum class Func : std::uint8_t { kSum, kMin, kMax, kCount, kAvg };
  Func func = Func::kSum;
  int field = 0;  // ignored for kCount
  std::string name;
};

// A fully-parameterized operator instance. Only the members relevant to
// `kind` are read.
struct OperatorDesc {
  OpKind kind = OpKind::kSelect;
  std::string label;

  Expr predicate;                         // kSelect
  std::vector<int> fields;                // kProject: kept fields, in order
  int left_key = 0;                       // kJoin
  int right_key = 0;                      // kJoin
  std::vector<int> sort_keys;             // kSort: lexicographic key order
  std::vector<int> group_by;              // kAggregate (may be empty)
  std::vector<AggregateSpec> aggregates;  // kAggregate
  Expr arith;                             // kArith: appended column
  std::string arith_name = "expr";        // kArith
  DataType arith_type = DataType::kFloat64;

  static OperatorDesc Select(Expr predicate, std::string label = "select");
  static OperatorDesc Project(std::vector<int> fields, std::string label = "project");
  static OperatorDesc Product(std::string label = "product");
  static OperatorDesc Join(int left_key = 0, int right_key = 0,
                           std::string label = "join");
  static OperatorDesc Union(std::string label = "union");
  static OperatorDesc Intersect(std::string label = "intersect");
  static OperatorDesc Difference(std::string label = "difference");
  static OperatorDesc Aggregate(std::vector<int> group_by,
                                std::vector<AggregateSpec> aggregates,
                                std::string label = "aggregate");
  static OperatorDesc Arith(Expr expr, std::string name,
                            DataType type = DataType::kFloat64,
                            std::string label = "arith");
  static OperatorDesc Sort(std::vector<int> keys, std::string label = "sort");
  static OperatorDesc Unique(std::string label = "unique");

  bool is_binary() const {
    return kind == OpKind::kProduct || kind == OpKind::kJoin ||
           kind == OpKind::kUnion || kind == OpKind::kIntersect ||
           kind == OpKind::kDifference;
  }
};

// Schema of the operator's output given its input schema(s). Throws on
// malformed descriptors (bad field indices, missing right input, ...).
Schema OutputSchema(const OperatorDesc& op, const Schema& left, const Schema* right);

// Executes the operator. `right` must be non-null iff `op.is_binary()`.
Table ApplyOperator(const OperatorDesc& op, const Table& left,
                    const Table* right = nullptr);

}  // namespace kf::relational

#endif  // KF_RELATIONAL_OPERATORS_H_
