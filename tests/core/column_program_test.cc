// Differential property test of the fused pipeline's typed column programs
// against the row evaluator: random expression trees over every ExprOp, on
// int32/int64/float64 columns holding NaNs, ±inf and ±0.0, run as SELECT
// predicates and ARITH expressions through core::ExecuteCluster and through
// relational::ApplyOperator (EvalExpr per row). Sinks must be byte
// identical, except that a computed NaN matches any NaN: when both operands
// of + or * are NaN, C++ leaves which one the result carries to the
// compiler, which may swap the operands (unoptimized builds do). The
// cluster must throw exactly when the reference throws.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/fused_pipeline.h"
#include "core/fusion_planner.h"
#include "relational/operators.h"
#include "tests/core/byte_identical.h"

namespace kf::core {
namespace {

using relational::Column;
using relational::DataType;
using relational::Expr;
using relational::ExprOp;
using relational::OperatorDesc;
using relational::Table;
using relational::Value;

// A double from a small pool that repeats: NaNs of both signs and two
// payloads, ±inf, ±0.0 and small halves.
double EdgeDouble(Rng& rng) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double payload_nan = std::bit_cast<double>(0x7ff8000000000123ull);
  const double inf = std::numeric_limits<double>::infinity();
  const double special[] = {nan, -nan, payload_nan, -payload_nan, inf, -inf, 0.0, -0.0};
  if (rng.UniformInt(0, 2) == 0) return special[rng.UniformInt(0, 7)];
  return static_cast<double>(rng.UniformInt(-6, 6)) * 0.5;
}

// Integers stay within [-4, 4], so no tree of depth 4 overflows int64: the
// row evaluator's integer arithmetic is undefined on overflow.
Value SmallInt(Rng& rng, DataType type) {
  const std::int64_t v = rng.UniformInt(-4, 4);
  return type == DataType::kInt32 ? Value::Int32(static_cast<std::int32_t>(v))
                                  : Value::Int64(v);
}

Value RandomValue(Rng& rng, DataType type) {
  if (type == DataType::kFloat64) return Value::Float64(EdgeDouble(rng));
  return SmallInt(rng, type);
}

DataType RandomType(Rng& rng) {
  const DataType types[] = {DataType::kInt32, DataType::kInt64, DataType::kFloat64};
  return types[rng.UniformInt(0, 2)];
}

struct Generator {
  Rng& rng;
  std::vector<DataType> types;
  bool bad_fields = false;  // may reference a field beyond the row

  Expr Leaf() {
    if (rng.UniformInt(0, 2) != 0) {
      if (bad_fields && rng.UniformInt(0, 30) == 0) {
        return Expr::FieldRef(static_cast<int>(types.size()) + 1);
      }
      return Expr::FieldRef(static_cast<int>(rng.UniformInt(0, std::ssize(types) - 1)));
    }
    return Expr::Lit(RandomValue(rng, RandomType(rng)));
  }

  // A literal only a comparison sees: integers beyond double's exact range
  // and the int64 extremes, which no arithmetic may touch.
  Expr CompareLiteral() {
    if (rng.UniformInt(0, 3) != 0) return Leaf();
    constexpr std::int64_t kExact = std::int64_t{1} << 53;
    const std::int64_t big[] = {std::numeric_limits<std::int64_t>::min(),
                                std::numeric_limits<std::int64_t>::max(), kExact + 1,
                                -kExact - 1};
    return Expr::Lit(big[rng.UniformInt(0, 3)]);
  }

  // A division only where a short circuit has ruled a zero divisor out.
  Expr GuardedDivision(int depth) {
    const Expr den = Tree(depth);
    const Expr quotient = Expr::Div(Tree(depth), den);
    const Expr bound = Leaf();
    if (rng.UniformInt(0, 1) == 0) {
      return Expr::And(Expr::Ne(den, Expr::Lit(0)), Expr::Gt(quotient, bound));
    }
    return Expr::Or(Expr::Eq(den, Expr::LitF(0.0)), Expr::Le(quotient, bound));
  }

  Expr Tree(int depth) {
    if (depth == 0 || rng.UniformInt(0, 4) == 0) return Leaf();
    // One draw past kNot stands for a guarded division.
    const auto draw = rng.UniformInt(static_cast<int>(ExprOp::kAdd),
                                     static_cast<int>(ExprOp::kNot) + 1);
    if (draw > static_cast<int>(ExprOp::kNot)) return GuardedDivision(depth - 1);
    const auto op = static_cast<ExprOp>(draw);
    switch (op) {
      case ExprOp::kNot: return Expr::Not(Tree(depth - 1));
      case ExprOp::kLt:
      case ExprOp::kLe:
      case ExprOp::kGt:
      case ExprOp::kGe:
      case ExprOp::kEq:
      case ExprOp::kNe:
        if (rng.UniformInt(0, 2) == 0) {
          return Expr::Binary(op, Expr::FieldRef(static_cast<int>(
                                      rng.UniformInt(0, std::ssize(types) - 1))),
                              CompareLiteral());
        }
        break;
      default: break;
    }
    const Expr left = Tree(depth - 1);
    return Expr::Binary(op, left, Tree(depth - 1));
  }
};

// The Value type EvalExpr returns for `e` over columns of `types`.
bool IsFloat(const Expr& e, const std::vector<DataType>& types) {
  switch (e.op) {
    case ExprOp::kConst: return e.constant.is_float();
    case ExprOp::kField:
      return types[static_cast<std::size_t>(e.field)] == DataType::kFloat64;
    case ExprOp::kDiv: return true;
    case ExprOp::kAdd:
    case ExprOp::kSub:
    case ExprOp::kMul:
      return IsFloat(e.children[0], types) || IsFloat(e.children[1], types);
    default: return false;
  }
}

// The operator's output through a singleton cluster, or nullopt when it threw.
std::optional<Table> RunCluster(const OpGraph& graph, const Table& data, int chunks,
                                ThreadPool* pool) {
  const FusionPlan plan = PlanFusion(graph);
  auto lookup = [&](NodeId) -> const Table& { return data; };
  try {
    ClusterExecution exec =
        ExecuteCluster(graph, plan.clusters.back(), lookup, chunks, pool);
    return std::move(exec.outputs.begin()->second);
  } catch (const kf::Error&) {
    return std::nullopt;
  }
}

std::optional<Table> RunReference(const OperatorDesc& desc, const Table& data) {
  try {
    return relational::ApplyOperator(desc, data, nullptr);
  } catch (const kf::Error&) {
    return std::nullopt;
  }
}

// `table` with every NaN of an ARITH's computed column made one NaN.
Table OneNan(Table table, const OperatorDesc& desc) {
  Column& computed = table.column(table.column_count() - 1);
  if (desc.kind == relational::OpKind::kArith && computed.type() == DataType::kFloat64) {
    for (double& v : computed.AsFloat64()) {
      if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
    }
  }
  return table;
}

void ExpectSameOutcome(const OperatorDesc& desc, const Table& data, int chunks,
                       ThreadPool* pool, const std::string& what) {
  OpGraph graph;
  const NodeId src = graph.AddSource("src", data.schema(), data.row_count());
  graph.AddOperator(desc, src);
  const std::optional<Table> expected = RunReference(desc, data);
  const std::optional<Table> got = RunCluster(graph, data, chunks, pool);
  ASSERT_EQ(got.has_value(), expected.has_value())
      << what << (expected ? ": the program threw" : ": the program did not throw");
  if (expected) {
    EXPECT_TRUE(ByteIdentical(OneNan(*got, desc), OneNan(*expected, desc))) << what;
  }
}

TEST(ColumnProgram, MatchesEvalExprOnRandomTrees) {
  ThreadPool pool(2);
  int threw = 0;
  for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
    Rng rng(seed);
    Generator gen{rng, {}};
    const auto width = static_cast<std::size_t>(rng.UniformInt(1, 4));
    for (std::size_t c = 0; c < width; ++c) gen.types.push_back(RandomType(rng));
    std::vector<relational::Field> fields;
    for (std::size_t c = 0; c < width; ++c) {
      fields.push_back({"c" + std::to_string(c), gen.types[c]});
    }
    Table data{relational::Schema(fields)};
    const auto rows = static_cast<std::size_t>(rng.UniformInt(0, 200));
    relational::Row row(width);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < width; ++c) row[c] = RandomValue(rng, gen.types[c]);
      data.AppendRow(row);
    }
    const int chunks = static_cast<int>(rng.UniformInt(1, 8));
    ThreadPool* on = rng.UniformInt(0, 1) == 1 ? &pool : nullptr;

    gen.bad_fields = true;
    const Expr predicate = gen.Tree(4);
    const std::string where = "seed " + std::to_string(seed) + ": ";
    ExpectSameOutcome(OperatorDesc::Select(predicate), data, chunks, on,
                      where + "SELECT " + predicate.ToString());
    threw += RunReference(OperatorDesc::Select(predicate), data).has_value() ? 0 : 1;

    gen.bad_fields = false;
    const Expr arith = gen.Tree(4);
    DataType type = IsFloat(arith, gen.types) ? DataType::kFloat64 : DataType::kInt64;
    if (type == DataType::kInt64 && rng.UniformInt(0, 3) == 0) type = DataType::kInt32;
    ExpectSameOutcome(OperatorDesc::Arith(arith, "x", type), data, chunks, on,
                      where + "ARITH " + arith.ToString());
  }
  // Both outcomes are exercised: unguarded divisions and bad fields throw.
  EXPECT_GT(threw, 50);
  EXPECT_LT(threw, 1200);
}

TEST(ColumnProgram, GuardedDivisionNeverThrowsUnguardedDoes) {
  Table data(relational::Schema{{"n", DataType::kInt64}, {"d", DataType::kFloat64}});
  for (double d : {2.0, 0.0, -0.0, std::numeric_limits<double>::quiet_NaN(), -4.0}) {
    data.AppendRow({Value::Int64(8), Value::Float64(d)});
  }
  const Expr quotient = Expr::Div(Expr::FieldRef(0), Expr::FieldRef(1));
  const Expr guarded = Expr::And(Expr::Ne(Expr::FieldRef(1), Expr::Lit(0)),
                                 Expr::Gt(quotient, Expr::Lit(1)));
  const Expr or_guarded = Expr::Or(Expr::Eq(Expr::FieldRef(1), Expr::Lit(0)),
                                   Expr::Lt(quotient, Expr::Lit(0)));
  for (const Expr& predicate : {guarded, or_guarded}) {
    ExpectSameOutcome(OperatorDesc::Select(predicate), data, 2, nullptr,
                      predicate.ToString());
    EXPECT_TRUE(RunReference(OperatorDesc::Select(predicate), data).has_value());
  }
  const OperatorDesc unguarded = OperatorDesc::Arith(quotient, "q", DataType::kFloat64);
  ExpectSameOutcome(unguarded, data, 2, nullptr, quotient.ToString());
  EXPECT_FALSE(RunReference(unguarded, data).has_value());
}

TEST(ColumnProgram, NanComparesAsValueDoes) {
  // `a <= b` is `!(b < a)`: true when either side is NaN; `>=` likewise.
  Table data(relational::Schema{{"x", DataType::kFloat64}});
  for (double x : {std::numeric_limits<double>::quiet_NaN(), 1.0, -0.0}) {
    data.AppendRow({Value::Float64(x)});
  }
  for (ExprOp op : {ExprOp::kLt, ExprOp::kLe, ExprOp::kGt, ExprOp::kGe, ExprOp::kEq,
                    ExprOp::kNe}) {
    const Expr predicate = Expr::Binary(op, Expr::FieldRef(0), Expr::LitF(0.0));
    ExpectSameOutcome(OperatorDesc::Select(predicate), data, 1, nullptr,
                      predicate.ToString());
  }
}

}  // namespace
}  // namespace kf::core
