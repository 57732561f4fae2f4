#include "relational/predicate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "relational/expr.h"

namespace kf::relational {
namespace {

constexpr std::int64_t kI32Min = std::numeric_limits<std::int32_t>::min();
constexpr std::int64_t kI32Max = std::numeric_limits<std::int32_t>::max();

std::vector<std::int32_t> TestInput() {
  std::vector<std::int32_t> input;
  // Deterministic mix of signs, magnitudes, and the domain edges.
  std::mt19937 rng(1234);
  std::uniform_int_distribution<std::int32_t> dist(
      std::numeric_limits<std::int32_t>::min(),
      std::numeric_limits<std::int32_t>::max());
  for (int i = 0; i < 4096; ++i) input.push_back(dist(rng));
  for (std::int32_t v : {0, 1, -1, 7, -7,
                         std::numeric_limits<std::int32_t>::min(),
                         std::numeric_limits<std::int32_t>::max()}) {
    input.push_back(v);
  }
  return input;
}

TEST(TypedPredicate, KernelsMatchScalarReference) {
  const std::vector<std::int32_t> input = TestInput();
  const std::vector<TypedPredicate> preds = {
      TypedPredicate::AlwaysTrue(),  TypedPredicate::AlwaysFalse(),
      TypedPredicate::Lt(17),        TypedPredicate::Le(-3),
      TypedPredicate::Gt(100000),    TypedPredicate::Ge(0),
      TypedPredicate::Eq(7),         TypedPredicate::Ne(0),
      TypedPredicate::InRange(-50, 50),
      TypedPredicate::InRange(10, 9),  // empty range
  };
  std::vector<std::int32_t> out(input.size());
  std::vector<std::uint32_t> ids(input.size());
  for (const TypedPredicate& pred : preds) {
    std::vector<std::int32_t> expected;
    std::vector<std::uint32_t> expected_ids;
    for (std::size_t i = 0; i < input.size(); ++i) {
      if (!pred.Matches(input[i])) continue;
      expected.push_back(input[i]);
      expected_ids.push_back(static_cast<std::uint32_t>(i));
    }
    const std::size_t n = FilterInt32(input, pred, out.data());
    ASSERT_EQ(n, expected.size()) << pred.ToString();
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(), out.begin()))
        << pred.ToString();
    const std::size_t n_ids = FilterInt32Ids(input, pred, ids.data());
    ASSERT_EQ(n_ids, expected_ids.size()) << pred.ToString();
    EXPECT_TRUE(std::equal(expected_ids.begin(), expected_ids.end(), ids.begin()))
        << pred.ToString();
  }
}

TEST(FoldConjunction, MergesBoundsIntoRange) {
  const std::vector<TypedPredicate> chain = {TypedPredicate::Gt(10),
                                             TypedPredicate::Lt(20)};
  const std::vector<TypedPredicate> folded = FoldConjunction(chain);
  ASSERT_EQ(folded.size(), 1u);
  EXPECT_EQ(folded[0].op, PredOp::kInRange);
  EXPECT_EQ(folded[0].a, 11);
  EXPECT_EQ(folded[0].b, 19);
}

TEST(FoldConjunction, ContradictionCollapsesToFalse) {
  const std::vector<TypedPredicate> chain = {TypedPredicate::Lt(0),
                                             TypedPredicate::Gt(10)};
  const std::vector<TypedPredicate> folded = FoldConjunction(chain);
  ASSERT_EQ(folded.size(), 1u);
  EXPECT_EQ(folded[0].op, PredOp::kAlwaysFalse);
}

TEST(FoldConjunction, EqInsideBoundsStaysEq) {
  const std::vector<TypedPredicate> chain = {
      TypedPredicate::Ge(0), TypedPredicate::Eq(5), TypedPredicate::Le(100)};
  const std::vector<TypedPredicate> folded = FoldConjunction(chain);
  ASSERT_EQ(folded.size(), 1u);
  EXPECT_EQ(folded[0].op, PredOp::kEq);
  EXPECT_EQ(folded[0].a, 5);
}

TEST(FoldConjunction, PreservesUnfoldableInOrder) {
  const std::vector<TypedPredicate> chain = {
      TypedPredicate::Ne(3), TypedPredicate::Gt(0), TypedPredicate::Ne(8)};
  const std::vector<TypedPredicate> folded = FoldConjunction(chain);
  ASSERT_EQ(folded.size(), 3u);
  EXPECT_EQ(folded[0].op, PredOp::kGe);  // Gt 0 -> Ge 1
  EXPECT_EQ(folded[0].a, 1);
  EXPECT_EQ(folded[1].op, PredOp::kNe);
  EXPECT_EQ(folded[1].a, 3);
  EXPECT_EQ(folded[2].op, PredOp::kNe);
  EXPECT_EQ(folded[2].a, 8);
}

TEST(FoldConjunction, TautologiesDisappear) {
  const std::vector<TypedPredicate> chain = {TypedPredicate::AlwaysTrue(),
                                             TypedPredicate::AlwaysTrue()};
  const std::vector<TypedPredicate> folded = FoldConjunction(chain);
  ASSERT_EQ(folded.size(), 1u);
  EXPECT_EQ(folded[0].op, PredOp::kAlwaysTrue);
}

TEST(CompilePredicate, SimpleComparisons) {
  // Folding normalizes strict bounds to inclusive form: v < 42  <=>  v <= 41.
  const auto lt = CompilePredicate(
      Expr::Lt(Expr::FieldRef(0), Expr::Lit(std::int64_t{42})));
  ASSERT_TRUE(lt.has_value());
  EXPECT_EQ(lt->op, PredOp::kLe);
  EXPECT_EQ(lt->a, 41);

  // Literal on the left mirrors the comparison: 42 < v  <=>  v >= 43.
  const auto gt = CompilePredicate(
      Expr::Lt(Expr::Lit(std::int64_t{42}), Expr::FieldRef(0)));
  ASSERT_TRUE(gt.has_value());
  EXPECT_EQ(gt->op, PredOp::kGe);
  EXPECT_EQ(gt->a, 43);
}

TEST(CompilePredicate, AndFoldsToRange) {
  const Expr expr = Expr::And(
      Expr::Ge(Expr::FieldRef(0), Expr::Lit(std::int64_t{10})),
      Expr::Le(Expr::FieldRef(0), Expr::Lit(std::int64_t{20})));
  const auto pred = CompilePredicate(expr);
  ASSERT_TRUE(pred.has_value());
  EXPECT_EQ(pred->op, PredOp::kInRange);
  EXPECT_EQ(pred->a, 10);
  EXPECT_EQ(pred->b, 20);
}

TEST(CompilePredicate, NotNegatesComparison) {
  const auto pred = CompilePredicate(
      Expr::Not(Expr::Lt(Expr::FieldRef(0), Expr::Lit(std::int64_t{5}))));
  ASSERT_TRUE(pred.has_value());
  EXPECT_EQ(pred->op, PredOp::kGe);
  EXPECT_EQ(pred->a, 5);
}

TEST(CompilePredicate, OutOfRangeLiteralsFoldExactly) {
  // EvalExpr compares in int64: v < 2^40 is true for every int32.
  const auto t = CompilePredicate(
      Expr::Lt(Expr::FieldRef(0), Expr::Lit(std::int64_t{1} << 40)));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->op, PredOp::kAlwaysTrue);

  const auto f = CompilePredicate(
      Expr::Eq(Expr::FieldRef(0), Expr::Lit(kI32Max + 1)));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->op, PredOp::kAlwaysFalse);

  const auto all = CompilePredicate(
      Expr::Ne(Expr::FieldRef(0), Expr::Lit(kI32Min - 1)));
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->op, PredOp::kAlwaysTrue);

  // Boundary literals stay exact comparisons.
  const auto le_max = CompilePredicate(
      Expr::Le(Expr::FieldRef(0), Expr::Lit(kI32Max)));
  ASSERT_TRUE(le_max.has_value());
  EXPECT_EQ(le_max->op, PredOp::kAlwaysTrue);  // v <= INT32_MAX always holds
  const auto lt_max = CompilePredicate(
      Expr::Lt(Expr::FieldRef(0), Expr::Lit(kI32Max)));
  ASSERT_TRUE(lt_max.has_value());
  EXPECT_EQ(lt_max->op, PredOp::kLe);  // normalized: v < MAX  <=>  v <= MAX-1
  EXPECT_EQ(lt_max->a, kI32Max - 1);
}

TEST(CompilePredicate, RejectsUncompilableShapes) {
  // Float literal: compares as double, not expressible in int32 kernels.
  EXPECT_FALSE(CompilePredicate(Expr::Lt(Expr::FieldRef(0), Expr::LitF(1.5)))
                   .has_value());
  // Wrong field.
  EXPECT_FALSE(CompilePredicate(
                   Expr::Lt(Expr::FieldRef(1), Expr::Lit(std::int64_t{3})))
                   .has_value());
  // Arithmetic inside the comparison.
  EXPECT_FALSE(CompilePredicate(
                   Expr::Lt(Expr::Add(Expr::FieldRef(0), Expr::Lit(1)),
                            Expr::Lit(std::int64_t{3})))
                   .has_value());
  // Disjunction.
  EXPECT_FALSE(CompilePredicate(
                   Expr::Or(Expr::Lt(Expr::FieldRef(0), Expr::Lit(1)),
                            Expr::Gt(Expr::FieldRef(0), Expr::Lit(5))))
                   .has_value());
}

TEST(CompilePredicate, MatchesEvalExprOnRandomComparisons) {
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<std::int64_t> lit_dist(kI32Min * 4, kI32Max * 4);
  std::uniform_int_distribution<std::int32_t> val_dist(
      std::numeric_limits<std::int32_t>::min(),
      std::numeric_limits<std::int32_t>::max());
  const std::vector<ExprOp> ops = {ExprOp::kLt, ExprOp::kLe, ExprOp::kGt,
                                   ExprOp::kGe, ExprOp::kEq, ExprOp::kNe};
  for (int trial = 0; trial < 200; ++trial) {
    const std::int64_t lit = lit_dist(rng);
    const ExprOp op = ops[static_cast<std::size_t>(trial) % ops.size()];
    const Expr expr = Expr::Binary(op, Expr::FieldRef(0), Expr::Lit(lit));
    const auto pred = CompilePredicate(expr);
    ASSERT_TRUE(pred.has_value());
    for (int probe = 0; probe < 32; ++probe) {
      const std::int32_t v = val_dist(rng);
      const Row row = {Value::Int32(v)};
      EXPECT_EQ(pred->Matches(v), EvalExpr(expr, row).as_bool())
          << expr.ToString() << " at v=" << v;
    }
  }
}

}  // namespace
}  // namespace kf::relational
