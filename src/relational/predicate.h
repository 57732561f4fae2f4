// Typed predicate kernels for the SELECT hot loop.
//
// TypedPredicate is a small closed representation (compare / inclusive
// range, plus explicit always-true/false) that FilterInt32 dispatches ONCE
// per chunk to a branch-free template instantiation:
//
//   out[count] = v; count += pred(v);          // no per-element branch
//
// The inner loop then has no calls, no branches, and no stores that depend on
// control flow — exactly the shape the vectorizer wants, and the host-side
// analogue of the paper's "element stays in registers" fused filter.
//
// CompilePredicate turns the Expr trees used by SELECT operators into typed
// predicates where it can prove them exact; the executor runs every other
// predicate as a typed column program (core/fused_pipeline.cc), which
// matches EvalExpr. FoldConjunction collapses a predicate chain (e.g. Gt 10
// ∧ Lt 20) into fewer, tighter kernels.
#ifndef KF_RELATIONAL_PREDICATE_H_
#define KF_RELATIONAL_PREDICATE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "relational/expr.h"

namespace kf::relational {

enum class PredOp : std::uint8_t {
  kAlwaysTrue,
  kAlwaysFalse,
  kLt,       // v <  a
  kLe,       // v <= a
  kGt,       // v >  a
  kGe,       // v >= a
  kEq,       // v == a
  kNe,       // v != a
  kInRange,  // a <= v <= b (inclusive)
};

const char* ToString(PredOp op);

struct TypedPredicate {
  PredOp op = PredOp::kAlwaysTrue;
  std::int32_t a = 0;  // compare literal / range lo
  std::int32_t b = 0;  // range hi

  static TypedPredicate AlwaysTrue() { return {PredOp::kAlwaysTrue, 0, 0}; }
  static TypedPredicate AlwaysFalse() { return {PredOp::kAlwaysFalse, 0, 0}; }
  static TypedPredicate Lt(std::int32_t x) { return {PredOp::kLt, x, 0}; }
  static TypedPredicate Le(std::int32_t x) { return {PredOp::kLe, x, 0}; }
  static TypedPredicate Gt(std::int32_t x) { return {PredOp::kGt, x, 0}; }
  static TypedPredicate Ge(std::int32_t x) { return {PredOp::kGe, x, 0}; }
  static TypedPredicate Eq(std::int32_t x) { return {PredOp::kEq, x, 0}; }
  static TypedPredicate Ne(std::int32_t x) { return {PredOp::kNe, x, 0}; }
  // Inclusive on both ends; lo > hi matches nothing.
  static TypedPredicate InRange(std::int32_t lo, std::int32_t hi) {
    return {PredOp::kInRange, lo, hi};
  }

  // Scalar evaluation — the reference the vector kernels are tested against.
  bool Matches(std::int32_t v) const;

  std::string ToString() const;
};

// Dense branch-free compaction of the elements of `input` matching `pred`
// into `out` (which must have room for input.size() elements). Returns the
// match count. Allocation-free.
std::size_t FilterInt32(std::span<const std::int32_t> input,
                        const TypedPredicate& pred, std::int32_t* out);

// Row ids (positions in `input`) of the elements matching `pred`, densely
// packed into `out` (room for input.size() ids). Returns the match count.
// The same branch-free kernel as FilterInt32: a multi-column relation
// filters on one int32 column and gathers its other columns through the ids.
std::size_t FilterInt32Ids(std::span<const std::int32_t> input,
                           const TypedPredicate& pred, std::uint32_t* out);

// Collapses a conjunction into the fewest predicates that accept exactly the
// same set: compare bounds merge into one range (Gt 10 ∧ Lt 20 → InRange),
// contradictions collapse to kAlwaysFalse, tautologies disappear. Ne
// predicates are preserved in order after the folded range.
std::vector<TypedPredicate> FoldConjunction(
    std::span<const TypedPredicate> preds);

// Compiles an Expr SELECT predicate over the single int32 column that a
// staged kernel scans (the column is field `field_index` of the row) into
// one typed predicate: every conjunct compiles, then the conjunction folds.
// Returns nullopt for shapes the closed representation cannot express
// exactly (float literals, arithmetic, OR, references to other fields, a
// conjunction that does not fold to one predicate). Comparisons against
// out-of-int32-range integer literals fold exactly (the row evaluator
// compares in the int64 domain): e.g. `v < 2^40` is kAlwaysTrue.
std::optional<TypedPredicate> CompilePredicate(const Expr& expr,
                                               int field_index = 0);

}  // namespace kf::relational

#endif  // KF_RELATIONAL_PREDICATE_H_
