#include "relational/predicate.h"

#include <algorithm>
#include <cstring>
#include <limits>

namespace kf::relational {
namespace {

constexpr std::int64_t kI32Min = std::numeric_limits<std::int32_t>::min();
constexpr std::int64_t kI32Max = std::numeric_limits<std::int32_t>::max();

// The branch-free compaction loop every typed kernel instantiates. The store
// is unconditional and the count advance is data-dependent, so there is no
// per-element branch to mispredict and the loop auto-vectorizes.
template <typename P>
std::size_t FilterDense(std::span<const std::int32_t> input, std::int32_t* out,
                        P p) {
  std::size_t count = 0;
  for (const std::int32_t v : input) {
    out[count] = v;
    count += static_cast<std::size_t>(p(v));
  }
  return count;
}

// FilterDense with the element's position stored in place of its value.
template <typename P>
std::size_t FilterIdsDense(std::span<const std::int32_t> input, std::uint32_t* out,
                           P p) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < input.size(); ++i) {
    out[count] = static_cast<std::uint32_t>(i);
    count += static_cast<std::size_t>(p(input[i]));
  }
  return count;
}

// Dispatches ONCE on the predicate op and runs `kernel` with the matching
// branch-free element test inlined into its loop.
template <typename Kernel>
std::size_t WithKernel(const TypedPredicate& pred, Kernel kernel) {
  const std::int32_t a = pred.a;
  const std::int32_t b = pred.b;
  switch (pred.op) {
    case PredOp::kAlwaysTrue: return kernel([](std::int32_t) { return true; });
    case PredOp::kAlwaysFalse: return kernel([](std::int32_t) { return false; });
    case PredOp::kLt: return kernel([a](std::int32_t v) { return v < a; });
    case PredOp::kLe: return kernel([a](std::int32_t v) { return v <= a; });
    case PredOp::kGt: return kernel([a](std::int32_t v) { return v > a; });
    case PredOp::kGe: return kernel([a](std::int32_t v) { return v >= a; });
    case PredOp::kEq: return kernel([a](std::int32_t v) { return v == a; });
    case PredOp::kNe: return kernel([a](std::int32_t v) { return v != a; });
    case PredOp::kInRange:
      return kernel([a, b](std::int32_t v) { return v >= a && v <= b; });
  }
  return 0;
}

// Mirrors `lit OP field` into `field OP' lit`.
ExprOp MirrorCompare(ExprOp op) {
  switch (op) {
    case ExprOp::kLt: return ExprOp::kGt;
    case ExprOp::kLe: return ExprOp::kGe;
    case ExprOp::kGt: return ExprOp::kLt;
    case ExprOp::kGe: return ExprOp::kLe;
    default: return op;  // kEq / kNe are symmetric
  }
}

// Compiles `field OP literal` exactly, folding literals outside the int32
// domain: EvalExpr compares in int64, so e.g. `v < 2^40` is true for every
// int32 v and must become kAlwaysTrue, not a truncated compare.
TypedPredicate ClampedCompare(ExprOp cmp, std::int64_t lit) {
  switch (cmp) {
    case ExprOp::kLt:
      if (lit > kI32Max) return TypedPredicate::AlwaysTrue();
      if (lit <= kI32Min) return TypedPredicate::AlwaysFalse();
      return TypedPredicate::Lt(static_cast<std::int32_t>(lit));
    case ExprOp::kLe:
      if (lit >= kI32Max) return TypedPredicate::AlwaysTrue();
      if (lit < kI32Min) return TypedPredicate::AlwaysFalse();
      return TypedPredicate::Le(static_cast<std::int32_t>(lit));
    case ExprOp::kGt:
      if (lit >= kI32Max) return TypedPredicate::AlwaysFalse();
      if (lit < kI32Min) return TypedPredicate::AlwaysTrue();
      return TypedPredicate::Gt(static_cast<std::int32_t>(lit));
    case ExprOp::kGe:
      if (lit > kI32Max) return TypedPredicate::AlwaysFalse();
      if (lit <= kI32Min) return TypedPredicate::AlwaysTrue();
      return TypedPredicate::Ge(static_cast<std::int32_t>(lit));
    case ExprOp::kEq:
      if (lit < kI32Min || lit > kI32Max) return TypedPredicate::AlwaysFalse();
      return TypedPredicate::Eq(static_cast<std::int32_t>(lit));
    case ExprOp::kNe:
      if (lit < kI32Min || lit > kI32Max) return TypedPredicate::AlwaysTrue();
      return TypedPredicate::Ne(static_cast<std::int32_t>(lit));
    default: return TypedPredicate::AlwaysFalse();  // unreachable
  }
}

std::optional<TypedPredicate> Negate(const TypedPredicate& p) {
  switch (p.op) {
    case PredOp::kAlwaysTrue: return TypedPredicate::AlwaysFalse();
    case PredOp::kAlwaysFalse: return TypedPredicate::AlwaysTrue();
    case PredOp::kLt: return TypedPredicate::Ge(p.a);
    case PredOp::kLe: return TypedPredicate::Gt(p.a);
    case PredOp::kGt: return TypedPredicate::Le(p.a);
    case PredOp::kGe: return TypedPredicate::Lt(p.a);
    case PredOp::kEq: return TypedPredicate::Ne(p.a);
    case PredOp::kNe: return TypedPredicate::Eq(p.a);
    // ¬InRange is a disjunction.
    default: return std::nullopt;
  }
}

// Appends one predicate per conjunct of `expr` to `out`; false when a
// conjunct has no exact typed form.
bool CompileConjunction(const Expr& expr, int field_index,
                        std::vector<TypedPredicate>& out) {
  switch (expr.op) {
    case ExprOp::kConst:
      // Truthiness is exact for any literal type.
      out.push_back(expr.constant.as_bool() ? TypedPredicate::AlwaysTrue()
                                            : TypedPredicate::AlwaysFalse());
      return true;
    case ExprOp::kAnd:
      return CompileConjunction(expr.children[0], field_index, out) &&
             CompileConjunction(expr.children[1], field_index, out);
    case ExprOp::kNot: {
      std::vector<TypedPredicate> child;
      if (!CompileConjunction(expr.children[0], field_index, child) ||
          child.size() != 1) {
        return false;
      }
      const std::optional<TypedPredicate> neg = Negate(child[0]);
      if (!neg.has_value()) return false;
      out.push_back(*neg);
      return true;
    }
    case ExprOp::kLt:
    case ExprOp::kLe:
    case ExprOp::kGt:
    case ExprOp::kGe:
    case ExprOp::kEq:
    case ExprOp::kNe: {
      const Expr& l = expr.children[0];
      const Expr& r = expr.children[1];
      const Expr* field = nullptr;
      const Expr* lit = nullptr;
      ExprOp cmp = expr.op;
      if (l.op == ExprOp::kField && r.op == ExprOp::kConst) {
        field = &l;
        lit = &r;
      } else if (l.op == ExprOp::kConst && r.op == ExprOp::kField) {
        field = &r;
        lit = &l;
        cmp = MirrorCompare(cmp);
      } else {
        return false;
      }
      if (field->field != field_index) return false;
      // Float literals compare as double (Value semantics); only integer
      // literals fold exactly into the int32 kernels.
      if (lit->constant.is_float()) return false;
      out.push_back(ClampedCompare(cmp, lit->constant.i));
      return true;
    }
    default:
      return false;  // arithmetic, OR, bare field refs: fallback territory
  }
}

}  // namespace

const char* ToString(PredOp op) {
  switch (op) {
    case PredOp::kAlwaysTrue: return "true";
    case PredOp::kAlwaysFalse: return "false";
    case PredOp::kLt: return "lt";
    case PredOp::kLe: return "le";
    case PredOp::kGt: return "gt";
    case PredOp::kGe: return "ge";
    case PredOp::kEq: return "eq";
    case PredOp::kNe: return "ne";
    case PredOp::kInRange: return "in_range";
  }
  return "?";
}

bool TypedPredicate::Matches(std::int32_t v) const {
  switch (op) {
    case PredOp::kAlwaysTrue: return true;
    case PredOp::kAlwaysFalse: return false;
    case PredOp::kLt: return v < a;
    case PredOp::kLe: return v <= a;
    case PredOp::kGt: return v > a;
    case PredOp::kGe: return v >= a;
    case PredOp::kEq: return v == a;
    case PredOp::kNe: return v != a;
    case PredOp::kInRange: return v >= a && v <= b;
  }
  return false;
}

std::string TypedPredicate::ToString() const {
  std::string s = relational::ToString(op);
  switch (op) {
    case PredOp::kInRange:
      return s + "(" + std::to_string(a) + "," + std::to_string(b) + ")";
    case PredOp::kAlwaysTrue:
    case PredOp::kAlwaysFalse:
      return s;
    default:
      return s + "(" + std::to_string(a) + ")";
  }
}

std::size_t FilterInt32(std::span<const std::int32_t> input,
                        const TypedPredicate& pred, std::int32_t* out) {
  switch (pred.op) {
    case PredOp::kAlwaysTrue:
      if (!input.empty()) {
        std::memcpy(out, input.data(), input.size() * sizeof(std::int32_t));
      }
      return input.size();
    case PredOp::kAlwaysFalse: return 0;
    default:
      return WithKernel(pred, [&](auto p) { return FilterDense(input, out, p); });
  }
}

std::size_t FilterInt32Ids(std::span<const std::int32_t> input,
                           const TypedPredicate& pred, std::uint32_t* out) {
  return WithKernel(pred, [&](auto p) { return FilterIdsDense(input, out, p); });
}

std::vector<TypedPredicate> FoldConjunction(
    std::span<const TypedPredicate> preds) {
  std::int64_t lo = kI32Min;
  std::int64_t hi = kI32Max;
  bool always_false = false;
  std::vector<TypedPredicate> rest;
  for (const TypedPredicate& p : preds) {
    switch (p.op) {
      case PredOp::kAlwaysTrue: break;
      case PredOp::kAlwaysFalse: always_false = true; break;
      case PredOp::kLt: hi = std::min(hi, static_cast<std::int64_t>(p.a) - 1); break;
      case PredOp::kLe: hi = std::min(hi, static_cast<std::int64_t>(p.a)); break;
      case PredOp::kGt: lo = std::max(lo, static_cast<std::int64_t>(p.a) + 1); break;
      case PredOp::kGe: lo = std::max(lo, static_cast<std::int64_t>(p.a)); break;
      case PredOp::kEq:
        lo = std::max(lo, static_cast<std::int64_t>(p.a));
        hi = std::min(hi, static_cast<std::int64_t>(p.a));
        break;
      case PredOp::kInRange:
        lo = std::max(lo, static_cast<std::int64_t>(p.a));
        hi = std::min(hi, static_cast<std::int64_t>(p.b));
        break;
      default:  // kNe: kept as-is, in order
        rest.push_back(p);
        break;
    }
  }
  if (always_false || lo > hi) return {TypedPredicate::AlwaysFalse()};

  std::vector<TypedPredicate> out;
  const bool lo_open = lo == kI32Min;
  const bool hi_open = hi == kI32Max;
  if (!lo_open || !hi_open) {
    const auto l = static_cast<std::int32_t>(lo);
    const auto h = static_cast<std::int32_t>(hi);
    if (lo == hi) {
      out.push_back(TypedPredicate::Eq(l));
    } else if (lo_open) {
      out.push_back(TypedPredicate::Le(h));
    } else if (hi_open) {
      out.push_back(TypedPredicate::Ge(l));
    } else {
      out.push_back(TypedPredicate::InRange(l, h));
    }
  }
  out.insert(out.end(), rest.begin(), rest.end());
  if (out.empty()) out.push_back(TypedPredicate::AlwaysTrue());
  return out;
}

std::optional<TypedPredicate> CompilePredicate(const Expr& expr,
                                               int field_index) {
  std::vector<TypedPredicate> preds;
  if (!CompileConjunction(expr, field_index, preds)) return std::nullopt;
  std::vector<TypedPredicate> folded = FoldConjunction(preds);
  if (folded.size() != 1) return std::nullopt;
  return folded[0];
}

}  // namespace kf::relational
