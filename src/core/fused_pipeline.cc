#include "core/fused_pipeline.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <type_traits>
#include <unordered_map>

#include "common/error.h"
#include "core/integrity.h"
#include "relational/operators.h"
#include "relational/predicate.h"
#include "relational/staged_kernel.h"
#include "relational/staged_sort.h"

namespace kf::core {

using relational::AggregateSpec;
using relational::ChunkRange;
using relational::Column;
using relational::DataType;
using relational::Expr;
using relational::OpKind;
using relational::Table;
using relational::TypedPredicate;
using relational::Value;

namespace {

// --- Typed columns -----------------------------------------------------------

// A read-only typed column inside one chunk: the primary input or a build
// table read in place, or chunk-local scratch.
struct ColRef {
  DataType type = DataType::kInt64;
  const std::byte* data = nullptr;
};

template <typename T>
const T* Typed(const ColRef& col) {
  return reinterpret_cast<const T*>(col.data);
}

// Calls f(T{}) with the element type stored for `type`.
template <typename F>
decltype(auto) VisitType(DataType type, F&& f) {
  switch (type) {
    case DataType::kInt32: return f(std::int32_t{});
    case DataType::kInt64: return f(std::int64_t{});
    case DataType::kFloat64: break;
  }
  return f(double{});
}

template <typename T, typename C>
auto& Storage(C& column) {
  if constexpr (std::is_same_v<T, std::int32_t>) {
    return column.AsInt32();
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    return column.AsInt64();
  } else {
    return column.AsFloat64();
  }
}

ColRef RefOf(const Column& column) {
  return VisitType(column.type(), [&](auto tag) {
    return ColRef{column.type(), reinterpret_cast<const std::byte*>(
                                     Storage<decltype(tag)>(column).data())};
  });
}

// The Value the row-at-a-time operator semantics see for element `i`,
// type tag included.
Value ValueAt(const ColRef& col, std::size_t i) {
  switch (col.type) {
    case DataType::kInt32: return Value::Int32(Typed<std::int32_t>(col)[i]);
    case DataType::kInt64: return Value::Int64(Typed<std::int64_t>(col)[i]);
    case DataType::kFloat64: break;
  }
  return Value::Float64(Typed<double>(col)[i]);
}

// Heap bytes a vector holds, with those its elements hold: what a pooled
// object hands back out of the arena (hostperf.arena_reused_bytes).
template <typename T>
std::size_t HeapBytes(const std::vector<T>& v) {
  std::size_t bytes = v.capacity() * sizeof(T);
  if constexpr (requires(const T& item) { item.CapacityBytes(); }) {
    for (const T& item : v) bytes += item.CapacityBytes();
  }
  return bytes;
}

// Uninitialized typed storage that keeps its capacity across chunks and,
// pooled through the arena, across clusters.
class Vec {
 public:
  std::size_t CapacityBytes() const { return capacity_; }
  std::byte* Reserve(DataType type, std::size_t n) {
    type_ = type;
    return Grow(n * relational::SizeOf(type));
  }
  // Untyped scratch for `n` values of T: column program registers and row ids.
  template <typename T>
  T* ReserveAs(std::size_t n) {
    return reinterpret_cast<T*>(Grow(n * sizeof(T)));
  }
  ColRef Ref() const { return {type_, data_.get()}; }

 private:
  std::byte* Grow(std::size_t bytes) {
    if (bytes > capacity_) {
      capacity_ = std::max(bytes, 2 * capacity_);
      data_.reset(new std::byte[capacity_]);
    }
    return data_.get();
  }

  DataType type_ = DataType::kInt64;
  std::unique_ptr<std::byte[]> data_;
  std::size_t capacity_ = 0;
};

// dst[k] = src[ids[k]]: compacts (SELECT) or expands (JOIN) a column.
ColRef Gather(const ColRef& src, const std::uint32_t* ids, std::size_t n, Vec& dst) {
  std::byte* out = dst.Reserve(src.type, n);
  VisitType(src.type, [&](auto tag) {
    using T = decltype(tag);
    const T* in = Typed<T>(src);
    T* typed_out = reinterpret_cast<T*>(out);
    for (std::size_t k = 0; k < n; ++k) typed_out[k] = in[ids[k]];
  });
  return dst.Ref();
}

// Appends `n` values to a table column, converting like Column::Append when
// the bound table's type differs from the schema's.
void AppendTo(Column& column, const ColRef& src, std::size_t n) {
  if (column.type() != src.type) {
    for (std::size_t i = 0; i < n; ++i) column.Append(ValueAt(src, i));
    return;
  }
  VisitType(src.type, [&](auto tag) {
    using T = decltype(tag);
    auto& values = Storage<T>(column);
    values.insert(values.end(), Typed<T>(src), Typed<T>(src) + n);
  });
}

// --- Typed column programs ---------------------------------------------------

// The rows an instruction runs on: [0, n) when `ids` is null, else the n
// ascending row ids at `ids`. Values stay at their row's position.
struct Rows {
  const std::uint32_t* ids = nullptr;
  std::size_t n = 0;
};

// Calls f(i) for every row i of `rows`, in ascending order.
template <typename F>
void ForRows(const Rows& rows, const F& f) {
  if (rows.ids == nullptr) {
    for (std::size_t i = 0; i < rows.n; ++i) f(i);
  } else {
    for (std::size_t k = 0; k < rows.n; ++k) f(rows.ids[k]);
  }
}

// Per-worker state of a program run: a value register and a row-id list per
// instruction, each grown once and reused for every chunk.
struct ProgramScratch {
  std::vector<Vec> regs;
  std::vector<Vec> open;                 // AND/OR: rows their right side sees
  std::vector<const std::byte*> vals;    // each instruction's values, by row
  std::size_t fail_row = 0;              // first failure: row, then instruction
  std::uint32_t fail_at = 0;

  std::size_t CapacityBytes() const {
    return HeapBytes(regs) + HeapBytes(open) + HeapBytes(vals);
  }
};

// A SELECT predicate or ARITH expression compiled once per cluster against
// its input's column types: one instruction per Expr node, numbered in the
// order EvalExpr visits them, each computing in the domain EvalExpr computes
// that node in. Integers of either width compute in int64 (two's complement
// wrap), anything touching a float or a Div in double, and comparisons and
// AND/OR/NOT yield int64 0/1 with Value's rules (`NaN <= x` is `!(x < NaN)`,
// so true). Run evaluates it column-at-a-time over a chunk. AND/OR run
// their right side only on the rows their left side leaves undecided, as
// EvalExpr's short circuit does, so a guarded division never divides by
// zero; a failure (division by zero, a field beyond the row) throws for the
// first row, and within it the first node, at which EvalExpr would throw.
class ColumnProgram {
 public:
  ColumnProgram() = default;
  ColumnProgram(const Expr& expr, const std::vector<DataType>& types)
      : width_(types.size()) {
    root_ = Emit(expr, types);
  }

  // Evaluates rows [0, rows) of the relation `in`. The result (int64 or
  // float64) is valid until the scratch's next run.
  ColRef Run(const ColRef* in, std::size_t rows, ProgramScratch& s) const {
    if (s.regs.size() < code_.size()) {
      s.regs.resize(code_.size());
      s.open.resize(code_.size());
    }
    s.vals.resize(code_.size());
    s.fail_row = kNoFailure;
    Eval(root_, {nullptr, rows}, rows, in, s);
    if (s.fail_row != kNoFailure) Throw(code_[s.fail_at]);
    return {IsFloat(root_) ? DataType::kFloat64 : DataType::kInt64, s.vals[root_]};
  }

  // SELECT: the ids of the rows whose value is true (nonzero; NaN is true)
  // into `ids`, which has room for `rows`. Returns their count.
  std::size_t Select(const ColRef* in, std::size_t rows, std::uint32_t* ids,
                     ProgramScratch& s) const {
    const ColRef value = Run(in, rows, s);
    return VisitType(value.type, [&](auto tag) {
      using T = decltype(tag);
      const T* v = Typed<T>(value);
      std::size_t n = 0;
      for (std::size_t i = 0; i < rows; ++i) {
        ids[n] = static_cast<std::uint32_t>(i);
        n += v[i] != T{0} ? 1 : 0;
      }
      return n;
    });
  }

 private:
  static constexpr std::size_t kNoFailure = ~std::size_t{0};

  enum class Code : std::uint8_t {
    kLoadInt32,  // widen an int32 column
    kLoadInt64,  // read an int64 column in place
    kLoadFloat,  // read a float64 column in place
    kBadField,   // a field beyond the row: fails where it runs
    kConstInt,
    kConstFloat,
    kToFloat,    // int64 -> double, for a float operation's operand
    kTruth,      // double -> 0/1, for a logic operation's operand
    kArithInt,   // op: Add, Sub, Mul
    kArithFloat, // op: Add, Sub, Mul, Div
    kCompareInt,
    kCompareFloat,
    kNot,        // logic over int64 operands
    kAnd,
    kOr,
  };

  struct Instr {
    Code code = Code::kConstInt;
    relational::ExprOp op = relational::ExprOp::kConst;
    std::uint32_t a = 0, b = 0;  // operand instructions
    std::int64_t i = 0;          // kConstInt value; loads and kBadField: field
    double f = 0.0;              // kConstFloat value
  };

  bool IsFloat(std::uint32_t k) const {
    switch (code_[k].code) {
      case Code::kLoadFloat:
      case Code::kConstFloat:
      case Code::kToFloat:
      case Code::kArithFloat: return true;
      default: return false;
    }
  }

  std::uint32_t Push(Instr ins) {
    code_.push_back(ins);
    return static_cast<std::uint32_t>(code_.size() - 1);
  }

  std::uint32_t Cast(std::uint32_t k, bool to_float) {
    if (IsFloat(k) == to_float) return k;
    return Push({to_float ? Code::kToFloat : Code::kTruth, {}, k});
  }

  // Emits `e` after its operands (their own instructions first, left
  // before right) and returns its instruction.
  std::uint32_t Emit(const Expr& e, const std::vector<DataType>& types) {
    using relational::ExprOp;
    Instr ins;
    ins.op = e.op;
    switch (e.op) {
      case ExprOp::kConst:
        ins.code = e.constant.is_float() ? Code::kConstFloat : Code::kConstInt;
        ins.i = e.constant.i;
        ins.f = e.constant.f;
        break;
      case ExprOp::kField:
        ins.i = e.field;
        ins.code = Code::kBadField;
        if (e.field >= 0 && static_cast<std::size_t>(e.field) < types.size()) {
          switch (types[static_cast<std::size_t>(e.field)]) {
            case DataType::kInt32: ins.code = Code::kLoadInt32; break;
            case DataType::kInt64: ins.code = Code::kLoadInt64; break;
            case DataType::kFloat64: ins.code = Code::kLoadFloat; break;
          }
        }
        break;
      case ExprOp::kNot:
        ins.code = Code::kNot;
        ins.a = Cast(Emit(e.children[0], types), false);
        break;
      case ExprOp::kAnd:
      case ExprOp::kOr:
        ins.code = e.op == ExprOp::kAnd ? Code::kAnd : Code::kOr;
        ins.a = Cast(Emit(e.children[0], types), false);
        ins.b = Cast(Emit(e.children[1], types), false);
        break;
      default: {  // arithmetic and comparisons
        ins.a = Emit(e.children[0], types);
        ins.b = Emit(e.children[1], types);
        const bool fp = e.op == ExprOp::kDiv || IsFloat(ins.a) || IsFloat(ins.b);
        ins.a = Cast(ins.a, fp);
        ins.b = Cast(ins.b, fp);
        const bool arith = e.op == ExprOp::kAdd || e.op == ExprOp::kSub ||
                           e.op == ExprOp::kMul || e.op == ExprOp::kDiv;
        ins.code = arith ? (fp ? Code::kArithFloat : Code::kArithInt)
                         : (fp ? Code::kCompareFloat : Code::kCompareInt);
        break;
      }
    }
    return Push(ins);
  }

  // Throws the failure of `ins`, with EvalExpr's message.
  void Throw(const Instr& ins) const {
    KF_REQUIRE(ins.code != Code::kBadField)
        << "field $" << ins.i << " out of range for row of " << width_;
    KF_FAIL_AS(::kf::Error) << "division by zero in expression";
  }

  static void Fail(std::size_t row, std::uint32_t k, ProgramScratch& s) {
    if (row < s.fail_row || (row == s.fail_row && k < s.fail_at)) {
      s.fail_row = row;
      s.fail_at = k;
    }
  }

  // out[i] = f(x[i]) over `rows`.
  template <typename T, typename R, typename F>
  static void Map(const Rows& rows, const std::byte* x, R* out, const F& f) {
    const T* a = reinterpret_cast<const T*>(x);
    ForRows(rows, [&](std::size_t i) { out[i] = f(a[i]); });
  }

  // out[i] = f(x[i], y[i]) over `rows`.
  template <typename T, typename R, typename F>
  static void Map(const Rows& rows, const std::byte* x, const std::byte* y, R* out,
                  const F& f) {
    const T* a = reinterpret_cast<const T*>(x);
    const T* b = reinterpret_cast<const T*>(y);
    ForRows(rows, [&](std::size_t i) { out[i] = f(a[i], b[i]); });
  }

  // Add, Sub or Mul. Integers run as uint64: the int64 registers' bits,
  // wrapping as two's complement does.
  template <typename T>
  static void Arith(relational::ExprOp op, const Rows& rows, const std::byte* x,
                    const std::byte* y, T* out) {
    using relational::ExprOp;
    switch (op) {
      case ExprOp::kAdd: Map<T>(rows, x, y, out, std::plus{}); break;
      case ExprOp::kSub: Map<T>(rows, x, y, out, std::minus{}); break;
      default: Map<T>(rows, x, y, out, std::multiplies{}); break;
    }
  }

  // Division; a zero divisor's quotient is never read: the run fails there.
  static void Divide(std::uint32_t k, const Rows& rows, const std::byte* x,
                     const std::byte* y, double* out, ProgramScratch& s) {
    bool zero = false;
    Map<double>(rows, x, y, out, [&](double a, double b) {
      zero |= b == 0.0;
      return a / b;
    });
    if (!zero) return;
    const auto* b = reinterpret_cast<const double*>(y);
    std::size_t first = kNoFailure;
    ForRows(rows, [&](std::size_t i) {
      if (b[i] == 0.0) first = std::min(first, i);
    });
    Fail(first, k, s);
  }

  template <typename T>
  static void Compare(relational::ExprOp op, const Rows& rows, const std::byte* x,
                      const std::byte* y, std::int64_t* out) {
    using relational::ExprOp;
    const auto map = [&](const auto& f) { Map<T>(rows, x, y, out, f); };
    switch (op) {
      case ExprOp::kLt: map([](T a, T b) { return a < b; }); break;
      case ExprOp::kLe: map([](T a, T b) { return !(b < a); }); break;
      case ExprOp::kGt: map([](T a, T b) { return b < a; }); break;
      case ExprOp::kGe: map([](T a, T b) { return !(a < b); }); break;
      case ExprOp::kEq: map([](T a, T b) { return a == b; }); break;
      default: map([](T a, T b) { return !(a == b); }); break;
    }
  }

  // AND/OR: the left side on `rows`, the right side only on the rows the
  // left leaves undecided (true for AND, false for OR), as EvalExpr's short
  // circuit does.
  void Logic(std::uint32_t k, const Rows& rows, std::size_t extent, const ColRef* in,
             std::int64_t* out, ProgramScratch& s) const {
    const Instr& ins = code_[k];
    Eval(ins.a, rows, extent, in, s);
    const auto* left = reinterpret_cast<const std::int64_t*>(s.vals[ins.a]);
    std::uint32_t* open = s.open[k].ReserveAs<std::uint32_t>(rows.n);
    const bool undecided = ins.code == Code::kAnd;
    std::size_t m = 0;
    ForRows(rows, [&](std::size_t i) {
      open[m] = static_cast<std::uint32_t>(i);
      m += (left[i] != 0) == undecided ? 1 : 0;
    });
    Eval(ins.b, {open, m}, extent, in, s);
    const auto* right = reinterpret_cast<const std::int64_t*>(s.vals[ins.b]);
    ForRows(rows, [&](std::size_t i) { out[i] = left[i] != 0; });
    for (std::size_t j = 0; j < m; ++j) out[open[j]] = right[open[j]] != 0;
  }

  // Evaluates instruction k over `rows` of a chunk of `extent` rows into
  // its register (int64 and float64 columns are read in place).
  void Eval(std::uint32_t k, const Rows& rows, std::size_t extent, const ColRef* in,
            ProgramScratch& s) const {
    const Instr& ins = code_[k];
    if (ins.code == Code::kLoadInt64 || ins.code == Code::kLoadFloat) {
      s.vals[k] = in[ins.i].data;
      return;
    }
    // Every register value is 8 bytes: an int64, its uint64 bits or a double.
    std::byte* reg = s.regs[k].ReserveAs<std::byte>(extent * sizeof(std::int64_t));
    s.vals[k] = reg;
    auto* ints = reinterpret_cast<std::int64_t*>(reg);
    auto* reals = reinterpret_cast<double*>(reg);
    const auto fill = [&](auto* out, auto value) {
      ForRows(rows, [&](std::size_t i) { out[i] = value; });
    };
    switch (ins.code) {
      case Code::kLoadInt32:
        Map<std::int32_t>(rows, in[ins.i].data, ints,
                          [](std::int32_t v) { return std::int64_t{v}; });
        return;
      case Code::kBadField:
        // Placeholder values: the run fails at the first row.
        if (rows.n > 0) Fail(rows.ids == nullptr ? 0 : rows.ids[0], k, s);
        fill(ints, std::int64_t{0});
        return;
      case Code::kConstInt: fill(ints, ins.i); return;
      case Code::kConstFloat: fill(reals, ins.f); return;
      case Code::kAnd:
      case Code::kOr: Logic(k, rows, extent, in, ints, s); return;
      default: break;
    }

    // Operands first, on the same rows.
    Eval(ins.a, rows, extent, in, s);
    const std::byte* x = s.vals[ins.a];
    switch (ins.code) {
      case Code::kToFloat:
        Map<std::int64_t>(rows, x, reals,
                          [](std::int64_t a) { return static_cast<double>(a); });
        return;
      case Code::kTruth:
        Map<double>(rows, x, ints, [](double a) { return a != 0.0; });
        return;
      case Code::kNot:
        Map<std::int64_t>(rows, x, ints, [](std::int64_t a) { return a == 0; });
        return;
      default: break;
    }
    Eval(ins.b, rows, extent, in, s);
    const std::byte* y = s.vals[ins.b];
    switch (ins.code) {
      case Code::kArithInt:
        Arith(ins.op, rows, x, y, reinterpret_cast<std::uint64_t*>(reg));
        return;
      case Code::kArithFloat:
        if (ins.op == relational::ExprOp::kDiv) {
          Divide(k, rows, x, y, reals, s);
        } else {
          Arith(ins.op, rows, x, y, reals);
        }
        return;
      case Code::kCompareFloat: Compare<double>(ins.op, rows, x, y, ints); return;
      default: Compare<std::int64_t>(ins.op, rows, x, y, ints); return;
    }
  }

  std::vector<Instr> code_;
  std::uint32_t root_ = 0;
  std::size_t width_ = 0;
};

// ARITH's output value from a program value, converted as ApplyOperator
// converts EvalExpr's Value into the column's type.
template <typename T, typename S>
T ConvertArith(S v) {
  if constexpr (std::is_same_v<T, double>) {
    return static_cast<double>(v);
  } else {
    return static_cast<T>(static_cast<std::int64_t>(v));
  }
}

// --- Dense integer keys ------------------------------------------------------

// The bounds of an integer key.
struct KeyRange {
  std::int64_t lo = std::numeric_limits<std::int64_t>::max();
  std::int64_t hi = std::numeric_limits<std::int64_t>::min();
};

// The range of integer column `col` over rows [0, n).
KeyRange RangeOf(const ColRef& col, std::size_t n) {
  std::int64_t lo = KeyRange{}.lo, hi = KeyRange{}.hi;
  VisitType(col.type, [&](auto tag) {
    using T = decltype(tag);
    if constexpr (std::is_integral_v<T>) {
      for (const T* v = Typed<T>(col); v != Typed<T>(col) + n; ++v) {
        lo = std::min<std::int64_t>(lo, *v);
        hi = std::max<std::int64_t>(hi, *v);
      }
    }
  });
  return {lo, hi};
}

// Whether row r of integer column `col` holds row 0's key plus r (in two's
// complement), for every r < n. Branch-free, so the pass vectorizes: a JOIN
// build side that is positional reads its keys once.
bool Positional(const ColRef& col, std::size_t n) {
  return VisitType(col.type, [&](auto tag) {
    using T = decltype(tag);
    std::uint64_t differ = 0;
    if constexpr (std::is_integral_v<T>) {
      const T* v = Typed<T>(col);
      const auto k0 = static_cast<std::uint64_t>(v[0]);
      for (std::size_t r = 0; r < n; ++r) {
        differ |= static_cast<std::uint64_t>(v[r]) - k0 - r;
      }
    }
    return differ == 0;
  });
}

// The one density rule, for JOIN builds, AGGREGATE partials and their merge:
// integer keys are dense over `rows` when the product of their spans
// hi - lo + 1, computed in uint64, is at most 2 * rows. Returns that product,
// the size of a direct index over the keys' mixed-radix offset, or 0 when the
// keys are sparse, a full int64 span (wrapping to 0) and an overflowing
// product included. For one key this is hi - lo < 2 * rows.
std::uint64_t DenseSpan(std::span<const KeyRange> keys, std::size_t rows) {
  const std::uint64_t limit = 2 * static_cast<std::uint64_t>(rows);
  std::uint64_t product = 1;
  for (const KeyRange& key : keys) {
    const std::uint64_t span =
        static_cast<std::uint64_t>(key.hi) - static_cast<std::uint64_t>(key.lo) + 1;
    if (span == 0 || span > limit / product) return 0;
    product *= span;
  }
  return product <= limit ? product : 0;
}

// --- Grouped aggregation -----------------------------------------------------

// Group keys compare as the operator-at-a-time text key does ("i<int>|" /
// "f<%.17g>|"): integers by value, doubles by bit pattern except that every
// NaN of one sign prints, and so groups, the same.
std::uint64_t RawBits(const ColRef& col, std::size_t i) {
  switch (col.type) {
    case DataType::kInt32:
      return static_cast<std::uint64_t>(
          static_cast<std::int64_t>(Typed<std::int32_t>(col)[i]));
    case DataType::kInt64: return static_cast<std::uint64_t>(Typed<std::int64_t>(col)[i]);
    case DataType::kFloat64: break;
  }
  return std::bit_cast<std::uint64_t>(Typed<double>(col)[i]);
}

std::uint64_t CanonicalBits(DataType type, std::uint64_t raw) {
  constexpr std::uint64_t kSign = 1ull << 63;
  constexpr std::uint64_t kQuietNan = 0x7ff8000000000000ull;
  if (type != DataType::kFloat64) return raw;
  const double d = std::bit_cast<double>(raw);
  return d != d ? (raw & kSign) | kQuietNan : raw;
}

Value FromBits(DataType type, std::uint64_t raw) {
  switch (type) {
    case DataType::kInt32:
      return Value::Int32(static_cast<std::int32_t>(static_cast<std::int64_t>(raw)));
    case DataType::kInt64: return Value::Int64(static_cast<std::int64_t>(raw));
    case DataType::kFloat64: break;
  }
  return Value::Float64(std::bit_cast<double>(raw));
}

// A Value's payload as the column type T it was read from.
template <typename T>
auto& Payload(Value& v) {
  if constexpr (std::is_integral_v<T>) {
    return v.i;
  } else {
    return v.f;
  }
}

// Grouped aggregation state in first-seen group order: the per-chunk
// partial of the compute stage, and the merged result of the gather stage.
// Groups are found through an open-addressing index over canonical key words
// or, for dense integer keys, a direct index over their mixed-radix offset.
// Each group keeps its row count and, per aggregate, a double sum (SUM, AVG)
// or a Value extreme (MIN, MAX), updated as ApplyOperator updates them.
class GroupTable {
 public:
  // Given every key's `dense` range (DenseSpan), groups are numbered by the
  // keys' offset. With none they are hashed, and a reused table sizes its
  // index for its previous use's groups too, so a steady state of similar
  // uses never rehashes.
  void Reset(std::size_t key_width, std::size_t aggregate_count,
             std::size_t expected_groups = 8, std::span<const KeyRange> dense = {}) {
    lo_.clear();
    stride_.clear();
    std::uint64_t size = 1;
    for (const KeyRange& key : dense) {
      lo_.push_back(static_cast<std::uint64_t>(key.lo));
      stride_.push_back(size);
      size *= static_cast<std::uint64_t>(key.hi) - lo_.back() + 1;
    }
    index_.assign(
        dense.empty() ? std::bit_ceil(2 * std::max(expected_groups, groups_)) : size, 0);
    width_ = key_width;
    aggregates_ = aggregate_count;
    groups_ = 0;
    raw_.clear();
    canon_.clear();
    counts_.clear();
    sums_.clear();
    extremes_.clear();
  }

  std::size_t groups() const { return groups_; }
  std::size_t CapacityBytes() const {
    return HeapBytes(raw_) + HeapBytes(canon_) + HeapBytes(index_) + HeapBytes(lo_) +
           HeapBytes(stride_) + HeapBytes(counts_) + HeapBytes(sums_) +
           HeapBytes(extremes_);
  }
  const std::uint64_t* raw_key(std::size_t g) const { return raw_.data() + g * width_; }

  // The group of key `canon`, or groups() when there is none (hashed only).
  std::size_t Find(const std::uint64_t* canon) const {
    const std::uint32_t entry = index_[Bucket(canon)];
    return entry == 0 ? groups_ : entry - 1;
  }

  // The group of key `canon`, appended with first-seen key `raw` when new.
  std::size_t FindOrInsert(const std::uint64_t* canon, const std::uint64_t* raw) {
    std::uint32_t* entry = nullptr;
    if (lo_.empty()) {
      if (2 * (groups_ + 1) > index_.size()) Rehash(2 * index_.size());
      entry = &index_[Bucket(canon)];
    } else {
      std::uint64_t offset = 0;
      for (std::size_t k = 0; k < width_; ++k) offset += (canon[k] - lo_[k]) * stride_[k];
      entry = &index_[offset];
    }
    if (*entry == 0) {
      *entry = static_cast<std::uint32_t>(++groups_);
      raw_.insert(raw_.end(), raw, raw + width_);
      canon_.insert(canon_.end(), canon, canon + width_);
    }
    return *entry - 1;
  }

  // Folds rows [0, n) of `in` into this fresh table's groups `group_of`, one
  // aggregate at a time, rows in order.
  void FoldRows(const std::vector<AggregateSpec>& specs, const ColRef* in,
                const std::uint32_t* group_of, std::size_t n) {
    Grow(specs);
    for (std::size_t i = 0; i < n; ++i) ++counts_[group_of[i]];
    for (std::size_t a = 0; a < specs.size(); ++a) {
      const AggregateSpec::Func func = specs[a].func;
      if (func == AggregateSpec::Func::kCount) continue;
      const ColRef& col = in[specs[a].field];
      VisitType(col.type, [&](auto tag) {
        using T = decltype(tag);
        const T* v = Typed<T>(col);
        if (func == AggregateSpec::Func::kSum || func == AggregateSpec::Func::kAvg) {
          double* sums = sums_.data() + a;
          for (std::size_t i = 0; i < n; ++i) {
            sums[group_of[i] * aggregates_] += static_cast<double>(v[i]);
          }
          return;
        }
        // Groups are numbered in first-seen order, so row i is the first of
        // its group exactly when that group is the next one unseen.
        Value* extremes = extremes_.data() + a;
        std::size_t seen = 0;
        for (std::size_t i = 0; i < n; ++i) {
          Value& e = extremes[group_of[i] * aggregates_];
          auto& x = Payload<T>(e);
          if (group_of[i] == seen) {
            ++seen;
            e = ValueAt(col, i);
          } else if (func == AggregateSpec::Func::kMin ? v[i] < x : x < v[i]) {
            x = v[i];
          }
        }
      });
    }
  }

  // Folds `other` in, group by group in its first-seen order; a group new
  // here takes `other`'s state as it is. `ids` is scratch.
  void MergeFrom(const GroupTable& other, const std::vector<AggregateSpec>& specs,
                 std::vector<std::uint32_t>& ids) {
    const std::size_t base = groups_;
    ids.resize(other.groups_);
    for (std::size_t g = 0; g < other.groups_; ++g) {
      ids[g] = static_cast<std::uint32_t>(
          FindOrInsert(other.canon_.data() + g * width_, other.raw_key(g)));
    }
    Grow(specs);
    for (std::size_t g = 0; g < other.groups_; ++g) counts_[ids[g]] += other.counts_[g];
    for (std::size_t a = 0; a < specs.size(); ++a) {
      const AggregateSpec::Func func = specs[a].func;
      if (func == AggregateSpec::Func::kCount) continue;
      const bool sum =
          func == AggregateSpec::Func::kSum || func == AggregateSpec::Func::kAvg;
      for (std::size_t g = 0; g < other.groups_; ++g) {
        const std::size_t mine = ids[g] * aggregates_ + a;
        const std::size_t theirs = g * aggregates_ + a;
        const bool fresh = ids[g] >= base;
        if (sum) {
          sums_[mine] = fresh ? other.sums_[theirs] : sums_[mine] + other.sums_[theirs];
          continue;
        }
        const Value& e = other.extremes_[theirs];
        if (fresh || (func == AggregateSpec::Func::kMin ? e < extremes_[mine]
                                                        : extremes_[mine] < e)) {
          extremes_[mine] = e;
        }
      }
    }
  }

  Value Result(std::size_t g, std::size_t a, AggregateSpec::Func func) const {
    const std::size_t slot = g * aggregates_ + a;
    switch (func) {
      case AggregateSpec::Func::kSum: return Value::Float64(sums_[slot]);
      case AggregateSpec::Func::kAvg:
        return Value::Float64(sums_[slot] / static_cast<double>(counts_[g]));
      case AggregateSpec::Func::kMin:
      case AggregateSpec::Func::kMax: return extremes_[slot];
      case AggregateSpec::Func::kCount: break;
    }
    return Value::Int64(counts_[g]);
  }

 private:
  std::uint64_t Hash(const std::uint64_t* words) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (std::size_t k = 0; k < width_; ++k) {
      h = (h ^ words[k]) * 0xff51afd7ed558ccdull;
      h ^= h >> 32;
    }
    return h;
  }

  // The bucket holding `canon`, or the empty bucket where it would go.
  std::size_t Bucket(const std::uint64_t* canon) const {
    const std::size_t mask = index_.size() - 1;
    for (std::size_t b = Hash(canon) & mask;; b = (b + 1) & mask) {
      if (index_[b] == 0 ||
          std::equal(canon, canon + width_, canon_.data() + (index_[b] - 1) * width_)) {
        return b;
      }
    }
  }

  void Rehash(std::size_t buckets) {
    index_.assign(buckets, 0);
    const std::size_t mask = buckets - 1;
    for (std::size_t g = 0; g < groups_; ++g) {
      std::size_t b = Hash(canon_.data() + g * width_) & mask;
      while (index_[b] != 0) b = (b + 1) & mask;
      index_[b] = static_cast<std::uint32_t>(g + 1);
    }
  }

  // Sizes the aggregate state for every group; extremes only for MIN/MAX.
  void Grow(const std::vector<AggregateSpec>& specs) {
    counts_.resize(groups_);
    sums_.resize(groups_ * aggregates_);
    if (std::any_of(specs.begin(), specs.end(), [](const AggregateSpec& spec) {
          return spec.func == AggregateSpec::Func::kMin ||
                 spec.func == AggregateSpec::Func::kMax;
        })) {
      extremes_.resize(groups_ * aggregates_);
    }
  }

  std::size_t width_ = 0;
  std::size_t aggregates_ = 0;
  std::size_t groups_ = 0;
  std::vector<std::uint64_t> raw_;     // first-seen key bits, per group
  std::vector<std::uint64_t> canon_;   // canonical key bits, per group
  std::vector<std::uint32_t> index_;   // group + 1 per bucket or offset, 0 = empty
  std::vector<std::uint64_t> lo_;      // dense: each key's smallest value
  std::vector<std::uint64_t> stride_;  // dense: each key's offset multiplier
  std::vector<std::int64_t> counts_;   // rows per group
  std::vector<double> sums_;           // per group and aggregate: SUM, AVG
  std::vector<Value> extremes_;        // per group and aggregate: MIN, MAX
};

// --- The compiled cluster ----------------------------------------------------

// JOIN build side. Key equality is ValueEq's. With integers on both sides
// that is int64 equality. A positional build side (row r holds key k0 + r)
// builds nothing: probe k matches build row k - k0 when that is below n, the
// build rows. Otherwise key group g owns build rows rows[first[g] ..
// first[g+1]), in build order. When the build keys are dense (DenseSpan), the
// group of key k is k - min, so a probe indexes first_ directly: k - min
// wraps outside [0, max - min] for every k outside [min, max]. Other integer
// keys go through a GroupTable; any float key goes through ValueHash/ValueEq
// in a table built in build order, exactly as ApplyOperator's hash join
// builds its own.
class JoinIndex {
 public:
  void Build(const ColRef& key, std::size_t n, DataType probe_type) {
    integer_keys_ = key.type != DataType::kFloat64 && probe_type != DataType::kFloat64;
    build_rows_ = n;
    std::uint64_t span = 0;  // dense: the build keys' span
    positional_ = integer_keys_ && n > 0 && Positional(key, n);
    if (positional_) {
      min_ = RawBits(key, 0);
      return;
    }
    if (integer_keys_ && n > 0) {
      const KeyRange range = RangeOf(key, n);
      min_ = static_cast<std::uint64_t>(range.lo);
      span = DenseSpan({&range, 1}, n);
    }
    direct_ = span != 0;
    if (integer_keys_ && !direct_) ints_.Reset(1, 0, n);
    std::vector<std::uint32_t> group_of(n);
    for (std::size_t r = 0; r < n; ++r) {
      if (direct_) {
        group_of[r] = static_cast<std::uint32_t>(RawBits(key, r) - min_);
      } else if (integer_keys_) {
        const std::uint64_t k = RawBits(key, r);
        group_of[r] = static_cast<std::uint32_t>(ints_.FindOrInsert(&k, &k));
      } else {
        group_of[r] =
            values_.try_emplace(ValueAt(key, r), values_.size()).first->second;
      }
    }
    const std::size_t groups =
        direct_ ? span : integer_keys_ ? ints_.groups() : values_.size();
    first_.assign(groups + 1, 0);
    for (std::uint32_t g : group_of) ++first_[g + 1];
    std::partial_sum(first_.begin(), first_.end(), first_.begin());
    std::vector<std::uint32_t> next(first_.begin(), first_.end() - 1);
    rows_.resize(n);
    for (std::size_t r = 0; r < n; ++r) rows_[next[group_of[r]]++] = static_cast<std::uint32_t>(r);
  }

  // Appends the (probe row, build row) pairs of probe rows [0, rows), in
  // probe order, then build order. Returns whether every probe row matched
  // exactly one build row.
  bool Probe(const ColRef& probe, std::size_t rows, std::vector<std::uint32_t>& probe_ids,
             std::vector<std::uint32_t>& build_ids) const {
    if (positional_) {
      probe_ids.resize(rows);
      build_ids.resize(rows);
      std::size_t n = 0;
      for (std::size_t i = 0; i < rows; ++i) {
        const std::uint64_t b = RawBits(probe, i) - min_;
        probe_ids[n] = static_cast<std::uint32_t>(i);
        build_ids[n] = static_cast<std::uint32_t>(b);
        n += b < build_rows_ ? 1 : 0;
      }
      probe_ids.resize(n);
      build_ids.resize(n);
      return n == rows;
    }
    bool once = true;
    for (std::size_t i = 0; i < rows; ++i) {
      const std::span<const std::uint32_t> matches = Matches(probe, i);
      once = once && matches.size() == 1;
      for (std::uint32_t b : matches) {
        probe_ids.push_back(static_cast<std::uint32_t>(i));
        build_ids.push_back(b);
      }
    }
    return once;
  }

 private:
  // Build rows matching probe key `i` of `probe`, in build order.
  std::span<const std::uint32_t> Matches(const ColRef& probe, std::size_t i) const {
    std::size_t g = first_.size() - 1;
    if (direct_) {
      g = RawBits(probe, i) - min_;
    } else if (integer_keys_) {
      const std::uint64_t k = RawBits(probe, i);
      g = ints_.Find(&k);
    } else if (const auto it = values_.find(ValueAt(probe, i)); it != values_.end()) {
      g = it->second;
    }
    // Not g + 1 >= size: a direct probe of min - 1 gives g = 2^64 - 1.
    if (g >= first_.size() - 1) return {};
    return {rows_.data() + first_[g], rows_.data() + first_[g + 1]};
  }

  bool integer_keys_ = false;
  bool positional_ = false;
  bool direct_ = false;
  std::size_t build_rows_ = 0;
  std::uint64_t min_ = 0;  // positional: row 0's key bits; direct: the smallest
  GroupTable ints_;
  std::unordered_map<Value, std::uint32_t, relational::ValueHash, relational::ValueEq>
      values_;
  std::vector<std::uint32_t> first_;
  std::vector<std::uint32_t> rows_;
};

// One member operator, compiled against the cluster's actual column types.
// Relations are numbered 0 (the primary chunk) and m + 1 (member m's output).
struct Step {
  const OpNode* node = nullptr;
  std::size_t input = 0;    // relation read
  std::size_t width = 0;    // columns produced
  std::size_t scratch = 0;  // first of its `width` scratch columns
  std::optional<TypedPredicate> typed;  // SELECT on one int32 column
  std::size_t typed_field = 0;
  ColumnProgram program;                // any other SELECT, and ARITH
  std::vector<ColRef> build_cols;       // JOIN (minus the key) / PRODUCT
  std::size_t build_rows = 0;
  JoinIndex index;                      // JOIN
  std::vector<DataType> key_types;      // AGGREGATE group-by column types
  std::ptrdiff_t out_col = -1;          // first column in a chunk's output block
  std::ptrdiff_t partial = -1;          // AGGREGATE: partial index
};

struct ClusterPlan {
  std::vector<ColRef> primary;        // primary columns at row 0
  std::vector<Step> steps;            // one per member, in cluster order
  std::vector<std::size_t> rel_off;   // relation r's first chunk ColRef
  std::size_t ref_count = 0;
  std::size_t scratch_cols = 0;
  std::size_t out_cols = 0;           // output columns per chunk
  std::size_t partials = 0;           // aggregate partials per chunk
  std::uint64_t typed_selects = 0;
};

ClusterPlan CompilePlan(const OpGraph& graph, const FusionCluster& cluster,
                        const Table& primary, const TableLookup& table_of) {
  ClusterPlan plan;
  std::vector<std::vector<DataType>> types(1);
  for (std::size_t c = 0; c < primary.column_count(); ++c) {
    plan.primary.push_back(RefOf(primary.column(c)));
    types[0].push_back(primary.column(c).type());
  }
  plan.rel_off.push_back(0);
  plan.ref_count = types[0].size();

  for (std::size_t m = 0; m < cluster.nodes.size(); ++m) {
    const NodeId id = cluster.nodes[m];
    const OpNode& node = graph.node(id);
    const relational::OperatorDesc& desc = node.desc;
    Step step;
    step.node = &node;
    if (node.inputs[0] != cluster.primary_input) {
      const auto begin = cluster.nodes.begin();
      const auto producer = std::find(begin, begin + static_cast<std::ptrdiff_t>(m),
                                      node.inputs[0]);
      // An empty primary streams nothing, so nothing reads the input.
      KF_REQUIRE(producer != begin + static_cast<std::ptrdiff_t>(m) || primary.empty())
          << "fused member '" << node.name << "' input not produced in cluster";
      if (producer != begin + static_cast<std::ptrdiff_t>(m)) {
        step.input = static_cast<std::size_t>(producer - begin) + 1;
      }
    }
    const std::vector<DataType>& in = types[step.input];
    std::vector<DataType> out = in;
    switch (desc.kind) {
      case OpKind::kSelect: {
        const auto f = static_cast<std::size_t>(
            std::max(0, relational::ExprMaxField(desc.predicate)));
        if (f < in.size() && in[f] == DataType::kInt32) {
          step.typed = relational::CompilePredicate(desc.predicate, static_cast<int>(f));
          step.typed_field = f;
        }
        if (step.typed.has_value()) {
          ++plan.typed_selects;
        } else {
          step.program = ColumnProgram(desc.predicate, in);
        }
        break;
      }
      case OpKind::kProject:
        out.clear();
        for (int f : desc.fields) out.push_back(in.at(static_cast<std::size_t>(f)));
        break;
      case OpKind::kArith:
        step.program = ColumnProgram(desc.arith, in);
        out.push_back(desc.arith_type);
        break;
      case OpKind::kJoin:
      case OpKind::kProduct: {
        const bool join = desc.kind == OpKind::kJoin;
        const Table& build = table_of(node.inputs[1]);
        step.build_rows = build.row_count();
        for (std::size_t c = 0; c < build.column_count(); ++c) {
          if (join && static_cast<int>(c) == desc.right_key) continue;
          step.build_cols.push_back(RefOf(build.column(c)));
          out.push_back(build.column(c).type());
        }
        if (join) {
          step.index.Build(RefOf(build.column(static_cast<std::size_t>(desc.right_key))),
                           build.row_count(), in.at(static_cast<std::size_t>(desc.left_key)));
        }
        break;
      }
      case OpKind::kAggregate:
        for (int g : desc.group_by) step.key_types.push_back(in.at(static_cast<std::size_t>(g)));
        step.partial = static_cast<std::ptrdiff_t>(plan.partials++);
        out.clear();  // nothing streams on from a reduction
        break;
      default:
        KF_REQUIRE(false) << "operator " << relational::ToString(desc.kind)
                          << " cannot stream in a fused kernel";
    }
    step.width = out.size();
    step.scratch = plan.scratch_cols;
    plan.scratch_cols += step.width;
    const bool is_output =
        std::find(cluster.outputs.begin(), cluster.outputs.end(), id) != cluster.outputs.end();
    if (is_output && desc.kind != OpKind::kAggregate) {
      step.out_col = static_cast<std::ptrdiff_t>(plan.out_cols);
      plan.out_cols += step.width;
    }
    plan.rel_off.push_back(plan.ref_count);
    plan.ref_count += step.width;
    types.push_back(std::move(out));
    plan.steps.push_back(std::move(step));
  }
  return plan;
}

// --- The compute stage -------------------------------------------------------

// Per-worker scratch, checked out of the BufferArena.
struct ChunkScratch {
  std::vector<ColRef> refs;                 // every relation's columns
  std::vector<std::size_t> rows;            // every relation's row count
  std::vector<Vec> cols;                    // columns of non-output members
  std::vector<std::uint32_t> sel;           // SELECT row ids
  std::vector<std::uint32_t> probe, build;  // JOIN/PRODUCT row-id pairs
  ProgramScratch program;                   // SELECT/ARITH column programs
  std::vector<std::uint64_t> raw, canon;    // one group key
  std::vector<KeyRange> ranges;             // group key ranges
  std::vector<std::uint32_t> group_of;      // each row's group

  std::size_t CapacityBytes() const {
    return HeapBytes(refs) + HeapBytes(rows) + HeapBytes(cols) + HeapBytes(sel) +
           HeapBytes(probe) + HeapBytes(build) + program.CapacityBytes() + HeapBytes(raw) +
           HeapBytes(canon) + HeapBytes(ranges) + HeapBytes(group_of);
  }
};

// Per-chunk results kept until the gather stage, indexed [chunk][...].
struct ChunkResults {
  std::vector<ChunkRange> chunks;
  std::vector<Vec> cols;                   // cluster-output columns
  std::vector<GroupTable> partials;        // aggregate partials
  std::vector<std::size_t> member_rows;    // rows each member produced
  std::vector<std::exception_ptr> errors;  // pool runs: first failure wins

  std::size_t CapacityBytes() const {
    return HeapBytes(chunks) + HeapBytes(cols) + HeapBytes(partials) +
           HeapBytes(member_rows) + HeapBytes(errors);
  }
};

std::size_t RunSelect(const Step& step, const ColRef* in, std::size_t rows,
                      ColRef* out, Vec* cols, ChunkScratch& s) {
  const std::size_t width = step.width;
  if (step.typed.has_value() && width == 1) {
    // One int32 column: compact the values themselves.
    auto* dst = reinterpret_cast<std::int32_t*>(cols[0].Reserve(DataType::kInt32, rows));
    const std::size_t n = relational::FilterInt32(
        {Typed<std::int32_t>(in[0]), rows}, *step.typed, dst);
    out[0] = cols[0].Ref();
    return n;
  }
  if (s.sel.size() < rows) s.sel.resize(rows);
  std::size_t n = 0;
  if (step.typed.has_value()) {
    n = relational::FilterInt32Ids({Typed<std::int32_t>(in[step.typed_field]), rows},
                                   *step.typed, s.sel.data());
  } else {
    n = step.program.Select(in, rows, s.sel.data(), s.program);
  }
  if (n == rows) {  // everything passed: alias the input columns
    std::copy(in, in + width, out);
    return n;
  }
  for (std::size_t j = 0; j < width; ++j) out[j] = Gather(in[j], s.sel.data(), n, cols[j]);
  return n;
}

std::size_t RunArith(const Step& step, const ColRef* in, std::size_t rows,
                     ColRef* out, Vec* cols, ChunkScratch& s) {
  const std::size_t width = step.width - 1;
  std::copy(in, in + width, out);
  const ColRef value = step.program.Run(in, rows, s.program);
  const DataType type = step.node->desc.arith_type;
  std::byte* dst = cols[width].Reserve(type, rows);
  VisitType(type, [&](auto out_tag) {
    VisitType(value.type, [&](auto value_tag) {
      using T = decltype(out_tag);
      const auto* v = Typed<decltype(value_tag)>(value);
      T* typed_dst = reinterpret_cast<T*>(dst);
      for (std::size_t i = 0; i < rows; ++i) typed_dst[i] = ConvertArith<T>(v[i]);
    });
  });
  out[width] = cols[width].Ref();
  return rows;
}

// JOIN and PRODUCT: probe/build row-id pairs in probe order, then build
// order, gathered into the left columns followed by the build columns. When
// every probe row matched exactly one build row, the left columns are
// aliased instead.
std::size_t RunExpand(const Step& step, const ColRef* in, std::size_t rows,
                      ColRef* out, Vec* cols, ChunkScratch& s) {
  s.probe.clear();
  s.build.clear();
  bool once = false;
  if (step.node->desc.kind == OpKind::kJoin) {
    once = step.index.Probe(in[step.node->desc.left_key], rows, s.probe, s.build);
  } else {
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t b = 0; b < step.build_rows; ++b) {
        s.probe.push_back(static_cast<std::uint32_t>(i));
        s.build.push_back(static_cast<std::uint32_t>(b));
      }
    }
  }
  const std::size_t n = s.probe.size();
  const std::size_t left = step.width - step.build_cols.size();
  for (std::size_t j = 0; j < left; ++j) {
    out[j] = once ? in[j] : Gather(in[j], s.probe.data(), n, cols[j]);
  }
  for (std::size_t k = 0; k < step.build_cols.size(); ++k) {
    out[left + k] = Gather(step.build_cols[k], s.build.data(), n, cols[left + k]);
  }
  return n;
}

// AGGREGATE: numbers the rows' groups, through a direct index when their
// integer keys are dense over the rows, then folds every aggregate.
void RunAggregate(const Step& step, const ColRef* in, std::size_t rows,
                  GroupTable& partial, ChunkScratch& s) {
  const relational::OperatorDesc& desc = step.node->desc;
  const std::size_t width = desc.group_by.size();
  s.ranges.clear();
  for (int g : desc.group_by) {
    if (in[g].type == DataType::kFloat64) break;
    s.ranges.push_back(RangeOf(in[g], rows));
  }
  if (s.ranges.size() != width || DenseSpan(s.ranges, rows) == 0) s.ranges.clear();
  partial.Reset(width, desc.aggregates.size(), 8, s.ranges);
  s.raw.resize(width);
  s.canon.resize(width);
  s.group_of.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t k = 0; k < width; ++k) {
      const ColRef& col = in[desc.group_by[k]];
      s.raw[k] = RawBits(col, i);
      s.canon[k] = CanonicalBits(col.type, s.raw[k]);
    }
    s.group_of[i] =
        static_cast<std::uint32_t>(partial.FindOrInsert(s.canon.data(), s.raw.data()));
  }
  partial.FoldRows(desc.aggregates, in, s.group_of.data(), rows);
}

// Runs every member over chunk `c`, column-at-a-time. Output members write
// straight into the chunk's output block; everything else stays in scratch.
void RunChunk(const ClusterPlan& plan, std::size_t c, ChunkScratch& s,
              ChunkResults& res) {
  const ChunkRange& range = res.chunks[c];
  const std::size_t members = plan.steps.size();
  s.refs.resize(plan.ref_count);
  s.rows.resize(members + 1);
  if (s.cols.size() < plan.scratch_cols) s.cols.resize(plan.scratch_cols);
  for (std::size_t j = 0; j < plan.primary.size(); ++j) {
    const ColRef& col = plan.primary[j];
    s.refs[j] = {col.type, col.data + range.begin * relational::SizeOf(col.type)};
  }
  s.rows[0] = range.size();

  for (std::size_t m = 0; m < members; ++m) {
    const Step& step = plan.steps[m];
    const ColRef* in = s.refs.data() + plan.rel_off[step.input];
    const std::size_t in_rows = s.rows[step.input];
    ColRef* out = s.refs.data() + plan.rel_off[m + 1];
    Vec* cols = step.out_col >= 0
                    ? res.cols.data() + c * plan.out_cols + static_cast<std::size_t>(step.out_col)
                    : s.cols.data() + step.scratch;
    std::size_t n = 0;
    switch (step.node->desc.kind) {
      case OpKind::kSelect: n = RunSelect(step, in, in_rows, out, cols, s); break;
      case OpKind::kProject:
        for (std::size_t j = 0; j < step.width; ++j) out[j] = in[step.node->desc.fields[j]];
        n = in_rows;
        break;
      case OpKind::kArith: n = RunArith(step, in, in_rows, out, cols, s); break;
      case OpKind::kJoin:
      case OpKind::kProduct: n = RunExpand(step, in, in_rows, out, cols, s); break;
      default:  // kAggregate; CompilePlan admits nothing else
        RunAggregate(step, in, in_rows,
                     res.partials[c * plan.partials + static_cast<std::size_t>(step.partial)],
                     s);
        break;
    }
    s.rows[m + 1] = n;
    res.member_rows[c * members + m] = n;
    if (step.out_col < 0) continue;
    // Aliased columns (PROJECT, unchanged SELECT/ARITH inputs) get copied.
    for (std::size_t j = 0; j < step.width; ++j) {
      if (n == 0 || out[j].data == cols[j].Ref().data) continue;
      std::memcpy(cols[j].Reserve(out[j].type, n), out[j].data,
                  n * relational::SizeOf(out[j].type));
    }
  }
}

// --- Barrier kernels ---------------------------------------------------------

// Appends src[ids[k]] for every k, converting like Column::Append when the
// column's type differs from the source's.
void GatherRows(Column& column, const Column& src, std::span<const std::uint32_t> ids) {
  const ColRef in = RefOf(src);
  if (column.type() != src.type()) {
    for (std::uint32_t id : ids) column.Append(ValueAt(in, id));
    return;
  }
  VisitType(src.type(), [&](auto tag) {
    using T = decltype(tag);
    auto& values = Storage<T>(column);
    const std::size_t base = values.size();
    values.resize(base + ids.size());
    for (std::size_t k = 0; k < ids.size(); ++k) values[base + k] = Typed<T>(in)[ids[k]];
  });
}

// SORT's row order. Integer keys take the staged radix argsort. A key set
// with a float64 key takes a stable sort whose comparator answers exactly as
// Value::operator< did: a column has one type, so its typed compare is that
// answer, NaN (never less, never greater) included — an order no radix
// reproduces, since NaN is not transitive with it.
std::vector<std::uint32_t> SortOrder(const std::vector<int>& sort_keys, const Table& in,
                                     int chunk_count, ThreadPool* pool) {
  std::vector<ColRef> keys;
  for (int k : sort_keys) {
    KF_REQUIRE(k >= 0 && static_cast<std::size_t>(k) < in.column_count())
        << "SORT field " << k << " out of range for schema " << in.schema().ToString();
    keys.push_back(RefOf(in.column(static_cast<std::size_t>(k))));
  }
  const std::size_t rows = in.row_count();
  if (std::none_of(keys.begin(), keys.end(),
                   [](const ColRef& key) { return key.type == DataType::kFloat64; })) {
    std::vector<relational::RadixKey> radix;
    for (const ColRef& key : keys) {
      if (key.type == DataType::kInt32) {
        radix.emplace_back(std::span(Typed<std::int32_t>(key), rows));
      } else {
        radix.emplace_back(std::span(Typed<std::int64_t>(key), rows));
      }
    }
    return relational::StagedRadixArgsort(rows, radix, chunk_count, pool);
  }
  std::vector<std::uint32_t> order(rows);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    for (const ColRef& key : keys) {
      const int sign = VisitType(key.type, [&](auto tag) {
        const auto* v = Typed<decltype(tag)>(key);
        return v[a] < v[b] ? -1 : v[b] < v[a] ? 1 : 0;
      });
      if (sign != 0) return sign < 0;
    }
    return false;
  });
  return order;
}

// Whole-row keys for UNIQUE and the set operators, equal exactly when the
// operator-at-a-time row-key texts are: one canonical word per column (ints
// by value, doubles by bits with NaNs canonical per sign), then a side word.
// The side word is 1 only for right rows whose int/float column classes
// differ from the left's, since an int never equals a float.
class RowKeys {
 public:
  RowKeys(const Table& table, std::uint64_t side) : side_(side) {
    for (std::size_t c = 0; c < table.column_count(); ++c) {
      cols_.push_back(RefOf(table.column(c)));
    }
    words_.resize(cols_.size() + 1);
  }

  std::size_t width() const { return words_.size(); }

  const std::uint64_t* Of(std::size_t row) {
    for (std::size_t c = 0; c < cols_.size(); ++c) {
      words_[c] = CanonicalBits(cols_[c].type, RawBits(cols_[c], row));
    }
    words_.back() = side_;
    return words_.data();
  }

 private:
  std::vector<ColRef> cols_;
  std::uint64_t side_;
  std::vector<std::uint64_t> words_;
};

// The input rows a barrier emits, in output order: left rows, then (UNION
// only) right rows.
struct BarrierRows {
  std::vector<std::uint32_t> left, right;
};

// UNIQUE and the set operators: first-seen rows.
BarrierRows SelectSetRows(OpKind kind, const Table& left, const Table* right) {
  std::uint64_t side = 0;
  if (right != nullptr) {
    KF_REQUIRE(right->column_count() == left.column_count())
        << relational::ToString(kind) << ": schemas differ: " << left.schema().ToString()
        << " vs " << right->schema().ToString();
    for (std::size_t c = 0; c < left.column_count(); ++c) {
      const bool left_float = left.column(c).type() == DataType::kFloat64;
      if (left_float != (right->column(c).type() == DataType::kFloat64)) side = 1;
    }
  }
  RowKeys left_keys(left, 0);
  GroupTable seen;
  seen.Reset(left_keys.width(), 0, left.row_count());
  const auto first_seen = [&](const std::uint64_t* key) {
    const std::size_t groups = seen.groups();
    return seen.FindOrInsert(key, key) == groups;
  };

  BarrierRows rows;
  if (kind == OpKind::kUnique || kind == OpKind::kUnion) {
    for (std::size_t r = 0; r < left.row_count(); ++r) {
      if (first_seen(left_keys.Of(r))) {
        rows.left.push_back(static_cast<std::uint32_t>(r));
      }
    }
    if (kind == OpKind::kUnion) {
      RowKeys right_keys(*right, side);
      for (std::size_t r = 0; r < right->row_count(); ++r) {
        if (first_seen(right_keys.Of(r))) {
          rows.right.push_back(static_cast<std::uint32_t>(r));
        }
      }
    }
    return rows;
  }
  // INTERSECT keeps the left rows the right input holds, DIFFERENCE the rest.
  RowKeys right_keys(*right, side);
  GroupTable right_set;
  right_set.Reset(right_keys.width(), 0, right->row_count());
  for (std::size_t r = 0; r < right->row_count(); ++r) {
    const std::uint64_t* key = right_keys.Of(r);
    right_set.FindOrInsert(key, key);
  }
  const bool keep_matches = kind == OpKind::kIntersect;
  for (std::size_t r = 0; r < left.row_count(); ++r) {
    const std::uint64_t* key = left_keys.Of(r);
    const bool matched = right_set.Find(key) != right_set.groups();
    if (matched == keep_matches && first_seen(key)) {
      rows.left.push_back(static_cast<std::uint32_t>(r));
    }
  }
  return rows;
}

// A singleton barrier cluster: the operator picks input row ids over its
// whole input, then every output column is gathered once, by type.
ClusterExecution ExecuteBarrier(const OpGraph& graph, NodeId id,
                                const TableLookup& table_of, int chunk_count,
                                ThreadPool* pool) {
  const OpNode& node = graph.node(id);
  const Table& left = table_of(node.inputs[0]);
  const Table* right = node.inputs.size() > 1 ? &table_of(node.inputs[1]) : nullptr;
  Table out(node.schema);
  KF_REQUIRE(left.column_count() == out.column_count())
      << "row has " << left.column_count() << " values, schema "
      << node.schema.ToString();

  BarrierRows rows;
  if (node.desc.kind == OpKind::kSort) {
    rows.left = SortOrder(node.desc.sort_keys, left, chunk_count, pool);
  } else {
    rows = SelectSetRows(node.desc.kind, left, right);
  }
  for (std::size_t c = 0; c < out.column_count(); ++c) {
    Column& column = out.column(c);
    column.Reserve(rows.left.size() + rows.right.size());
    GatherRows(column, left.column(c), rows.left);
    if (!rows.right.empty()) GatherRows(column, right->column(c), rows.right);
  }
  out.SyncRowCountFromColumns();

  ClusterExecution result;
  result.primary_rows = left.row_count();
  result.chunk_count = chunk_count;
  result.member_rows[id] = out.row_count();
  result.output_rows[id] = out.row_count();
  result.outputs.emplace(id, std::move(out));
  return result;
}

// --- The streamed cluster ----------------------------------------------------

// Partition, compute and gather stages of a cluster without barriers.
ClusterExecution ExecuteStreamed(const OpGraph& graph, const FusionCluster& cluster,
                                 const TableLookup& table_of, int chunk_count,
                                 ThreadPool* pool) {
  const Table& primary = table_of(cluster.primary_input);
  const ClusterPlan plan = CompilePlan(graph, cluster, primary, table_of);
  if (plan.typed_selects > 0) {
    HostPerfCounters::Global().typed_predicates.fetch_add(plan.typed_selects,
                                                          std::memory_order_relaxed);
  }
  // SELECTs CompilePredicate could not lower run through their column program.
  const auto fallback_selects = static_cast<std::uint64_t>(
      std::count_if(plan.steps.begin(), plan.steps.end(), [](const Step& step) {
        return step.node->desc.kind == OpKind::kSelect && !step.typed.has_value();
      }));
  if (fallback_selects > 0) {
    HostPerfCounters::Global().fallback_predicates.fetch_add(fallback_selects,
                                                             std::memory_order_relaxed);
  }

  // --- Partition stage. ------------------------------------------------------
  kf::BufferArena& scratch_arena = kf::BufferArena::ThreadLocal();
  auto results = scratch_arena.Acquire<ChunkResults>();
  ChunkResults& res = *results;
  relational::PartitionInputInto(primary.row_count(), chunk_count, res.chunks);
  const std::size_t chunk_n = res.chunks.size();
  const std::size_t members = plan.steps.size();
  // Grow-only, so pooled columns keep their capacity.
  if (res.cols.size() < chunk_n * plan.out_cols) res.cols.resize(chunk_n * plan.out_cols);
  if (res.partials.size() < chunk_n * plan.partials) {
    res.partials.resize(chunk_n * plan.partials);
  }
  res.member_rows.assign(chunk_n * members, 0);

  // --- Compute stage: one dispatch over the chunks; empty ones do nothing. --
  if (!primary.empty()) {
    if (pool != nullptr && chunk_n > 1) {
      res.errors.assign(chunk_n, nullptr);
      pool->ParallelForEach(chunk_n, [&](std::size_t c) {
        if (res.chunks[c].size() == 0) return;
        try {
          auto scratch = scratch_arena.Acquire<ChunkScratch>();
          RunChunk(plan, c, *scratch, res);
        } catch (...) {
          res.errors[c] = std::current_exception();
        }
      });
      // The lowest failing chunk's error, as a serial run would throw it.
      const auto failed = std::find_if(res.errors.begin(), res.errors.end(),
                                       [](const std::exception_ptr& e) { return e != nullptr; });
      if (failed != res.errors.end()) {
        const std::exception_ptr error = *failed;
        res.errors.clear();
        std::rethrow_exception(error);
      }
    } else {
      auto scratch = scratch_arena.Acquire<ChunkScratch>();
      for (std::size_t c = 0; c < chunk_n; ++c) {
        if (res.chunks[c].size() != 0) RunChunk(plan, c, *scratch, res);
      }
    }
  }

  // --- Gather stage: each output materialized once, chunk after chunk; the
  // per-chunk aggregation partials merge in chunk order. ---------------------
  ClusterExecution result;
  result.primary_rows = primary.row_count();
  result.chunk_count = chunk_count;
  // Every member gets an entry even when the primary input is empty (no
  // chunks ever stream): downstream cost accounting looks up every member's
  // realized row count unconditionally.
  for (std::size_t m = 0; m < members; ++m) {
    std::size_t total = 0;
    for (std::size_t c = 0; c < chunk_n; ++c) total += res.member_rows[c * members + m];
    result.member_rows[cluster.nodes[m]] = total;
  }
  for (NodeId out : cluster.outputs) {
    const auto member = std::find(cluster.nodes.begin(), cluster.nodes.end(), out);
    KF_REQUIRE(member != cluster.nodes.end())
        << "cluster output #" << out << " is not a cluster member";
    const std::size_t m = static_cast<std::size_t>(member - cluster.nodes.begin());
    const Step& step = plan.steps[m];
    const OpNode& node = graph.node(out);
    Table table(node.schema);
    if (step.partial >= 0) {
      const relational::OperatorDesc& desc = node.desc;
      const auto partial = [&](std::size_t c) -> const GroupTable& {
        return res.partials[c * plan.partials + static_cast<std::size_t>(step.partial)];
      };
      // The partials' integer keys index the merge directly when they are
      // dense over the partial groups.
      const std::size_t width = step.key_types.size();
      std::vector<KeyRange> ranges(width);
      std::size_t partial_groups = 0;
      for (std::size_t c = 0; c < chunk_n; ++c) {
        if (res.chunks[c].size() == 0) continue;
        partial_groups += partial(c).groups();
        for (std::size_t g = 0; g < partial(c).groups(); ++g) {
          for (std::size_t k = 0; k < width; ++k) {
            const auto key = static_cast<std::int64_t>(partial(c).raw_key(g)[k]);
            ranges[k].lo = std::min(ranges[k].lo, key);
            ranges[k].hi = std::max(ranges[k].hi, key);
          }
        }
      }
      const bool floats = std::find(step.key_types.begin(), step.key_types.end(),
                                    DataType::kFloat64) != step.key_types.end();
      if (floats || DenseSpan(ranges, partial_groups) == 0) ranges.clear();
      GroupTable merged;
      merged.Reset(width, desc.aggregates.size(), 8, ranges);
      std::vector<std::uint32_t> ids;
      for (std::size_t c = 0; c < chunk_n; ++c) {
        if (res.chunks[c].size() != 0) merged.MergeFrom(partial(c), desc.aggregates, ids);
      }
      for (std::size_t g = 0; g < merged.groups(); ++g) {
        const std::uint64_t* key = merged.raw_key(g);
        for (std::size_t k = 0; k < width; ++k) {
          table.column(k).Append(FromBits(step.key_types[k], key[k]));
        }
        for (std::size_t a = 0; a < desc.aggregates.size(); ++a) {
          table.column(width + a).Append(merged.Result(g, a, desc.aggregates[a].func));
        }
      }
    } else {
      const std::size_t total = result.member_rows.at(out);
      KF_REQUIRE(total == 0 || step.width == table.column_count())
          << "row has " << step.width << " values, schema " << node.schema.ToString();
      for (std::size_t j = 0; j < table.column_count() && j < step.width; ++j) {
        Column& column = table.column(j);
        column.Reserve(total);
        for (std::size_t c = 0; c < chunk_n; ++c) {
          const std::size_t rows = res.member_rows[c * members + m];
          if (rows == 0) continue;
          const Vec& col =
              res.cols[c * plan.out_cols + static_cast<std::size_t>(step.out_col) + j];
          AppendTo(column, col.Ref(), rows);
        }
      }
    }
    table.SyncRowCountFromColumns();
    result.output_rows[out] = table.row_count();
    result.outputs.emplace(out, std::move(table));
  }
  return result;
}

}  // namespace

ClusterExecution ExecuteCluster(const OpGraph& graph, const FusionCluster& cluster,
                                const TableLookup& table_of, int chunk_count,
                                ThreadPool* pool, bool compute_checksums) {
  KF_REQUIRE(!cluster.nodes.empty()) << "empty fusion cluster";
  KF_REQUIRE_AS(::kf::InvalidArgument, chunk_count > 0) << "chunk count must be positive";

  // --- Validate the planner's cluster: a barrier runs alone, and nothing in
  // the cluster consumes a reduction. -----------------------------------------
  bool barrier = false;
  for (NodeId id : cluster.nodes) {
    const FusionClass c = Classify(graph.node(id).desc.kind);
    barrier = barrier || c == FusionClass::kBarrier;
    KF_REQUIRE(c != FusionClass::kBarrier || cluster.nodes.size() == 1)
        << "barrier operator '" << graph.node(id).name << "' shares its cluster";
    if (c == FusionClass::kReduction) {
      for (NodeId member : cluster.nodes) {
        for (NodeId input : graph.node(member).inputs) {
          KF_REQUIRE(input != id)
              << "reduction '" << graph.node(id).name << "' has in-cluster consumers";
        }
      }
    }
  }

  ClusterExecution result =
      barrier ? ExecuteBarrier(graph, cluster.nodes[0], table_of, chunk_count, pool)
              : ExecuteStreamed(graph, cluster, table_of, chunk_count, pool);
  if (compute_checksums) {
    for (const auto& [id, table] : result.outputs) {
      result.output_checksums[id] = ChecksumTable(table);
    }
  }
  return result;
}

}  // namespace kf::core
