#include "core/fused_pipeline.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <exception>
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
using relational::Row;
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

// Uninitialized typed storage that keeps its capacity across chunks and,
// pooled through the arena, across clusters.
class Vec {
 public:
  std::byte* Reserve(DataType type, std::size_t n) {
    type_ = type;
    const std::size_t bytes = n * relational::SizeOf(type);
    if (bytes > capacity_) {
      capacity_ = std::max(bytes, 2 * capacity_);
      data_.reset(new std::byte[capacity_]);
    }
    return data_.get();
  }
  ColRef Ref() const { return {type_, data_.get()}; }

 private:
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

// --- Grouped aggregation -----------------------------------------------------

// One aggregate of one group, updated exactly as ApplyOperator does: a
// count, a double sum in row order, and min/max under Value ordering.
struct AggSlot {
  double sum = 0.0;
  std::int64_t count = 0;
  Value min_value;
  Value max_value;

  void Accumulate(const AggregateSpec& spec, const ColRef* row_cols, std::size_t i) {
    ++count;
    if (spec.func == AggregateSpec::Func::kCount) return;
    const Value v = ValueAt(row_cols[spec.field], i);
    sum += v.as_double();
    if (count == 1) {
      min_value = v;
      max_value = v;
    } else {
      if (v < min_value) min_value = v;
      if (max_value < v) max_value = v;
    }
  }

  void MergeFrom(const AggSlot& extra) {
    if (extra.count == 0) return;
    if (count == 0) {
      *this = extra;
      return;
    }
    sum += extra.sum;
    count += extra.count;
    if (extra.min_value < min_value) min_value = extra.min_value;
    if (max_value < extra.max_value) max_value = extra.max_value;
  }

  Value Result(AggregateSpec::Func func) const {
    switch (func) {
      case AggregateSpec::Func::kSum: return Value::Float64(sum);
      case AggregateSpec::Func::kAvg:
        return Value::Float64(count == 0 ? 0.0 : sum / static_cast<double>(count));
      case AggregateSpec::Func::kMin: return min_value;
      case AggregateSpec::Func::kMax: return max_value;
      case AggregateSpec::Func::kCount: break;
    }
    return Value::Int64(count);
  }
};

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

// Grouped aggregation state in first-seen group order: the per-chunk
// partial of the compute stage, and the merged result of the gather stage.
// Groups are found through an open-addressing index over canonical key words.
class GroupTable {
 public:
  void Reset(std::size_t key_width, std::size_t aggregate_count,
             std::size_t expected_groups = 8) {
    width_ = key_width;
    aggregates_ = aggregate_count;
    groups_ = 0;
    raw_.clear();
    canon_.clear();
    slots_.clear();
    index_.assign(std::bit_ceil(2 * expected_groups), 0);
  }

  std::size_t groups() const { return groups_; }
  const std::uint64_t* raw_key(std::size_t g) const { return raw_.data() + g * width_; }
  AggSlot* slots(std::size_t g) { return slots_.data() + g * aggregates_; }
  const AggSlot* slots(std::size_t g) const { return slots_.data() + g * aggregates_; }

  // The group of key `canon`, or groups() when there is none.
  std::size_t Find(const std::uint64_t* canon) const {
    const std::uint32_t entry = index_[Bucket(canon)];
    return entry == 0 ? groups_ : entry - 1;
  }

  // The group of key `canon`, appended with first-seen key `raw` when new.
  std::size_t FindOrInsert(const std::uint64_t* canon, const std::uint64_t* raw) {
    if (2 * (groups_ + 1) > index_.size()) Rehash(2 * index_.size());
    std::uint32_t& entry = index_[Bucket(canon)];
    if (entry == 0) {
      entry = static_cast<std::uint32_t>(++groups_);
      raw_.insert(raw_.end(), raw, raw + width_);
      canon_.insert(canon_.end(), canon, canon + width_);
      slots_.resize(slots_.size() + aggregates_);
    }
    return entry - 1;
  }

  // Folds `other` in, group by group in its first-seen order.
  void MergeFrom(const GroupTable& other) {
    for (std::size_t g = 0; g < other.groups_; ++g) {
      AggSlot* mine =
          slots(FindOrInsert(other.canon_.data() + g * width_, other.raw_key(g)));
      const AggSlot* theirs = other.slots(g);
      for (std::size_t a = 0; a < aggregates_; ++a) mine[a].MergeFrom(theirs[a]);
    }
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

  std::size_t width_ = 0;
  std::size_t aggregates_ = 0;
  std::size_t groups_ = 0;
  std::vector<std::uint64_t> raw_;    // first-seen key bits, per group
  std::vector<std::uint64_t> canon_;  // canonical key bits, per group
  std::vector<AggSlot> slots_;        // aggregates_ slots per group
  std::vector<std::uint32_t> index_;  // group + 1 per bucket, 0 = empty
};

// --- The compiled cluster ----------------------------------------------------

// JOIN build side: key group g owns build rows rows[first[g] .. first[g+1]),
// in build order. Key equality is ValueEq's. With integers on both sides
// that is int64 equality, which a GroupTable matches exactly; any float key
// goes through ValueHash/ValueEq in a table built in build order, exactly as
// ApplyOperator's hash join builds its own.
class JoinIndex {
 public:
  void Build(const ColRef& key, std::size_t n, DataType probe_type) {
    integer_keys_ = key.type != DataType::kFloat64 && probe_type != DataType::kFloat64;
    if (integer_keys_) ints_.Reset(1, 0, n);
    std::vector<std::uint32_t> group_of(n);
    for (std::size_t r = 0; r < n; ++r) {
      if (integer_keys_) {
        const std::uint64_t k = RawBits(key, r);
        group_of[r] = static_cast<std::uint32_t>(ints_.FindOrInsert(&k, &k));
      } else {
        group_of[r] =
            values_.try_emplace(ValueAt(key, r), values_.size()).first->second;
      }
    }
    first_.assign((integer_keys_ ? ints_.groups() : values_.size()) + 1, 0);
    for (std::uint32_t g : group_of) ++first_[g + 1];
    std::partial_sum(first_.begin(), first_.end(), first_.begin());
    std::vector<std::uint32_t> next(first_.begin(), first_.end() - 1);
    rows_.resize(n);
    for (std::size_t r = 0; r < n; ++r) rows_[next[group_of[r]]++] = static_cast<std::uint32_t>(r);
  }

  // Build rows matching probe key `i` of `probe`, in build order.
  std::span<const std::uint32_t> Matches(const ColRef& probe, std::size_t i) const {
    std::size_t g = first_.size() - 1;
    if (integer_keys_) {
      const std::uint64_t k = RawBits(probe, i);
      g = ints_.Find(&k);
    } else if (const auto it = values_.find(ValueAt(probe, i)); it != values_.end()) {
      g = it->second;
    }
    if (g + 1 >= first_.size()) return {};
    return {rows_.data() + first_[g], rows_.data() + first_[g + 1]};
  }

 private:
  bool integer_keys_ = false;
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
  std::vector<int> fields;              // fields EvalExpr reads
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

void CollectFields(const Expr& expr, std::size_t width, std::vector<int>& fields) {
  if (expr.op == relational::ExprOp::kField && expr.field >= 0 &&
      static_cast<std::size_t>(expr.field) < width &&
      std::find(fields.begin(), fields.end(), expr.field) == fields.end()) {
    fields.push_back(expr.field);
  }
  for (const Expr& child : expr.children) CollectFields(child, width, fields);
}

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
          CollectFields(desc.predicate, in.size(), step.fields);
        }
        break;
      }
      case OpKind::kProject:
        out.clear();
        for (int f : desc.fields) out.push_back(in.at(static_cast<std::size_t>(f)));
        break;
      case OpKind::kArith:
        CollectFields(desc.arith, in.size(), step.fields);
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
  Row row;                                  // EvalExpr operand
  std::vector<std::uint64_t> raw, canon;    // one group key
};

// Per-chunk results kept until the gather stage, indexed [chunk][...].
struct ChunkResults {
  std::vector<ChunkRange> chunks;
  std::vector<Vec> cols;                   // cluster-output columns
  std::vector<GroupTable> partials;        // aggregate partials
  std::vector<std::size_t> member_rows;    // rows each member produced
  std::vector<std::exception_ptr> errors;  // pool runs: first failure wins
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
    const Expr& predicate = step.node->desc.predicate;
    s.row.resize(width);
    for (std::size_t i = 0; i < rows; ++i) {
      for (int f : step.fields) s.row[static_cast<std::size_t>(f)] = ValueAt(in[f], i);
      s.sel[n] = static_cast<std::uint32_t>(i);
      n += relational::EvalExpr(predicate, s.row).as_bool() ? 1 : 0;
    }
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
  const relational::OperatorDesc& desc = step.node->desc;
  std::byte* dst = cols[width].Reserve(desc.arith_type, rows);
  s.row.resize(width);
  for (std::size_t i = 0; i < rows; ++i) {
    for (int f : step.fields) s.row[static_cast<std::size_t>(f)] = ValueAt(in[f], i);
    const Value v = relational::EvalExpr(desc.arith, s.row);
    switch (desc.arith_type) {
      case DataType::kInt32:
        reinterpret_cast<std::int32_t*>(dst)[i] = static_cast<std::int32_t>(v.as_int());
        break;
      case DataType::kInt64:
        reinterpret_cast<std::int64_t*>(dst)[i] = v.as_int();
        break;
      case DataType::kFloat64:
        reinterpret_cast<double*>(dst)[i] = v.as_double();
        break;
    }
  }
  out[width] = cols[width].Ref();
  return rows;
}

// JOIN and PRODUCT: probe/build row-id pairs in probe order, then build
// order, gathered into the left columns followed by the build columns.
std::size_t RunExpand(const Step& step, const ColRef* in, std::size_t rows,
                      ColRef* out, Vec* cols, ChunkScratch& s) {
  s.probe.clear();
  s.build.clear();
  if (step.node->desc.kind == OpKind::kJoin) {
    const ColRef& key = in[step.node->desc.left_key];
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::uint32_t b : step.index.Matches(key, i)) {
        s.probe.push_back(static_cast<std::uint32_t>(i));
        s.build.push_back(b);
      }
    }
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
  for (std::size_t j = 0; j < left; ++j) out[j] = Gather(in[j], s.probe.data(), n, cols[j]);
  for (std::size_t k = 0; k < step.build_cols.size(); ++k) {
    out[left + k] = Gather(step.build_cols[k], s.build.data(), n, cols[left + k]);
  }
  return n;
}

void RunAggregate(const Step& step, const ColRef* in, std::size_t rows,
                  GroupTable& partial, ChunkScratch& s) {
  const relational::OperatorDesc& desc = step.node->desc;
  const std::size_t width = desc.group_by.size();
  partial.Reset(width, desc.aggregates.size());
  s.raw.resize(width);
  s.canon.resize(width);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t k = 0; k < width; ++k) {
      const ColRef& col = in[desc.group_by[k]];
      s.raw[k] = RawBits(col, i);
      s.canon[k] = CanonicalBits(col.type, s.raw[k]);
    }
    AggSlot* slots = partial.slots(partial.FindOrInsert(s.canon.data(), s.raw.data()));
    for (std::size_t a = 0; a < desc.aggregates.size(); ++a) {
      slots[a].Accumulate(desc.aggregates[a], in, i);
    }
  }
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

// SORT's row order. One int32 key takes the staged radix argsort; any other
// key set a stable sort whose comparator answers exactly as Value::operator<
// did: a column has one type, so its typed compare is that answer, NaN
// (never less, never greater) included.
std::vector<std::uint32_t> SortOrder(const std::vector<int>& sort_keys, const Table& in,
                                     int chunk_count, ThreadPool* pool) {
  std::vector<ColRef> keys;
  for (int k : sort_keys) {
    KF_REQUIRE(k >= 0 && static_cast<std::size_t>(k) < in.column_count())
        << "SORT field " << k << " out of range for schema " << in.schema().ToString();
    keys.push_back(RefOf(in.column(static_cast<std::size_t>(k))));
  }
  if (keys.size() == 1 && keys[0].type == DataType::kInt32) {
    return relational::StagedRadixArgsort({Typed<std::int32_t>(keys[0]), in.row_count()},
                                          chunk_count, pool);
  }
  std::vector<std::uint32_t> order(in.row_count());
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
                                 ThreadPool* pool, kf::BufferArena* arena) {
  const Table& primary = table_of(cluster.primary_input);
  const ClusterPlan plan = CompilePlan(graph, cluster, primary, table_of);
  if (plan.typed_selects > 0) {
    HostPerfCounters::Global().typed_predicates.fetch_add(plan.typed_selects,
                                                          std::memory_order_relaxed);
  }

  // --- Partition stage. ------------------------------------------------------
  kf::BufferArena& scratch_arena =
      arena != nullptr ? *arena : kf::BufferArena::ThreadLocal();
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
      GroupTable merged;
      merged.Reset(desc.group_by.size(), desc.aggregates.size());
      for (std::size_t c = 0; c < chunk_n; ++c) {
        if (res.chunks[c].size() == 0) continue;
        merged.MergeFrom(res.partials[c * plan.partials + static_cast<std::size_t>(step.partial)]);
      }
      for (std::size_t g = 0; g < merged.groups(); ++g) {
        const std::uint64_t* key = merged.raw_key(g);
        for (std::size_t k = 0; k < step.key_types.size(); ++k) {
          table.column(k).Append(FromBits(step.key_types[k], key[k]));
        }
        for (std::size_t a = 0; a < desc.aggregates.size(); ++a) {
          table.column(step.key_types.size() + a)
              .Append(merged.slots(g)[a].Result(desc.aggregates[a].func));
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
                                ThreadPool* pool, kf::BufferArena* arena,
                                bool compute_checksums) {
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
              : ExecuteStreamed(graph, cluster, table_of, chunk_count, pool, arena);
  if (compute_checksums) {
    for (const auto& [id, table] : result.outputs) {
      result.output_checksums[id] = ChecksumTable(table);
    }
  }
  return result;
}

}  // namespace kf::core
