#include "relational/operators.h"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <numeric>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/error.h"

namespace kf::relational {

const char* ToString(OpKind kind) {
  switch (kind) {
    case OpKind::kSelect: return "SELECT";
    case OpKind::kProject: return "PROJECT";
    case OpKind::kProduct: return "PRODUCT";
    case OpKind::kJoin: return "JOIN";
    case OpKind::kUnion: return "UNION";
    case OpKind::kIntersect: return "INTERSECTION";
    case OpKind::kDifference: return "DIFFERENCE";
    case OpKind::kAggregate: return "AGGREGATION";
    case OpKind::kArith: return "ARITH";
    case OpKind::kSort: return "SORT";
    case OpKind::kUnique: return "UNIQUE";
  }
  return "?";
}

OperatorDesc OperatorDesc::Select(Expr predicate, std::string label) {
  OperatorDesc op;
  op.kind = OpKind::kSelect;
  op.predicate = std::move(predicate);
  op.label = std::move(label);
  return op;
}

OperatorDesc OperatorDesc::Project(std::vector<int> fields, std::string label) {
  OperatorDesc op;
  op.kind = OpKind::kProject;
  op.fields = std::move(fields);
  op.label = std::move(label);
  return op;
}

OperatorDesc OperatorDesc::Product(std::string label) {
  OperatorDesc op;
  op.kind = OpKind::kProduct;
  op.label = std::move(label);
  return op;
}

OperatorDesc OperatorDesc::Join(int left_key, int right_key, std::string label) {
  OperatorDesc op;
  op.kind = OpKind::kJoin;
  op.left_key = left_key;
  op.right_key = right_key;
  op.label = std::move(label);
  return op;
}

OperatorDesc OperatorDesc::Union(std::string label) {
  OperatorDesc op;
  op.kind = OpKind::kUnion;
  op.label = std::move(label);
  return op;
}

OperatorDesc OperatorDesc::Intersect(std::string label) {
  OperatorDesc op;
  op.kind = OpKind::kIntersect;
  op.label = std::move(label);
  return op;
}

OperatorDesc OperatorDesc::Difference(std::string label) {
  OperatorDesc op;
  op.kind = OpKind::kDifference;
  op.label = std::move(label);
  return op;
}

OperatorDesc OperatorDesc::Aggregate(std::vector<int> group_by,
                                     std::vector<AggregateSpec> aggregates,
                                     std::string label) {
  OperatorDesc op;
  op.kind = OpKind::kAggregate;
  op.group_by = std::move(group_by);
  op.aggregates = std::move(aggregates);
  op.label = std::move(label);
  return op;
}

OperatorDesc OperatorDesc::Arith(Expr expr, std::string name, DataType type,
                                 std::string label) {
  OperatorDesc op;
  op.kind = OpKind::kArith;
  op.arith = std::move(expr);
  op.arith_name = std::move(name);
  op.arith_type = type;
  op.label = std::move(label);
  return op;
}

OperatorDesc OperatorDesc::Sort(std::vector<int> keys, std::string label) {
  OperatorDesc op;
  op.kind = OpKind::kSort;
  op.sort_keys = std::move(keys);
  op.label = std::move(label);
  return op;
}

OperatorDesc OperatorDesc::Unique(std::string label) {
  OperatorDesc op;
  op.kind = OpKind::kUnique;
  op.label = std::move(label);
  return op;
}

namespace {

void CheckFieldIndex(int field, const Schema& schema, const char* what) {
  KF_REQUIRE(field >= 0 && static_cast<std::size_t>(field) < schema.field_count())
      << what << " field " << field << " out of range for schema " << schema.ToString();
}

std::string RowKey(const Row& row) {
  std::ostringstream os;
  os << std::setprecision(17);  // round-trip doubles exactly
  for (const Value& v : row) {
    if (v.is_float()) {
      os << "f" << v.as_double() << "|";
    } else {
      os << "i" << v.as_int() << "|";
    }
  }
  return os.str();
}

DataType AggregateType(const AggregateSpec& spec, const Schema& input) {
  switch (spec.func) {
    case AggregateSpec::Func::kCount:
      return DataType::kInt64;
    case AggregateSpec::Func::kSum:
    case AggregateSpec::Func::kAvg:
      return DataType::kFloat64;
    case AggregateSpec::Func::kMin:
    case AggregateSpec::Func::kMax:
      return input.field(static_cast<std::size_t>(spec.field)).type;
  }
  return DataType::kFloat64;
}

}  // namespace

Schema OutputSchema(const OperatorDesc& op, const Schema& left, const Schema* right) {
  KF_REQUIRE(op.is_binary() == (right != nullptr))
      << ToString(op.kind) << ": right input " << (right ? "unexpected" : "missing");
  std::vector<Field> fields;
  switch (op.kind) {
    case OpKind::kSelect:
    case OpKind::kSort:
    case OpKind::kUnique:
      return left;
    case OpKind::kUnion:
    case OpKind::kIntersect:
    case OpKind::kDifference:
      KF_REQUIRE(left.field_count() == right->field_count())
          << ToString(op.kind) << ": schemas differ: " << left.ToString() << " vs "
          << right->ToString();
      return left;
    case OpKind::kProject:
      KF_REQUIRE(!op.fields.empty()) << "PROJECT keeps no fields";
      for (int f : op.fields) {
        CheckFieldIndex(f, left, "PROJECT");
        fields.push_back(left.field(static_cast<std::size_t>(f)));
      }
      return Schema(std::move(fields));
    case OpKind::kProduct:
      fields = left.fields();
      for (const Field& f : right->fields()) fields.push_back(f);
      return Schema(std::move(fields));
    case OpKind::kJoin:
      CheckFieldIndex(op.left_key, left, "JOIN left");
      CheckFieldIndex(op.right_key, *right, "JOIN right");
      fields = left.fields();
      for (std::size_t i = 0; i < right->field_count(); ++i) {
        if (static_cast<int>(i) != op.right_key) fields.push_back(right->field(i));
      }
      return Schema(std::move(fields));
    case OpKind::kAggregate: {
      KF_REQUIRE(!op.aggregates.empty()) << "AGGREGATION computes nothing";
      for (int g : op.group_by) {
        CheckFieldIndex(g, left, "AGGREGATION group-by");
        fields.push_back(left.field(static_cast<std::size_t>(g)));
      }
      for (const AggregateSpec& spec : op.aggregates) {
        if (spec.func != AggregateSpec::Func::kCount) {
          CheckFieldIndex(spec.field, left, "AGGREGATION");
        }
        fields.push_back(Field{spec.name, AggregateType(spec, left)});
      }
      return Schema(std::move(fields));
    }
    case OpKind::kArith: {
      const int max_field = ExprMaxField(op.arith);
      KF_REQUIRE(max_field < static_cast<int>(left.field_count()))
          << "ARITH references field $" << max_field << " beyond schema "
          << left.ToString();
      fields = left.fields();
      fields.push_back(Field{op.arith_name, op.arith_type});
      return Schema(std::move(fields));
    }
  }
  return Schema{};
}

namespace {

Table ApplySelect(const OperatorDesc& op, const Table& in) {
  Table out(in.schema());
  for (std::size_t r = 0; r < in.row_count(); ++r) {
    const Row row = in.GetRow(r);
    if (EvalExpr(op.predicate, row).as_bool()) out.AppendRow(row);
  }
  return out;
}

Table ApplyProject(const OperatorDesc& op, const Table& in) {
  Table out(OutputSchema(op, in.schema(), nullptr));
  Row projected(op.fields.size());
  for (std::size_t r = 0; r < in.row_count(); ++r) {
    const Row row = in.GetRow(r);
    for (std::size_t i = 0; i < op.fields.size(); ++i) {
      projected[i] = row[static_cast<std::size_t>(op.fields[i])];
    }
    out.AppendRow(projected);
  }
  return out;
}

Table ApplyProduct(const OperatorDesc& op, const Table& left, const Table& right) {
  Table out(OutputSchema(op, left.schema(), &right.schema()));
  for (std::size_t l = 0; l < left.row_count(); ++l) {
    Row row = left.GetRow(l);
    const std::size_t left_width = row.size();
    row.resize(left_width + right.column_count());
    for (std::size_t r = 0; r < right.row_count(); ++r) {
      for (std::size_t c = 0; c < right.column_count(); ++c) {
        row[left_width + c] = right.column(c).Get(r);
      }
      out.AppendRow(row);
    }
  }
  return out;
}

Table ApplyJoin(const OperatorDesc& op, const Table& left, const Table& right) {
  Table out(OutputSchema(op, left.schema(), &right.schema()));
  // Build on the right input, probe with the left (hash equi-join).
  std::unordered_map<Value, std::vector<std::size_t>, ValueHash, ValueEq> build;
  const Column& right_keys = right.column(static_cast<std::size_t>(op.right_key));
  for (std::size_t r = 0; r < right.row_count(); ++r) {
    build[right_keys.Get(r)].push_back(r);
  }
  for (std::size_t l = 0; l < left.row_count(); ++l) {
    Row row = left.GetRow(l);
    const Value key = row[static_cast<std::size_t>(op.left_key)];
    auto it = build.find(key);
    if (it == build.end()) continue;
    const std::size_t left_width = row.size();
    for (std::size_t match : it->second) {
      row.resize(left_width);
      for (std::size_t c = 0; c < right.column_count(); ++c) {
        if (static_cast<int>(c) == op.right_key) continue;
        row.push_back(right.column(c).Get(match));
      }
      out.AppendRow(row);
    }
  }
  return out;
}

Table ApplyUnion(const OperatorDesc& op, const Table& left, const Table& right) {
  Table out(OutputSchema(op, left.schema(), &right.schema()));
  std::unordered_set<std::string> seen;
  for (const Table* t : {&left, &right}) {
    for (std::size_t r = 0; r < t->row_count(); ++r) {
      const Row row = t->GetRow(r);
      if (seen.insert(RowKey(row)).second) out.AppendRow(row);
    }
  }
  return out;
}

Table ApplyIntersect(const OperatorDesc& op, const Table& left, const Table& right) {
  Table out(OutputSchema(op, left.schema(), &right.schema()));
  std::unordered_set<std::string> right_rows;
  for (std::size_t r = 0; r < right.row_count(); ++r) {
    right_rows.insert(RowKey(right.GetRow(r)));
  }
  std::unordered_set<std::string> emitted;
  for (std::size_t r = 0; r < left.row_count(); ++r) {
    const Row row = left.GetRow(r);
    const std::string key = RowKey(row);
    if (right_rows.count(key) != 0 && emitted.insert(key).second) out.AppendRow(row);
  }
  return out;
}

Table ApplyDifference(const OperatorDesc& op, const Table& left, const Table& right) {
  Table out(OutputSchema(op, left.schema(), &right.schema()));
  std::unordered_set<std::string> right_rows;
  for (std::size_t r = 0; r < right.row_count(); ++r) {
    right_rows.insert(RowKey(right.GetRow(r)));
  }
  std::unordered_set<std::string> emitted;
  for (std::size_t r = 0; r < left.row_count(); ++r) {
    const Row row = left.GetRow(r);
    const std::string key = RowKey(row);
    if (right_rows.count(key) == 0 && emitted.insert(key).second) out.AppendRow(row);
  }
  return out;
}

struct AggregateState {
  double sum = 0.0;
  Value min_value;
  Value max_value;
  std::int64_t count = 0;
};

Table ApplyAggregate(const OperatorDesc& op, const Table& in) {
  Table out(OutputSchema(op, in.schema(), nullptr));
  // Group rows; keys keep first-seen order for deterministic output.
  std::unordered_map<std::string, std::size_t> group_index;
  std::vector<Row> group_keys;
  std::vector<std::vector<AggregateState>> states;
  for (std::size_t r = 0; r < in.row_count(); ++r) {
    const Row row = in.GetRow(r);
    Row key;
    key.reserve(op.group_by.size());
    for (int g : op.group_by) key.push_back(row[static_cast<std::size_t>(g)]);
    const std::string key_str = RowKey(key);
    auto [it, inserted] = group_index.emplace(key_str, group_keys.size());
    if (inserted) {
      group_keys.push_back(key);
      states.emplace_back(op.aggregates.size());
    }
    auto& group_states = states[it->second];
    for (std::size_t a = 0; a < op.aggregates.size(); ++a) {
      const AggregateSpec& spec = op.aggregates[a];
      AggregateState& state = group_states[a];
      ++state.count;
      if (spec.func == AggregateSpec::Func::kCount) continue;
      const Value v = row[static_cast<std::size_t>(spec.field)];
      state.sum += v.as_double();
      if (state.count == 1) {
        state.min_value = v;
        state.max_value = v;
      } else {
        if (v < state.min_value) state.min_value = v;
        if (state.max_value < v) state.max_value = v;
      }
    }
  }
  for (std::size_t g = 0; g < group_keys.size(); ++g) {
    Row row = group_keys[g];
    for (std::size_t a = 0; a < op.aggregates.size(); ++a) {
      const AggregateSpec& spec = op.aggregates[a];
      const AggregateState& state = states[g][a];
      switch (spec.func) {
        case AggregateSpec::Func::kSum:
          row.push_back(Value::Float64(state.sum));
          break;
        case AggregateSpec::Func::kAvg:
          row.push_back(Value::Float64(
              state.count == 0 ? 0.0 : state.sum / static_cast<double>(state.count)));
          break;
        case AggregateSpec::Func::kMin:
          row.push_back(state.min_value);
          break;
        case AggregateSpec::Func::kMax:
          row.push_back(state.max_value);
          break;
        case AggregateSpec::Func::kCount:
          row.push_back(Value::Int64(state.count));
          break;
      }
    }
    out.AppendRow(row);
  }
  return out;
}

Table ApplyArith(const OperatorDesc& op, const Table& in) {
  Table out(OutputSchema(op, in.schema(), nullptr));
  for (std::size_t r = 0; r < in.row_count(); ++r) {
    Row row = in.GetRow(r);
    Value v = EvalExpr(op.arith, row);
    switch (op.arith_type) {
      case DataType::kInt32: v = Value::Int32(static_cast<std::int32_t>(v.as_int())); break;
      case DataType::kInt64: v = Value::Int64(v.as_int()); break;
      case DataType::kFloat64: v = Value::Float64(v.as_double()); break;
    }
    row.push_back(v);
    out.AppendRow(row);
  }
  return out;
}

Table ApplySort(const OperatorDesc& op, const Table& in) {
  for (int k : op.sort_keys) CheckFieldIndex(k, in.schema(), "SORT");

  std::vector<std::size_t> order(in.row_count());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    for (int k : op.sort_keys) {
      const Value va = in.column(static_cast<std::size_t>(k)).Get(a);
      const Value vb = in.column(static_cast<std::size_t>(k)).Get(b);
      if (va < vb) return true;
      if (vb < va) return false;
    }
    return false;
  });
  Table out(in.schema());
  out.Reserve(in.row_count());
  for (std::size_t r : order) out.AppendRow(in.GetRow(r));
  return out;
}

Table ApplyUnique(const OperatorDesc& op, const Table& in) {
  Table out(OutputSchema(op, in.schema(), nullptr));
  std::unordered_set<std::string> seen;
  for (std::size_t r = 0; r < in.row_count(); ++r) {
    const Row row = in.GetRow(r);
    if (seen.insert(RowKey(row)).second) out.AppendRow(row);
  }
  return out;
}

}  // namespace

Table ApplyOperator(const OperatorDesc& op, const Table& left, const Table* right) {
  KF_REQUIRE(op.is_binary() == (right != nullptr))
      << ToString(op.kind) << ": right input " << (right ? "unexpected" : "missing");
  switch (op.kind) {
    case OpKind::kSelect: return ApplySelect(op, left);
    case OpKind::kProject: return ApplyProject(op, left);
    case OpKind::kProduct: return ApplyProduct(op, left, *right);
    case OpKind::kJoin: return ApplyJoin(op, left, *right);
    case OpKind::kUnion: return ApplyUnion(op, left, *right);
    case OpKind::kIntersect: return ApplyIntersect(op, left, *right);
    case OpKind::kDifference: return ApplyDifference(op, left, *right);
    case OpKind::kAggregate: return ApplyAggregate(op, left);
    case OpKind::kArith: return ApplyArith(op, left);
    case OpKind::kSort: return ApplySort(op, left);
    case OpKind::kUnique: return ApplyUnique(op, left);
  }
  KF_REQUIRE(false) << "unhandled operator kind";
  return Table{};
}

}  // namespace kf::relational
