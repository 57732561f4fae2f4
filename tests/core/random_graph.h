// Shared random operator-graph generators for property/differential tests.
//
// MakeRandomQuery generates DAGs of streaming-friendly operators (SELECT,
// SORT, ARITH, JOIN) over int64 KV relations, with bound source tables — the
// workload used by the planner property tests, the strategy differential
// sweep, and the scheduler stress tests. Pinned fuzz seeds depend on its
// exact output, so it never changes. MakeRandomFusedQuery covers the rest
// of what a fused kernel streams, and MakeRandomBarrierQuery the barriers
// (multi-key SORT, UNIQUE, set operators) over mixed-type relations with
// IEEE edge cases. All are deterministic per seed.
#ifndef KF_TESTS_CORE_RANDOM_GRAPH_H_
#define KF_TESTS_CORE_RANDOM_GRAPH_H_

#include <bit>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/op_graph.h"
#include "relational/operators.h"
#include "relational/table.h"

namespace kf::core {

// A random DAG of streaming-friendly operators over int64 KV relations.
struct RandomQuery {
  OpGraph graph;
  std::map<NodeId, relational::Table> sources;
};

inline relational::Table RandomKV(Rng& rng, std::size_t rows) {
  relational::Table t(relational::Schema{{"k", relational::DataType::kInt64},
                                         {"v", relational::DataType::kInt64}});
  for (std::size_t r = 0; r < rows; ++r) {
    t.AppendRow({relational::Value::Int64(rng.UniformInt(0, 30)),
                 relational::Value::Int64(rng.UniformInt(-50, 50))});
  }
  return t;
}

inline RandomQuery MakeRandomQuery(std::uint64_t seed) {
  using relational::DataType;
  using relational::Expr;
  using relational::OperatorDesc;

  Rng rng(seed);
  RandomQuery q;
  std::vector<NodeId> pool;  // nodes with 2-field schemas, usable as inputs

  const int source_count = static_cast<int>(rng.UniformInt(1, 3));
  for (int s = 0; s < source_count; ++s) {
    const std::size_t rows = static_cast<std::size_t>(rng.UniformInt(50, 400));
    const NodeId src = q.graph.AddSource("src" + std::to_string(s),
                                         RandomKV(rng, 1).schema(), rows);
    q.sources.emplace(src, RandomKV(rng, rows));
    pool.push_back(src);
  }

  const int op_count = static_cast<int>(rng.UniformInt(2, 8));
  for (int i = 0; i < op_count; ++i) {
    const NodeId input = pool[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(pool.size()) - 1))];
    const bool two_fields = q.graph.node(input).schema.field_count() == 2;
    switch (rng.UniformInt(0, two_fields ? 4 : 2)) {
      case 0:
        pool.push_back(q.graph.AddOperator(
            OperatorDesc::Select(
                Expr::Lt(Expr::FieldRef(0), Expr::Lit(rng.UniformInt(0, 30))),
                "sel" + std::to_string(i)),
            input));
        break;
      case 1:
        pool.push_back(q.graph.AddOperator(
            OperatorDesc::Select(
                Expr::Ge(Expr::FieldRef(static_cast<int>(
                             rng.UniformInt(0, static_cast<std::int64_t>(
                                                   q.graph.node(input)
                                                       .schema.field_count()) -
                                                   1))),
                         Expr::Lit(rng.UniformInt(-20, 20))),
                "sel" + std::to_string(i)),
            input));
        break;
      case 2: {
        // Sort: a barrier in the middle of the DAG.
        pool.push_back(q.graph.AddOperator(
            OperatorDesc::Sort({0}, "sort" + std::to_string(i)), input));
        break;
      }
      case 3: {
        pool.push_back(q.graph.AddOperator(
            OperatorDesc::Arith(Expr::Add(Expr::FieldRef(0), Expr::FieldRef(1)),
                                "sum" + std::to_string(i), DataType::kInt64),
            input));
        break;
      }
      case 4: {
        // Join against a fresh small build table.
        const std::size_t rows = static_cast<std::size_t>(rng.UniformInt(5, 40));
        const NodeId build = q.graph.AddSource("build" + std::to_string(i),
                                               RandomKV(rng, 1).schema(), rows);
        q.sources.emplace(build, RandomKV(rng, rows));
        pool.push_back(q.graph.AddOperator(
            OperatorDesc::Join(0, 0, "join" + std::to_string(i)), input, build));
        break;
      }
    }
  }
  return q;
}

namespace random_graph_internal {

using relational::Expr;

// A comparison of field `f` against a small literal.
inline Expr RandomCompare(Rng& rng, int f, std::int64_t lo, std::int64_t hi) {
  const Expr field = Expr::FieldRef(f);
  const Expr lit = Expr::Lit(rng.UniformInt(lo, hi));
  switch (rng.UniformInt(0, 5)) {
    case 0: return Expr::Lt(field, lit);
    case 1: return Expr::Le(field, lit);
    case 2: return Expr::Gt(field, lit);
    case 3: return Expr::Ge(field, lit);
    case 4: return Expr::Eq(field, lit);
    default: return Expr::Ne(lit, field);
  }
}

// A SELECT predicate over fields [0, width) with values in [lo, hi]:
// AND/OR/NOT combinations, and divisions that only run where a
// short-circuit has ruled out a zero divisor. Every draw is its own
// statement, so the graph does not depend on argument evaluation order.
inline Expr RandomPredicate(Rng& rng, int width, std::int64_t lo, std::int64_t hi) {
  const auto field = [&] {
    return static_cast<int>(rng.UniformInt(0, width - 1));
  };
  const auto compare = [&] { return RandomCompare(rng, field(), lo, hi); };
  switch (rng.UniformInt(0, 6)) {
    case 0: return compare();
    case 1: {
      const Expr left = compare();
      return Expr::And(left, compare());
    }
    case 2: {
      const Expr left = compare();
      return Expr::Or(left, compare());
    }
    case 3: return Expr::Not(compare());
    case 4: {
      // Arithmetic inside the comparison: never a typed kernel.
      const int f = field();
      const std::int64_t shift = rng.UniformInt(-3, 3);
      return Expr::Lt(Expr::Add(Expr::FieldRef(f), Expr::Lit(shift)),
                      Expr::Lit(rng.UniformInt(lo, hi)));
    }
    case 5: {
      const int num = field();
      const int den = field();
      return Expr::And(Expr::Ne(Expr::FieldRef(den), Expr::Lit(0)),
                       Expr::Gt(Expr::Div(Expr::FieldRef(num), Expr::FieldRef(den)),
                                Expr::Lit(rng.UniformInt(-2, 2))));
    }
    default: {
      const int num = field();
      const int den = field();
      return Expr::Or(Expr::Eq(Expr::FieldRef(den), Expr::Lit(0)),
                      Expr::Lt(Expr::Div(Expr::FieldRef(num), Expr::FieldRef(den)),
                               Expr::Lit(rng.UniformInt(-2, 2))));
    }
  }
}

// A double from a small pool, so values repeat, holding the cases a row key
// must get right: ±0.0, ±inf, and NaNs of both signs with two payloads each.
// `finite` draws only values that convert to an integer (a UNION appending
// float rows into an int column converts them).
inline double RandomDouble(Rng& rng, bool finite) {
  if (!finite && rng.UniformInt(0, 3) == 0) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double payload_nan = std::bit_cast<double>(0x7ff8000000000123ull);
    const double inf = std::numeric_limits<double>::infinity();
    const double special[] = {nan, -nan, payload_nan, -payload_nan, inf, -inf};
    return special[rng.UniformInt(0, 5)];
  }
  if (rng.UniformInt(0, 4) == 0) return rng.UniformInt(0, 1) == 0 ? 0.0 : -0.0;
  return static_cast<double>(rng.UniformInt(-6, 6)) * 0.5;
}

// A relation with one column per type, `rows` long, few distinct values per
// column. Float column c draws finite values only where finite[c] is set.
inline relational::Table RandomTypedTable(Rng& rng,
                                          const std::vector<relational::DataType>& types,
                                          const std::vector<bool>& finite,
                                          std::size_t rows) {
  using relational::DataType;
  using relational::Value;
  std::vector<relational::Field> fields;
  for (std::size_t c = 0; c < types.size(); ++c) {
    fields.push_back({"c" + std::to_string(c), types[c]});
  }
  relational::Table t{relational::Schema(std::move(fields))};
  relational::Row row(types.size());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < types.size(); ++c) {
      switch (types[c]) {
        case DataType::kInt32:
          row[c] = Value::Int32(static_cast<std::int32_t>(rng.UniformInt(-6, 6)));
          break;
        case DataType::kInt64: row[c] = Value::Int64(rng.UniformInt(-6, 6)); break;
        case DataType::kFloat64:
          row[c] = Value::Float64(RandomDouble(rng, finite[c]));
          break;
      }
    }
    t.AppendRow(row);
  }
  return t;
}

}  // namespace random_graph_internal

// A random graph of what fused kernels stream and MakeRandomQuery never
// builds. Half the seeds draw a single int32 column with a multi-output
// SELECT tree over it (typed and EvalExpr predicates mixed); the other half
// draw int64 KV relations through SELECT, PROJECT, ARITH (int64 and
// narrowing int32), JOIN, at most one PRODUCT, and terminal AGGREGATEs
// (sum/avg/min/max/count over integer fields, exact in double, so every
// strategy must match the reference byte for byte). Predicates combine
// AND/OR/NOT, and every division is guarded by a short-circuit.
inline RandomQuery MakeRandomFusedQuery(std::uint64_t seed) {
  using relational::AggregateSpec;
  using relational::DataType;
  using relational::OperatorDesc;
  using random_graph_internal::RandomPredicate;

  Rng rng(seed ^ 0x5eedf00dull);
  RandomQuery q;

  if (rng.UniformInt(0, 1) == 0) {
    const std::size_t rows = static_cast<std::size_t>(rng.UniformInt(0, 600));
    relational::Table data(relational::Schema{{"v", DataType::kInt32}});
    for (std::size_t r = 0; r < rows; ++r) {
      data.AppendRow({relational::Value::Int32(
          static_cast<std::int32_t>(rng.UniformInt(-100, 100)))});
    }
    const NodeId src = q.graph.AddSource("col", data.schema(), rows);
    q.sources.emplace(src, std::move(data));
    std::vector<NodeId> tree{src};
    const int selects = static_cast<int>(rng.UniformInt(2, 9));
    for (int i = 0; i < selects; ++i) {
      const NodeId input = tree[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(tree.size()) - 1))];
      tree.push_back(q.graph.AddOperator(
          OperatorDesc::Select(RandomPredicate(rng, 1, -100, 100),
                               "sel" + std::to_string(i)),
          input));
    }
    return q;
  }

  std::vector<NodeId> pool;
  const int source_count = static_cast<int>(rng.UniformInt(1, 2));
  for (int s = 0; s < source_count; ++s) {
    const std::size_t rows = static_cast<std::size_t>(rng.UniformInt(0, 300));
    const NodeId src = q.graph.AddSource("src" + std::to_string(s),
                                         RandomKV(rng, 1).schema(), rows);
    q.sources.emplace(src, RandomKV(rng, rows));
    pool.push_back(src);
  }
  bool product_used = false;
  const int op_count = static_cast<int>(rng.UniformInt(2, 8));
  for (int i = 0; i < op_count; ++i) {
    const NodeId input = pool[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(pool.size()) - 1))];
    const int width = static_cast<int>(q.graph.node(input).schema.field_count());
    const auto field = [&] { return static_cast<int>(rng.UniformInt(0, width - 1)); };
    const std::string suffix = std::to_string(i);
    switch (rng.UniformInt(0, 6)) {
      case 0:
      case 1:
        pool.push_back(q.graph.AddOperator(
            OperatorDesc::Select(RandomPredicate(rng, width, -20, 30), "sel" + suffix),
            input));
        break;
      case 2: {
        std::vector<int> fields;
        const int kept = static_cast<int>(rng.UniformInt(1, 3));
        for (int k = 0; k < kept; ++k) fields.push_back(field());
        pool.push_back(
            q.graph.AddOperator(OperatorDesc::Project(fields, "proj" + suffix), input));
        break;
      }
      case 3: {
        const bool narrow = rng.UniformInt(0, 2) == 0;
        const bool add = rng.UniformInt(0, 1) == 0;
        const int a = field();
        const relational::Expr b = add ? relational::Expr::FieldRef(field())
                                       : relational::Expr::Lit(rng.UniformInt(-3, 3));
        const relational::Expr expr = add ? relational::Expr::Add(relational::Expr::FieldRef(a), b)
                                          : relational::Expr::Mul(relational::Expr::FieldRef(a), b);
        pool.push_back(q.graph.AddOperator(
            OperatorDesc::Arith(expr, "calc" + suffix,
                                narrow ? DataType::kInt32 : DataType::kInt64),
            input));
        break;
      }
      case 4:
      case 5: {
        const bool product = !product_used && rng.UniformInt(0, 2) == 0;
        product_used = product_used || product;
        const std::size_t rows =
            static_cast<std::size_t>(product ? rng.UniformInt(0, 4) : rng.UniformInt(0, 40));
        const NodeId build = q.graph.AddSource("build" + suffix,
                                               RandomKV(rng, 1).schema(), rows);
        q.sources.emplace(build, RandomKV(rng, rows));
        pool.push_back(q.graph.AddOperator(
            product ? OperatorDesc::Product("product" + suffix)
                    : OperatorDesc::Join(field(), 0, "join" + suffix),
            input, build));
        break;
      }
      default: {
        // Terminal: nothing consumes an aggregate, so it is never pooled.
        std::vector<int> group_by;
        const int keys = static_cast<int>(rng.UniformInt(0, 2));
        for (int k = 0; k < keys; ++k) group_by.push_back(field());
        std::vector<AggregateSpec> aggregates;
        const int count = static_cast<int>(rng.UniformInt(1, 3));
        for (int a = 0; a < count; ++a) {
          const auto func = static_cast<AggregateSpec::Func>(rng.UniformInt(0, 4));
          aggregates.push_back(AggregateSpec{func, field(), "agg" + std::to_string(a)});
        }
        q.graph.AddOperator(
            OperatorDesc::Aggregate(group_by, aggregates, "agg" + suffix), input);
        break;
      }
    }
  }
  return q;
}

// A random graph around the barriers: SORT on one to three keys, UNIQUE,
// UNION, INTERSECT and DIFFERENCE over int32/int64/float64 relations (see
// RandomDouble), feeding SELECT, PROJECT, JOIN and terminal AGGREGATEs.
// Set operators pair columns of one class (int32 with int64: rows can
// match) or of two (int with float: rows never match). Aggregates fold
// integer fields only: a chunked kernel legitimately orders float sums,
// and min/max across a NaN, differently from the row-order reference.
inline RandomQuery MakeRandomBarrierQuery(std::uint64_t seed) {
  using relational::AggregateSpec;
  using relational::DataType;
  using relational::Expr;
  using relational::OperatorDesc;
  using random_graph_internal::RandomDouble;
  using random_graph_internal::RandomTypedTable;

  Rng rng(seed ^ 0xba441e75ull);
  RandomQuery q;
  std::vector<NodeId> pool;
  const auto random_type = [&] { return static_cast<DataType>(rng.UniformInt(0, 2)); };
  const auto add_source = [&](const std::string& name, const std::vector<DataType>& types,
                              const std::vector<bool>& finite, std::int64_t max_rows) {
    const auto rows = static_cast<std::size_t>(rng.UniformInt(0, max_rows));
    relational::Table table = RandomTypedTable(rng, types, finite, rows);
    const NodeId id = q.graph.AddSource(name, table.schema(), rows);
    q.sources.emplace(id, std::move(table));
    return id;
  };
  const auto types_of = [&](NodeId id) {
    std::vector<DataType> types;
    for (const relational::Field& f : q.graph.node(id).schema.fields()) {
      types.push_back(f.type);
    }
    return types;
  };

  const int source_count = static_cast<int>(rng.UniformInt(1, 2));
  for (int s = 0; s < source_count; ++s) {
    std::vector<DataType> types(static_cast<std::size_t>(rng.UniformInt(1, 3)));
    for (DataType& t : types) t = random_type();
    pool.push_back(add_source("src" + std::to_string(s), types,
                              std::vector<bool>(types.size(), false), 200));
  }

  const int op_count = static_cast<int>(rng.UniformInt(3, 9));
  for (int i = 0; i < op_count; ++i) {
    const NodeId input = pool[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(pool.size()) - 1))];
    const std::vector<DataType> types = types_of(input);
    const int width = static_cast<int>(types.size());
    const auto field = [&] { return static_cast<int>(rng.UniformInt(0, width - 1)); };
    const std::string suffix = std::to_string(i);
    switch (rng.UniformInt(0, 8)) {
      case 0:
      case 1: {
        std::vector<int> keys(static_cast<std::size_t>(rng.UniformInt(1, 3)));
        for (int& k : keys) k = field();
        pool.push_back(
            q.graph.AddOperator(OperatorDesc::Sort(keys, "sort" + suffix), input));
        break;
      }
      case 2:
        pool.push_back(
            q.graph.AddOperator(OperatorDesc::Unique("unique" + suffix), input));
        break;
      case 3:
      case 4: {
        const std::int64_t kind = rng.UniformInt(0, 2);
        // A UNION converts right rows into the left's types, so a float
        // column unioned into an int one must hold finite values.
        std::vector<NodeId> partners;
        for (NodeId candidate : pool) {
          const std::vector<DataType> other = types_of(candidate);
          bool ok = other.size() == types.size();
          for (std::size_t c = 0; ok && c < types.size(); ++c) {
            ok = kind != 0 || types[c] == DataType::kFloat64 ||
                 other[c] != DataType::kFloat64;
          }
          if (ok) partners.push_back(candidate);
        }
        NodeId partner = kNoNode;
        if (partners.empty() || rng.UniformInt(0, 1) == 0) {
          std::vector<DataType> other = types;
          std::vector<bool> finite(types.size(), false);
          for (std::size_t c = 0; c < types.size(); ++c) {
            if (rng.UniformInt(0, 3) == 0) {
              other[c] = types[c] == DataType::kFloat64 ? DataType::kInt64
                                                        : DataType::kFloat64;
            } else if (types[c] != DataType::kFloat64) {
              other[c] = rng.UniformInt(0, 1) == 0 ? DataType::kInt32 : DataType::kInt64;
            }
            finite[c] = types[c] != DataType::kFloat64;
          }
          partner = add_source("other" + suffix, other, finite, 120);
        } else {
          partner = partners[static_cast<std::size_t>(
              rng.UniformInt(0, static_cast<std::int64_t>(partners.size()) - 1))];
        }
        const OperatorDesc op =
            kind == 0   ? OperatorDesc::Union("union" + suffix)
            : kind == 1 ? OperatorDesc::Intersect("intersect" + suffix)
                        : OperatorDesc::Difference("difference" + suffix);
        pool.push_back(q.graph.AddOperator(op, input, partner));
        break;
      }
      case 5: {
        const int f = field();
        const Expr lit = types[static_cast<std::size_t>(f)] == DataType::kFloat64
                             ? Expr::LitF(RandomDouble(rng, true))
                             : Expr::Lit(rng.UniformInt(-6, 6));
        const Expr predicate = rng.UniformInt(0, 1) == 0
                                   ? Expr::Lt(Expr::FieldRef(f), lit)
                                   : Expr::Ne(Expr::FieldRef(f), lit);
        pool.push_back(
            q.graph.AddOperator(OperatorDesc::Select(predicate, "sel" + suffix), input));
        break;
      }
      case 6: {
        std::vector<int> fields(static_cast<std::size_t>(rng.UniformInt(1, 3)));
        for (int& f : fields) f = field();
        pool.push_back(
            q.graph.AddOperator(OperatorDesc::Project(fields, "proj" + suffix), input));
        break;
      }
      case 7: {
        std::vector<DataType> build_types(static_cast<std::size_t>(rng.UniformInt(1, 2)));
        for (DataType& t : build_types) t = random_type();
        const NodeId build = add_source("build" + suffix, build_types,
                                        std::vector<bool>(build_types.size(), false), 30);
        pool.push_back(q.graph.AddOperator(
            OperatorDesc::Join(field(), 0, "join" + suffix), input, build));
        break;
      }
      default: {
        // Terminal: nothing consumes an aggregate, so it is never pooled.
        std::vector<int> group_by(static_cast<std::size_t>(rng.UniformInt(0, 2)));
        for (int& g : group_by) g = field();
        std::vector<AggregateSpec> aggregates;
        const int count = static_cast<int>(rng.UniformInt(1, 3));
        for (int a = 0; a < count; ++a) {
          const int f = field();
          const auto func = types[static_cast<std::size_t>(f)] == DataType::kFloat64
                                ? AggregateSpec::Func::kCount
                                : static_cast<AggregateSpec::Func>(rng.UniformInt(0, 4));
          aggregates.push_back(AggregateSpec{func, f, "agg" + std::to_string(a)});
        }
        q.graph.AddOperator(OperatorDesc::Aggregate(group_by, aggregates, "agg" + suffix),
                            input);
        break;
      }
    }
  }
  return q;
}

// Operator-at-a-time scalar reference: plain ApplyOperator over the graph in
// topological order. Returns every node's output keyed by node id.
inline std::map<NodeId, relational::Table> ReferenceResults(
    const RandomQuery& q) {
  std::map<NodeId, relational::Table> truth;
  for (NodeId id : q.graph.TopologicalOrder()) {
    const OpNode& node = q.graph.node(id);
    if (node.is_source) {
      truth.emplace(id, q.sources.at(id));
      continue;
    }
    const relational::Table* right =
        node.inputs.size() > 1 ? &truth.at(node.inputs[1]) : nullptr;
    truth.emplace(id, relational::ApplyOperator(node.desc,
                                                truth.at(node.inputs[0]), right));
  }
  return truth;
}

}  // namespace kf::core

#endif  // KF_TESTS_CORE_RANDOM_GRAPH_H_
