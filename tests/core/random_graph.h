// Shared random operator-graph generators for property/differential tests.
//
// MakeRandomQuery generates DAGs of streaming-friendly operators (SELECT,
// SORT, ARITH, JOIN) over int64 KV relations, with bound source tables — the
// workload used by the planner property tests, the strategy differential
// sweep, and the scheduler stress tests. Pinned fuzz seeds depend on its
// exact output, so it never changes. MakeRandomFusedQuery covers the rest
// of what a fused kernel streams. Both are deterministic per seed.
#ifndef KF_TESTS_CORE_RANDOM_GRAPH_H_
#define KF_TESTS_CORE_RANDOM_GRAPH_H_

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
