#include "tpch/q21.h"

#include <map>
#include <set>

#include "relational/operators.h"

namespace kf::tpch {

using core::NodeId;
using relational::AggregateSpec;
using relational::DataType;
using relational::Expr;
using relational::OperatorDesc;
using relational::Schema;
using relational::Table;
using relational::Value;

QueryPlan BuildQ21Plan(const TpchData& data) {
  QueryPlan plan;
  auto add_source = [&](const char* name, Table table) {
    const NodeId id = plan.graph.AddSource(name, table.schema(), table.row_count());
    plan.source_bytes += table.byte_size();
    plan.sources.emplace(id, std::move(table));
    return id;
  };
  // The slice of lineitem Q21 streams: (orderkey, suppkey, commit, receipt).
  const NodeId src_l1 = add_source(
      "lineitem",
      LineitemSlice(data.lineitem,
                    {"l_orderkey", "l_suppkey", "l_commitdate", "l_receiptdate"}));
  const NodeId src_orders = add_source("orders", data.orders);
  const NodeId src_supplier = add_source("supplier", data.supplier);
  const NodeId src_nation = add_source("nation", data.nation);

  // Build-side chains first, so their clusters execute before the consumers.
  const NodeId nat = plan.graph.AddOperator(
      OperatorDesc::Select(Expr::Eq(Expr::FieldRef(1),
                                    Expr::Lit(Value::Int32(kTargetNation))),
                           "select_nation"),
      src_nation);
  const NodeId supnat = plan.graph.AddOperator(OperatorDesc::Join(1, 0, "join_supnat"),
                                               src_supplier, nat);

  // The big fused block: one pass over lineitem computes the late filter,
  // both per-order counts, and the probe joins (Fig 2 patterns a/f/g
  // combined).
  const NodeId late = plan.graph.AddOperator(
      OperatorDesc::Select(Expr::Gt(Expr::FieldRef(3), Expr::FieldRef(2)),
                           "select_late"),
      src_l1);
  const NodeId per_order = plan.graph.AddOperator(
      OperatorDesc::Aggregate({0},
                              {AggregateSpec{AggregateSpec::Func::kCount, 0, "nsupp"}},
                              "agg_per_order"),
      src_l1);
  const NodeId per_late = plan.graph.AddOperator(
      OperatorDesc::Aggregate({0},
                              {AggregateSpec{AggregateSpec::Func::kCount, 0, "nlate"}},
                              "agg_per_late"),
      late);
  const NodeId j_ord =
      plan.graph.AddOperator(OperatorDesc::Join(0, 0, "join_orders"), late, src_orders);
  // Keep only F-orders via the pre-selected build side instead: probe fords.
  // (j_ord above joins the raw orders; the status filter applies next.)
  const NodeId only_f = plan.graph.AddOperator(
      OperatorDesc::Select(Expr::Eq(Expr::FieldRef(4), Expr::Lit(Value::Int32(kOrderF))),
                           "select_status_f"),
      j_ord);
  const NodeId j_sup = plan.graph.AddOperator(OperatorDesc::Join(1, 0, "join_supplier"),
                                              only_f, supnat);

  // Count filters from the aggregation branches.
  const NodeId multi = plan.graph.AddOperator(
      OperatorDesc::Select(Expr::Gt(Expr::FieldRef(1), Expr::Lit(1)), "select_multi"),
      per_order);
  const NodeId single_late = plan.graph.AddOperator(
      OperatorDesc::Select(Expr::Eq(Expr::FieldRef(1), Expr::Lit(1)), "select_single"),
      per_late);

  const NodeId j_multi = plan.graph.AddOperator(OperatorDesc::Join(0, 0, "join_multi"),
                                                j_sup, multi);
  const NodeId j_single = plan.graph.AddOperator(
      OperatorDesc::Join(0, 0, "join_single"), j_multi, single_late);

  // Order by supplier, count waits, order by count.
  const NodeId srt1 =
      plan.graph.AddOperator(OperatorDesc::Sort({1}, "sort_supp"), j_single);
  const NodeId agg_final = plan.graph.AddOperator(
      OperatorDesc::Aggregate({1},
                              {AggregateSpec{AggregateSpec::Func::kCount, 0, "numwait"}},
                              "agg_numwait"),
      srt1);
  plan.sink =
      plan.graph.AddOperator(OperatorDesc::Sort({1, 0}, "sort_numwait"), agg_final);
  return plan;
}

Table ReferenceQ21(const TpchData& data) {
  const Table& lineitem = data.lineitem;
  const auto& okey = lineitem.column("l_orderkey").AsInt64();
  const auto& skey = lineitem.column("l_suppkey").AsInt64();
  const auto& commit = lineitem.column("l_commitdate").AsInt32();
  const auto& receipt = lineitem.column("l_receiptdate").AsInt32();

  // Per-order line and late-line counts.
  std::map<std::int64_t, std::int64_t> lines_per_order;
  std::map<std::int64_t, std::int64_t> late_per_order;
  for (std::size_t r = 0; r < lineitem.row_count(); ++r) {
    ++lines_per_order[okey[r]];
    if (receipt[r] > commit[r]) ++late_per_order[okey[r]];
  }

  // Order status and supplier nation lookups.
  std::map<std::int64_t, std::int32_t> status_of;
  {
    const auto& keys = data.orders.column("o_orderkey").AsInt64();
    const auto& status = data.orders.column("o_orderstatus").AsInt32();
    for (std::size_t r = 0; r < data.orders.row_count(); ++r) status_of[keys[r]] = status[r];
  }
  std::set<std::int64_t> nation_suppliers;
  {
    const auto& keys = data.supplier.column("s_suppkey").AsInt64();
    const auto& nations = data.supplier.column("s_nationkey").AsInt32();
    for (std::size_t r = 0; r < data.supplier.row_count(); ++r) {
      if (nations[r] == kTargetNation) nation_suppliers.insert(keys[r]);
    }
  }

  std::map<std::int64_t, std::int64_t> numwait;
  for (std::size_t r = 0; r < lineitem.row_count(); ++r) {
    if (receipt[r] <= commit[r]) continue;                   // late only
    if (status_of[okey[r]] != kOrderF) continue;             // order status F
    if (nation_suppliers.count(skey[r]) == 0) continue;      // nation filter
    if (lines_per_order[okey[r]] <= 1) continue;             // multi-supplier
    if (late_per_order[okey[r]] != 1) continue;              // only late one
    ++numwait[skey[r]];
  }

  Table out(Schema{{"s_suppkey", DataType::kInt64}, {"numwait", DataType::kInt64}});
  for (const auto& [supp, count] : numwait) {
    out.AppendRow({Value::Int64(supp), Value::Int64(count)});
  }
  return out;
}

}  // namespace kf::tpch
