#include "tpch/q6.h"

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

namespace {

// Q6 parameters (spec defaults): shipped in 1994, discount 0.05-0.07,
// quantity < 24.
constexpr std::int32_t kYearLo = 8766;   // 1994-01-01 (days since epoch)
constexpr std::int32_t kYearHi = 9131;   // 1995-01-01
constexpr double kDiscountLo = 0.05;
constexpr double kDiscountHi = 0.07;
constexpr std::int32_t kMaxQuantity = 24;

}  // namespace

QueryPlan BuildQ6Plan(const TpchData& data) {
  QueryPlan plan;
  // The slice of lineitem Q6 streams: (shipdate, discount, quantity, price).
  Table slice = LineitemSlice(
      data.lineitem, {"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"});
  const NodeId src =
      plan.graph.AddSource("lineitem", slice.schema(), slice.row_count());
  plan.source_bytes = slice.byte_size();
  plan.sources.emplace(src, std::move(slice));

  // Three range filters, kept as separate SELECTs (pattern a) so the fusion
  // planner earns its keep.
  const NodeId in_year = plan.graph.AddOperator(
      OperatorDesc::Select(
          Expr::And(Expr::Ge(Expr::FieldRef(0), Expr::Lit(Value::Int32(kYearLo))),
                    Expr::Lt(Expr::FieldRef(0), Expr::Lit(Value::Int32(kYearHi)))),
          "select_shipdate"),
      src);
  const NodeId in_discount = plan.graph.AddOperator(
      OperatorDesc::Select(
          Expr::And(Expr::Ge(Expr::FieldRef(1), Expr::LitF(kDiscountLo - 1e-9)),
                    Expr::Le(Expr::FieldRef(1), Expr::LitF(kDiscountHi + 1e-9))),
          "select_discount"),
      in_year);
  const NodeId in_quantity = plan.graph.AddOperator(
      OperatorDesc::Select(
          Expr::Lt(Expr::FieldRef(2), Expr::Lit(Value::Int32(kMaxQuantity))),
          "select_quantity"),
      in_discount);

  // revenue = extendedprice * discount, then SUM.
  const NodeId revenue = plan.graph.AddOperator(
      OperatorDesc::Arith(Expr::Mul(Expr::FieldRef(3), Expr::FieldRef(1)), "revenue",
                          DataType::kFloat64, "arith_revenue"),
      in_quantity);
  plan.sink = plan.graph.AddOperator(
      OperatorDesc::Aggregate(
          {}, {AggregateSpec{AggregateSpec::Func::kSum, 4, "total_revenue"}},
          "aggregate_q6"),
      revenue);
  return plan;
}

Table ReferenceQ6(const Table& lineitem) {
  const auto& ship = lineitem.column("l_shipdate").AsInt32();
  const auto& disc = lineitem.column("l_discount").AsFloat64();
  const auto& qty = lineitem.column("l_quantity").AsInt32();
  const auto& price = lineitem.column("l_extendedprice").AsFloat64();
  double revenue = 0.0;
  for (std::size_t r = 0; r < lineitem.row_count(); ++r) {
    if (ship[r] >= kYearLo && ship[r] < kYearHi &&
        disc[r] >= kDiscountLo - 1e-9 && disc[r] <= kDiscountHi + 1e-9 &&
        qty[r] < kMaxQuantity) {
      revenue += price[r] * disc[r];
    }
  }
  Table out(Schema{{"total_revenue", DataType::kFloat64}});
  out.AppendRow({Value::Float64(revenue)});
  return out;
}

}  // namespace kf::tpch
