#include "tpch/datagen.h"

#include <algorithm>

#include "common/error.h"
#include "common/random.h"

namespace kf::tpch {

using relational::DataType;
using relational::Schema;
using relational::Table;
using relational::Value;

TpchData MakeTpchData(const TpchConfig& config) {
  // Each order's lineitems draw distinct suppliers, so an order of
  // kMaxLinesPerOrder lines needs that many.
  KF_REQUIRE(config.order_count > 0 && config.supplier_count >= kMaxLinesPerOrder)
      << "TPC-H needs an order and at least " << kMaxLinesPerOrder << " suppliers";
  TpchData data;
  data.config = config;
  Rng rng(config.seed);

  // --- nation ---------------------------------------------------------------
  data.nation = Table(Schema{{"n_nationkey", DataType::kInt32},
                             {"n_name", DataType::kInt32}});
  for (std::int32_t n = 0; n < 25; ++n) {
    data.nation.AppendRow({Value::Int32(n), Value::Int32(n)});
  }

  // --- supplier ---------------------------------------------------------------
  data.supplier = Table(Schema{{"s_suppkey", DataType::kInt64},
                               {"s_nationkey", DataType::kInt32}});
  data.supplier.Reserve(config.supplier_count);
  for (std::uint64_t s = 0; s < config.supplier_count; ++s) {
    data.supplier.AppendRow({Value::Int64(static_cast<std::int64_t>(s)),
                             Value::Int32(static_cast<std::int32_t>(rng.UniformInt(0, 24)))});
  }

  // --- orders -----------------------------------------------------------------
  data.orders = Table(Schema{{"o_orderkey", DataType::kInt64},
                             {"o_orderstatus", DataType::kInt32}});
  data.orders.Reserve(config.order_count);
  std::vector<std::int32_t> order_status(config.order_count);
  for (std::uint64_t o = 0; o < config.order_count; ++o) {
    // TPC-H: 'F' iff all lineitems shipped (~48.6%); approximate the mix.
    const double p = rng.UniformDouble();
    const std::int32_t status = p < 0.486 ? kOrderF : (p < 0.75 ? kOrderO : kOrderP);
    order_status[o] = status;
    data.orders.AppendRow(
        {Value::Int64(static_cast<std::int64_t>(o)), Value::Int32(status)});
  }

  // --- lineitem ---------------------------------------------------------------
  data.lineitem = Table(Schema{{"l_rowid", DataType::kInt64},
                               {"l_orderkey", DataType::kInt64},
                               {"l_suppkey", DataType::kInt64},
                               {"l_quantity", DataType::kInt32},
                               {"l_extendedprice", DataType::kFloat64},
                               {"l_discount", DataType::kFloat64},
                               {"l_tax", DataType::kFloat64},
                               {"l_returnflag", DataType::kInt32},
                               {"l_linestatus", DataType::kInt32},
                               {"l_shipdate", DataType::kInt32},
                               {"l_commitdate", DataType::kInt32},
                               {"l_receiptdate", DataType::kInt32}});
  std::int64_t rowid = 0;
  std::vector<std::int64_t> suppliers_of_order;
  for (std::uint64_t o = 0; o < config.order_count; ++o) {
    const int lines = static_cast<int>(rng.UniformInt(1, kMaxLinesPerOrder));
    // Distinct suppliers within one order (Q21's multi-supplier condition
    // counts suppliers per order).
    suppliers_of_order.clear();
    for (int l = 0; l < lines; ++l) {
      std::int64_t supp = 0;
      do {
        supp = rng.UniformInt(0, static_cast<std::int64_t>(config.supplier_count) - 1);
      } while (std::find(suppliers_of_order.begin(), suppliers_of_order.end(), supp) !=
               suppliers_of_order.end());
      suppliers_of_order.push_back(supp);

      const auto shipdate = static_cast<std::int32_t>(rng.UniformInt(kDateLo, kDateHi));
      const auto commitdate =
          static_cast<std::int32_t>(shipdate + rng.UniformInt(-30, 60));
      // ~30% of lineitems are received after their commit date (late).
      const bool late = rng.Bernoulli(0.3);
      const auto receiptdate = static_cast<std::int32_t>(
          late ? commitdate + rng.UniformInt(1, 30)
               : commitdate - rng.UniformInt(0, 30));
      const auto quantity = static_cast<std::int32_t>(rng.UniformInt(1, 50));
      const double price = static_cast<double>(quantity) *
                           rng.UniformDouble(900.0, 110000.0 / 50.0);
      const double discount = rng.UniformDouble(0.0, 0.10);
      const double tax = rng.UniformDouble(0.0, 0.08);
      // Return flag: R/A for older shipments, N for recent (spec ties it to
      // the receipt date; an approximation of the mix suffices here).
      const std::int32_t flag =
          shipdate < (kDateLo + kDateHi) / 2
              ? (rng.Bernoulli(0.5) ? kFlagR : kFlagA)
              : kFlagN;
      const std::int32_t lstatus =
          order_status[o] == kOrderF ? kStatusF : (rng.Bernoulli(0.5) ? kStatusO : kStatusF);

      data.lineitem.AppendRow({Value::Int64(rowid++),
                               Value::Int64(static_cast<std::int64_t>(o)),
                               Value::Int64(supp),
                               Value::Int32(quantity),
                               Value::Float64(price),
                               Value::Float64(discount),
                               Value::Float64(tax),
                               Value::Int32(flag),
                               Value::Int32(lstatus),
                               Value::Int32(shipdate),
                               Value::Int32(commitdate),
                               Value::Int32(receiptdate)});
    }
  }
  return data;
}

namespace {

// (rowid, one lineitem column), sharing lineitem's rows (columns are
// copy-on-write).
Table SplitColumn(const Table& lineitem, const char* name,
                  const std::string& source_field) {
  const relational::Column& value = lineitem.column(source_field);
  Table out(Schema{{"rowid", DataType::kInt64}, {name, value.type()}});
  out.column(0) = lineitem.column("l_rowid");
  out.column(1) = value;
  out.SyncRowCountFromColumns();
  return out;
}

}  // namespace

Q1Columns SplitQ1Columns(const Table& lineitem) {
  Q1Columns columns;
  columns.shipdate = SplitColumn(lineitem, "shipdate", "l_shipdate");
  columns.quantity = SplitColumn(lineitem, "quantity", "l_quantity");
  columns.price = SplitColumn(lineitem, "price", "l_extendedprice");
  columns.discount = SplitColumn(lineitem, "discount", "l_discount");
  columns.tax = SplitColumn(lineitem, "tax", "l_tax");
  columns.flag = SplitColumn(lineitem, "flag", "l_returnflag");
  columns.status = SplitColumn(lineitem, "status", "l_linestatus");
  return columns;
}

Table LineitemSlice(const Table& lineitem, std::initializer_list<const char*> fields) {
  std::vector<relational::Field> schema;
  for (const char* field : fields) {
    schema.push_back({field, lineitem.column(field).type()});
  }
  Table out{Schema(std::move(schema))};
  for (std::size_t c = 0; c < out.column_count(); ++c) {
    out.column(c) = lineitem.column(out.schema().field(c).name);
  }
  out.SyncRowCountFromColumns();
  return out;
}

}  // namespace kf::tpch
