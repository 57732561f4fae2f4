#include "tpch/datagen.h"

#include <gtest/gtest.h>

#include <set>

#include "common/error.h"

namespace kf::tpch {
namespace {

TEST(Datagen, Deterministic) {
  TpchConfig config;
  config.order_count = 100;
  config.supplier_count = 20;
  const TpchData a = MakeTpchData(config);
  const TpchData b = MakeTpchData(config);
  EXPECT_TRUE(relational::SameRowMultiset(a.lineitem, b.lineitem));
  EXPECT_TRUE(relational::SameRowMultiset(a.orders, b.orders));
}

TEST(Datagen, SchemasAndCardinalities) {
  TpchConfig config;
  config.order_count = 200;
  config.supplier_count = 30;
  const TpchData data = MakeTpchData(config);
  EXPECT_EQ(data.nation.row_count(), 25u);
  EXPECT_EQ(data.supplier.row_count(), 30u);
  EXPECT_EQ(data.orders.row_count(), 200u);
  // 1-7 lineitems per order.
  EXPECT_GE(data.lineitem.row_count(), 200u);
  EXPECT_LE(data.lineitem.row_count(), 1400u);
  EXPECT_EQ(data.lineitem.column_count(), 12u);
}

TEST(Datagen, ValueDomainsFollowSpec) {
  TpchConfig config;
  config.order_count = 300;
  const TpchData data = MakeTpchData(config);
  const auto& qty = data.lineitem.column("l_quantity").AsInt32();
  const auto& disc = data.lineitem.column("l_discount").AsFloat64();
  const auto& tax = data.lineitem.column("l_tax").AsFloat64();
  const auto& ship = data.lineitem.column("l_shipdate").AsInt32();
  for (std::size_t r = 0; r < qty.size(); ++r) {
    EXPECT_GE(qty[r], 1);
    EXPECT_LE(qty[r], 50);
    EXPECT_GE(disc[r], 0.0);
    EXPECT_LE(disc[r], 0.10);
    EXPECT_GE(tax[r], 0.0);
    EXPECT_LE(tax[r], 0.08);
    EXPECT_GE(ship[r], kDateLo);
    EXPECT_LE(ship[r], kDateHi);
  }
}

TEST(Datagen, DistinctSuppliersWithinOrder) {
  TpchConfig config;
  config.order_count = 150;
  config.supplier_count = 25;
  const TpchData data = MakeTpchData(config);
  const auto& okey = data.lineitem.column("l_orderkey").AsInt64();
  const auto& skey = data.lineitem.column("l_suppkey").AsInt64();
  std::map<std::int64_t, std::set<std::int64_t>> per_order;
  std::map<std::int64_t, std::size_t> counts;
  for (std::size_t r = 0; r < okey.size(); ++r) {
    per_order[okey[r]].insert(skey[r]);
    ++counts[okey[r]];
  }
  for (const auto& [order, suppliers] : per_order) {
    EXPECT_EQ(suppliers.size(), counts[order]) << "order " << order;
  }
}

TEST(Datagen, StatusMixRoughlyHalfF) {
  TpchConfig config;
  config.order_count = 5000;
  const TpchData data = MakeTpchData(config);
  const auto& status = data.orders.column("o_orderstatus").AsInt32();
  const auto f_count = static_cast<double>(
      std::count(status.begin(), status.end(), kOrderF));
  EXPECT_NEAR(f_count / static_cast<double>(status.size()), 0.486, 0.05);
}

TEST(Datagen, LateFractionRoughlyThirty) {
  TpchConfig config;
  config.order_count = 5000;
  const TpchData data = MakeTpchData(config);
  const auto& commit = data.lineitem.column("l_commitdate").AsInt32();
  const auto& receipt = data.lineitem.column("l_receiptdate").AsInt32();
  std::size_t late = 0;
  for (std::size_t r = 0; r < commit.size(); ++r) {
    if (receipt[r] > commit[r]) ++late;
  }
  EXPECT_NEAR(static_cast<double>(late) / static_cast<double>(commit.size()), 0.30,
              0.05);
}

TEST(Datagen, RejectsBadConfig) {
  TpchConfig bad;
  bad.order_count = 0;
  EXPECT_THROW(MakeTpchData(bad), kf::Error);
  TpchConfig too_many_lines;
  too_many_lines.max_lines_per_order = 9;
  EXPECT_THROW(MakeTpchData(too_many_lines), kf::Error);
}

TEST(SplitQ1Columns, SevenAlignedColumnTables) {
  TpchConfig config;
  config.order_count = 50;
  const TpchData data = MakeTpchData(config);
  const Q1Columns columns = SplitQ1Columns(data.lineitem);
  const std::size_t n = data.lineitem.row_count();
  for (const relational::Table* t :
       {&columns.shipdate, &columns.quantity, &columns.price, &columns.discount,
        &columns.tax, &columns.flag, &columns.status}) {
    EXPECT_EQ(t->row_count(), n);
    EXPECT_EQ(t->column_count(), 2u);
  }
  // Row ids align across the splits.
  EXPECT_EQ(columns.shipdate.column(0).Get(5), columns.price.column(0).Get(5));
  // Every split shares lineitem's rows: building it copies none.
  for (const relational::Table* t : {&columns.shipdate, &columns.tax, &columns.status}) {
    EXPECT_EQ(t->column(0).AsInt64().data(),
              data.lineitem.column("l_rowid").AsInt64().data());
  }
  EXPECT_EQ(columns.price.column(1).AsFloat64().data(),
            data.lineitem.column("l_extendedprice").AsFloat64().data());
}

TEST(LineitemSlice, SharesTheNamedColumnsInOrder) {
  TpchConfig config;
  config.order_count = 50;
  const TpchData data = MakeTpchData(config);
  const relational::Table slice =
      LineitemSlice(data.lineitem, {"l_quantity", "l_orderkey"});
  EXPECT_EQ(slice.schema().ToString(), "(l_quantity:i32, l_orderkey:i64)");
  EXPECT_EQ(slice.row_count(), data.lineitem.row_count());
  EXPECT_EQ(slice.column(0).AsInt32().data(),
            data.lineitem.column("l_quantity").AsInt32().data());
  EXPECT_EQ(slice.column(1).AsInt64().data(),
            data.lineitem.column("l_orderkey").AsInt64().data());
  EXPECT_THROW(LineitemSlice(data.lineitem, {"l_nope"}), Error);
}

}  // namespace
}  // namespace kf::tpch
