// TPC-H-style synthetic data generation.
//
// Generates the columns Q1 and Q21 touch, following the TPC-H specification's
// value domains (dates in 1992-1998, quantities 1-50, discounts 0-0.10,
// taxes 0-0.08, ~49% of orders with status 'F', 25 nations). Row counts are
// parameterized by a scale knob instead of the spec's fixed SF multiples so
// tests stay fast; distributions are uniform as in dbgen. String-typed spec
// columns (return flag, line status, order status, nation name) are
// dictionary-encoded to small integers — exactly what a columnar GPU
// database ships across PCIe.
#ifndef KF_TPCH_DATAGEN_H_
#define KF_TPCH_DATAGEN_H_

#include <cstdint>
#include <initializer_list>

#include "relational/table.h"

namespace kf::tpch {

// Dictionary encodings.
enum ReturnFlag : std::int32_t { kFlagA = 0, kFlagN = 1, kFlagR = 2 };
enum LineStatus : std::int32_t { kStatusO = 0, kStatusF = 1 };
enum OrderStatus : std::int32_t { kOrderO = 0, kOrderF = 1, kOrderP = 2 };

// Days since 1970-01-01.
inline constexpr std::int32_t kDateLo = 8036;    // 1992-01-01
inline constexpr std::int32_t kDateHi = 10560;   // 1998-12-01
// Q1 cutoff: 1998-12-01 minus 90 days.
inline constexpr std::int32_t kQ1Cutoff = kDateHi - 90;

struct TpchConfig {
  std::uint64_t order_count = 1000;
  std::uint64_t supplier_count = 100;
  int max_lines_per_order = 7;
  std::uint64_t seed = 20120521;  // IPDPS-W 2012
  std::int32_t target_nation = 20;  // "SAUDI ARABIA" in the spec's numbering
};

struct TpchData {
  // nation(n_nationkey i32, n_name i32) — name dictionary-encoded to the key.
  relational::Table nation;
  // supplier(s_suppkey i64, s_nationkey i32)
  relational::Table supplier;
  // orders(o_orderkey i64, o_orderstatus i32)
  relational::Table orders;
  // lineitem(l_rowid i64, l_orderkey i64, l_suppkey i64, l_quantity i32,
  //          l_extendedprice f64, l_discount f64, l_tax f64,
  //          l_returnflag i32, l_linestatus i32, l_shipdate i32,
  //          l_commitdate i32, l_receiptdate i32)
  relational::Table lineitem;

  TpchConfig config;
};

TpchData MakeTpchData(const TpchConfig& config);

// Q1's query plan consumes the lineitem columns as seven single-column
// relations keyed by row id (paper Fig 17a builds "a large table from seven
// columns" with one SELECT and six JOINs). Field order matches the plan.
struct Q1Columns {
  relational::Table shipdate;   // (rowid, l_shipdate)
  relational::Table quantity;   // (rowid, l_quantity)
  relational::Table price;      // (rowid, l_extendedprice)
  relational::Table discount;   // (rowid, l_discount)
  relational::Table tax;        // (rowid, l_tax)
  relational::Table flag;       // (rowid, l_returnflag)
  relational::Table status;     // (rowid, l_linestatus)
};

Q1Columns SplitQ1Columns(const relational::Table& lineitem);

// The named lineitem columns, in the given order. The slice shares
// lineitem's rows (columns are copy-on-write), so building it copies none.
relational::Table LineitemSlice(const relational::Table& lineitem,
                                std::initializer_list<const char*> fields);

}  // namespace kf::tpch

#endif  // KF_TPCH_DATAGEN_H_
