// Relations: schemas and column-major tables.
#ifndef KF_RELATIONAL_TABLE_H_
#define KF_RELATIONAL_TABLE_H_

#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "relational/column.h"

namespace kf::relational {

struct Field {
  std::string name;
  DataType type = DataType::kInt64;
};

class Schema {
 public:
  Schema() = default;
  Schema(std::initializer_list<Field> fields) : fields_(fields) {}
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  std::size_t field_count() const { return fields_.size(); }
  const Field& field(std::size_t i) const { return fields_.at(i); }
  const std::vector<Field>& fields() const { return fields_; }

  // Index of the field named `name`; throws if absent.
  std::size_t IndexOf(const std::string& name) const;

  // Bytes per row (sum of field widths) — drives transfer-size accounting.
  std::size_t row_width_bytes() const;

  std::string ToString() const;

 private:
  std::vector<Field> fields_;
};

// A row materialized as scalars (used by the generic operator paths and by
// tests; the hot staged-kernel paths use typed columns directly).
using Row = std::vector<Value>;

class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  std::size_t column_count() const { return columns_.size(); }
  std::size_t row_count() const { return row_count_; }
  bool empty() const { return row_count_ == 0; }

  std::uint64_t byte_size() const;

  Column& column(std::size_t i) { return columns_.at(i); }
  const Column& column(std::size_t i) const { return columns_.at(i); }
  const Column& column(const std::string& name) const {
    return columns_.at(schema_.IndexOf(name));
  }

  void Reserve(std::size_t rows);
  void AppendRow(std::span<const Value> row);
  void AppendRow(std::initializer_list<Value> row) {
    AppendRow(std::span<const Value>(row.begin(), row.size()));
  }
  Row GetRow(std::size_t i) const;
  // Appends rows [begin, end) of `other`, whose columns have this table's
  // types, one typed insert per column.
  void AppendRows(const Table& other, std::size_t begin, std::size_t end);

  // For bulk columnar fills that bypass AppendRow (typed column access):
  // validates that all columns have equal length and adopts it as the row
  // count. Throws on ragged columns.
  void SyncRowCountFromColumns();

  // All rows, materialized (testing convenience).
  std::vector<Row> Rows() const;

  std::string ToString(std::size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
  std::size_t row_count_ = 0;
};

// True when the two tables hold the same multiset of rows (order-insensitive
// comparison used by tests and the TPC-H validation).
bool SameRowMultiset(const Table& a, const Table& b);

// Order-insensitive comparison with relative tolerance on float fields —
// aggregation sums accumulate in different orders in fused vs reference
// execution, so the last ulps may differ.
bool ApproxSameRowMultiset(const Table& a, const Table& b, double rel_tol = 1e-9);

}  // namespace kf::relational

#endif  // KF_RELATIONAL_TABLE_H_
