#include "relational/table.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <map>
#include <sstream>

#include "common/error.h"

namespace kf::relational {

std::size_t Schema::IndexOf(const std::string& name) const {
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return i;
  }
  KF_REQUIRE(false) << "no field named '" << name << "' in schema " << ToString();
  return 0;  // unreachable
}

std::size_t Schema::row_width_bytes() const {
  std::size_t width = 0;
  for (const Field& f : fields_) width += SizeOf(f.type);
  return width;
}

std::string Schema::ToString() const {
  std::ostringstream os;
  os << "(";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i) os << ", ";
    os << fields_[i].name << ":" << kf::relational::ToString(fields_[i].type);
  }
  os << ")";
  return os.str();
}

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.field_count());
  for (const Field& f : schema_.fields()) columns_.emplace_back(f.type);
}

std::uint64_t Table::byte_size() const {
  std::uint64_t total = 0;
  for (const Column& c : columns_) total += c.byte_size();
  return total;
}

void Table::Reserve(std::size_t rows) {
  for (Column& c : columns_) c.Reserve(rows);
}

void Table::AppendRow(std::span<const Value> row) {
  KF_REQUIRE(row.size() == columns_.size())
      << "row has " << row.size() << " values, schema " << schema_.ToString();
  for (std::size_t i = 0; i < columns_.size(); ++i) columns_[i].Append(row[i]);
  ++row_count_;
}

void Table::AppendRows(const Table& other, std::size_t begin, std::size_t end) {
  KF_REQUIRE(&other != this) << "a table cannot append its own rows";
  KF_REQUIRE(begin <= end && end <= other.row_count_)
      << "rows [" << begin << ", " << end << ") out of range (" << other.row_count_
      << ")";
  KF_REQUIRE(other.columns_.size() == columns_.size())
      << "appending " << other.schema_.ToString() << " to " << schema_.ToString();
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    KF_REQUIRE(other.columns_[c].type() == columns_[c].type())
        << "appending " << other.schema_.ToString() << " to " << schema_.ToString();
  }
  const auto append = [begin, end](auto& to, const auto& from) {
    to.insert(to.end(), from.begin() + static_cast<std::ptrdiff_t>(begin),
              from.begin() + static_cast<std::ptrdiff_t>(end));
  };
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    const Column& from = other.columns_[c];
    switch (from.type()) {
      case DataType::kInt32: append(columns_[c].AsInt32(), from.AsInt32()); break;
      case DataType::kInt64: append(columns_[c].AsInt64(), from.AsInt64()); break;
      case DataType::kFloat64: append(columns_[c].AsFloat64(), from.AsFloat64()); break;
    }
  }
  row_count_ += end - begin;
}

void Table::SyncRowCountFromColumns() {
  KF_REQUIRE(!columns_.empty()) << "table has no columns";
  const std::size_t rows = columns_.front().size();
  for (const Column& c : columns_) {
    KF_REQUIRE(c.size() == rows) << "ragged columns: " << c.size() << " vs " << rows;
  }
  row_count_ = rows;
}

Row Table::GetRow(std::size_t i) const {
  KF_REQUIRE(i < row_count_) << "row " << i << " out of range (" << row_count_ << ")";
  Row row;
  row.reserve(columns_.size());
  for (const Column& c : columns_) row.push_back(c.Get(i));
  return row;
}

std::vector<Row> Table::Rows() const {
  std::vector<Row> rows;
  rows.reserve(row_count_);
  for (std::size_t i = 0; i < row_count_; ++i) rows.push_back(GetRow(i));
  return rows;
}

std::string Table::ToString(std::size_t max_rows) const {
  std::ostringstream os;
  os << schema_.ToString() << " rows=" << row_count_ << "\n";
  const std::size_t limit = std::min(row_count_, max_rows);
  for (std::size_t r = 0; r < limit; ++r) {
    os << "  (";
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (c) os << ", ";
      os << columns_[c].Get(r).ToString();
    }
    os << ")\n";
  }
  if (limit < row_count_) os << "  ... " << row_count_ - limit << " more\n";
  return os.str();
}

bool ApproxSameRowMultiset(const Table& a, const Table& b, double rel_tol) {
  if (a.row_count() != b.row_count() || a.column_count() != b.column_count()) {
    return false;
  }
  auto row_less = [](const Row& x, const Row& y) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i] < y[i]) return true;
      if (y[i] < x[i]) return false;
    }
    return false;
  };
  std::vector<Row> rows_a = a.Rows();
  std::vector<Row> rows_b = b.Rows();
  std::sort(rows_a.begin(), rows_a.end(), row_less);
  std::sort(rows_b.begin(), rows_b.end(), row_less);
  for (std::size_t r = 0; r < rows_a.size(); ++r) {
    for (std::size_t c = 0; c < rows_a[r].size(); ++c) {
      const Value& va = rows_a[r][c];
      const Value& vb = rows_b[r][c];
      if (!va.is_float() && !vb.is_float()) {
        if (va.as_int() != vb.as_int()) return false;
      } else {
        const double x = va.as_double();
        const double y = vb.as_double();
        const double scale = std::max({1.0, std::abs(x), std::abs(y)});
        if (std::abs(x - y) > rel_tol * scale) return false;
      }
    }
  }
  return true;
}

bool SameRowMultiset(const Table& a, const Table& b) {
  if (a.row_count() != b.row_count() ||
      a.column_count() != b.column_count()) {
    return false;
  }
  auto key = [](const Row& row) {
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
  };
  std::map<std::string, int> counts;
  for (const Row& row : a.Rows()) ++counts[key(row)];
  for (const Row& row : b.Rows()) {
    if (--counts[key(row)] < 0) return false;
  }
  return true;
}

}  // namespace kf::relational
