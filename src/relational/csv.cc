#include "relational/csv.h"

#include <charconv>
#include <iomanip>
#include <limits>
#include <sstream>
#include <vector>

#include "common/error.h"

namespace kf::relational {

namespace {

const char* TypeTag(DataType type) {
  switch (type) {
    case DataType::kInt32: return "i32";
    case DataType::kInt64: return "i64";
    case DataType::kFloat64: return "f64";
  }
  return "?";
}

DataType ParseTypeTag(const std::string& tag) {
  if (tag == "i32") return DataType::kInt32;
  if (tag == "i64") return DataType::kInt64;
  if (tag == "f64") return DataType::kFloat64;
  KF_FAIL_AS(::kf::InvalidArgument) << "unknown CSV column type '" << tag << "'";
  return DataType::kInt64;  // unreachable: KF_FAIL_AS throws
}

// Defensive bound on one line of input: anything longer is corrupt (or an
// unterminated stream), not data this loader should try to materialize.
constexpr std::size_t kMaxLineBytes = 1 << 20;

std::vector<std::string> SplitLine(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  for (char c : line) {
    if (c == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else if (c != '\r') {
      cell += c;
    }
  }
  cells.push_back(std::move(cell));
  return cells;
}

}  // namespace

void WriteCsv(const Table& table, std::ostream& os) {
  const Schema& schema = table.schema();
  for (std::size_t c = 0; c < schema.field_count(); ++c) {
    if (c) os << ",";
    os << schema.field(c).name << ":" << TypeTag(schema.field(c).type);
  }
  os << "\n";
  os << std::setprecision(17);
  for (std::size_t r = 0; r < table.row_count(); ++r) {
    for (std::size_t c = 0; c < table.column_count(); ++c) {
      if (c) os << ",";
      const Value v = table.column(c).Get(r);
      if (v.is_float()) {
        os << v.as_double();
      } else {
        os << v.as_int();
      }
    }
    os << "\n";
  }
}

std::string ToCsv(const Table& table) {
  std::ostringstream os;
  WriteCsv(table, os);
  return os.str();
}

Table ReadCsv(std::istream& is) {
  std::string line;
  KF_REQUIRE_AS(::kf::InvalidArgument, static_cast<bool>(std::getline(is, line)))
      << "empty CSV input";
  KF_REQUIRE_AS(::kf::InvalidArgument, line.size() <= kMaxLineBytes)
      << "CSV header line exceeds " << kMaxLineBytes << " bytes";
  std::vector<Field> fields;
  for (const std::string& header : SplitLine(line)) {
    const std::size_t colon = header.rfind(':');
    KF_REQUIRE_AS(::kf::InvalidArgument, colon != std::string::npos && colon > 0)
        << "CSV header '" << header << "' is not name:type";
    fields.push_back(
        Field{header.substr(0, colon), ParseTypeTag(header.substr(colon + 1))});
  }
  Table table{Schema(fields)};

  std::size_t line_number = 1;
  Row row(fields.size());
  while (std::getline(is, line)) {
    ++line_number;
    if (line.empty()) continue;
    KF_REQUIRE_AS(::kf::InvalidArgument, line.size() <= kMaxLineBytes)
        << "CSV line " << line_number << " exceeds " << kMaxLineBytes << " bytes";
    const std::vector<std::string> cells = SplitLine(line);
    KF_REQUIRE_AS(::kf::InvalidArgument, cells.size() == fields.size())
        << "CSV line " << line_number << " has " << cells.size() << " cells, expected "
        << fields.size();
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const std::string& cell = cells[c];
      if (fields[c].type == DataType::kFloat64) {
        double value = 0.0;
        std::size_t consumed = 0;
        bool parsed = false;
        try {
          value = std::stod(cell, &consumed);
          parsed = true;
        } catch (const std::exception&) {
        }
        KF_REQUIRE_AS(::kf::InvalidArgument, parsed && consumed == cell.size())
            << "CSV line " << line_number << ": bad float '" << cell << "'";
        row[c] = Value::Float64(value);
      } else {
        std::int64_t value = 0;
        const auto [ptr, ec] =
            std::from_chars(cell.data(), cell.data() + cell.size(), value);
        KF_REQUIRE_AS(::kf::InvalidArgument,
                      ec == std::errc{} && ptr == cell.data() + cell.size())
            << "CSV line " << line_number << ": bad integer '" << cell << "'";
        if (fields[c].type == DataType::kInt32) {
          KF_REQUIRE_AS(::kf::InvalidArgument,
                        value >= std::numeric_limits<std::int32_t>::min() &&
                            value <= std::numeric_limits<std::int32_t>::max())
              << "CSV line " << line_number << ": i32 cell '" << cell << "' out of range";
          row[c] = Value::Int32(static_cast<std::int32_t>(value));
        } else {
          row[c] = Value::Int64(value);
        }
      }
    }
    table.AppendRow(row);
  }
  return table;
}

Table FromCsv(const std::string& text) {
  std::istringstream is(text);
  return ReadCsv(is);
}

}  // namespace kf::relational
