#include "relational/csv.h"

#include <iomanip>
#include <sstream>

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

}  // namespace

std::string ToCsv(const Table& table) {
  std::ostringstream os;
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
  return os.str();
}

}  // namespace kf::relational
