// CSV rendering of tables.
//
// Tests compare tables through this text: the header names every column
// with its type ("name:i32", "name:i64" or "name:f64"), cells are
// comma-separated, and doubles carry 17 significant digits, so distinct
// doubles, +0.0 and -0.0 among them, render differently.
#ifndef KF_RELATIONAL_CSV_H_
#define KF_RELATIONAL_CSV_H_

#include <string>

#include "relational/table.h"

namespace kf::relational {

// Renders `table` as CSV with a "name:type" header row.
std::string ToCsv(const Table& table);

}  // namespace kf::relational

#endif  // KF_RELATIONAL_CSV_H_
