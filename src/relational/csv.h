// CSV import/export for tables.
//
// Lets downstream users feed their own relations into the operator graphs
// and pull results out for analysis. The dialect is deliberately plain:
// comma separator, first line is "name:type" headers (types i32/i64/f64),
// no quoting (the library's tables are numeric).
#ifndef KF_RELATIONAL_CSV_H_
#define KF_RELATIONAL_CSV_H_

#include <iosfwd>
#include <string>

#include "relational/table.h"

namespace kf::relational {

// Writes `table` as CSV with a "name:type" header row.
void WriteCsv(const Table& table, std::ostream& os);
std::string ToCsv(const Table& table);

// Parses a CSV produced by WriteCsv (or hand-written in the same dialect).
// Throws kf::InvalidArgument on malformed headers, unknown types, ragged
// rows, unparseable numbers, or i32 cells outside int32.
Table ReadCsv(std::istream& is);
Table FromCsv(const std::string& text);

}  // namespace kf::relational

#endif  // KF_RELATIONAL_CSV_H_
