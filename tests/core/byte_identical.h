// Exact table equality for differential tests: same schema, same rows, same
// order, same bytes per value. Stricter than Value::operator== (which
// coerces across numeric types) and than the property tests' multiset
// comparisons — a path that silently reorders or perturbs rows fails here.
#ifndef KF_TESTS_CORE_BYTE_IDENTICAL_H_
#define KF_TESTS_CORE_BYTE_IDENTICAL_H_

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "relational/table.h"

namespace kf::core {

inline ::testing::AssertionResult ByteIdentical(const relational::Table& actual,
                                                const relational::Table& expected) {
  if (actual.schema().ToString() != expected.schema().ToString()) {
    return ::testing::AssertionFailure()
           << "schema mismatch: " << actual.schema().ToString() << " vs "
           << expected.schema().ToString();
  }
  if (actual.row_count() != expected.row_count()) {
    return ::testing::AssertionFailure()
           << "row count mismatch: " << actual.row_count() << " vs "
           << expected.row_count();
  }
  const std::vector<relational::Row> a = actual.Rows();
  const std::vector<relational::Row> b = expected.Rows();
  for (std::size_t r = 0; r < a.size(); ++r) {
    for (std::size_t f = 0; f < a[r].size(); ++f) {
      const relational::Value& va = a[r][f];
      const relational::Value& vb = b[r][f];
      // Require the same type tag and the same stored payload, bit for bit
      // (so -0.0 differs from 0.0, and a NaN matches only its own payload).
      if (va.type != vb.type || va.i != vb.i ||
          std::bit_cast<std::uint64_t>(va.f) != std::bit_cast<std::uint64_t>(vb.f)) {
        return ::testing::AssertionFailure()
               << "row " << r << " field " << f << ": " << va.ToString()
               << " vs " << vb.ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace kf::core

#endif  // KF_TESTS_CORE_BYTE_IDENTICAL_H_
