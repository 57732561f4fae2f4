// Typed values and columnar storage.
//
// Tables are stored column-major, as on the GPU in the paper's system
// (compressed row data is "transferred as columns of 32-bit integers"); we
// additionally support 64-bit integers and doubles for the TPC-H arithmetic.
#ifndef KF_RELATIONAL_COLUMN_H_
#define KF_RELATIONAL_COLUMN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "common/error.h"

namespace kf::relational {

enum class DataType : std::uint8_t { kInt32, kInt64, kFloat64 };

const char* ToString(DataType type);
std::size_t SizeOf(DataType type);

// A dynamically-typed scalar. Comparison is numeric across integer widths;
// mixing integers with floats compares as double.
struct Value {
  DataType type = DataType::kInt64;
  std::int64_t i = 0;
  double f = 0.0;

  static Value Int32(std::int32_t v) { return Value{DataType::kInt32, v, 0.0}; }
  static Value Int64(std::int64_t v) { return Value{DataType::kInt64, v, 0.0}; }
  static Value Float64(double v) { return Value{DataType::kFloat64, 0, v}; }

  bool is_float() const { return type == DataType::kFloat64; }
  double as_double() const { return is_float() ? f : static_cast<double>(i); }
  std::int64_t as_int() const { return is_float() ? static_cast<std::int64_t>(f) : i; }
  bool as_bool() const { return is_float() ? f != 0.0 : i != 0; }

  friend bool operator==(const Value& a, const Value& b) {
    if (a.is_float() || b.is_float()) return a.as_double() == b.as_double();
    return a.i == b.i;
  }
  friend bool operator<(const Value& a, const Value& b) {
    if (a.is_float() || b.is_float()) return a.as_double() < b.as_double();
    return a.i < b.i;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  friend bool operator<=(const Value& a, const Value& b) { return !(b < a); }
  friend bool operator>(const Value& a, const Value& b) { return b < a; }
  friend bool operator>=(const Value& a, const Value& b) { return !(a < b); }

  std::string ToString() const;
};

// Hash consistent with operator==: every value hashes as the double it
// converts to, so an integer and a double that compare equal hash alike.
// Distinct integers beyond 2^53 that round to one double share a hash (a
// collision, never a mismatch).
struct ValueHash {
  std::size_t operator()(const Value& v) const {
    if (v.is_float()) return std::hash<double>{}(v.f);
    return std::hash<double>{}(static_cast<double>(v.i));
  }
};

struct ValueEq {
  bool operator()(const Value& a, const Value& b) const { return a == b; }
};

// A single typed column. Copies share their rows: the typed vector sits
// behind a reference count, and only a mutating member (Reserve, Append,
// Clear and the non-const typed accessors) detaches. It copies the rows
// first when another Column still shares them (Clear just lets go of them).
// A `std::vector&` from a non-const accessor therefore writes this column
// only, as long as the column is not copied while the reference is held.
// A moved-from Column is an empty column of its type.
class Column {
 public:
  explicit Column(DataType type = DataType::kInt64) : type_(type) {}
  Column(const Column& other) noexcept;
  Column(Column&& other) noexcept;
  Column& operator=(const Column& other) noexcept;
  Column& operator=(Column&& other) noexcept;
  ~Column();

  DataType type() const { return type_; }
  std::size_t size() const;
  std::uint64_t byte_size() const { return size() * SizeOf(type_); }
  bool empty() const { return size() == 0; }

  void Reserve(std::size_t n);
  void Append(const Value& v);
  Value Get(std::size_t i) const;
  void Clear();

  // Typed access (throws on type mismatch).
  std::vector<std::int32_t>& AsInt32();
  const std::vector<std::int32_t>& AsInt32() const;
  std::vector<std::int64_t>& AsInt64();
  const std::vector<std::int64_t>& AsInt64() const;
  std::vector<double>& AsFloat64();
  const std::vector<double>& AsFloat64() const;

 private:
  using Vectors =
      std::variant<std::vector<std::int32_t>, std::vector<std::int64_t>, std::vector<double>>;
  struct Storage {
    explicit Storage(const Vectors& rows) : data(rows) {}
    std::atomic<std::size_t> refs{1};
    Vectors data;
  };

  // The rows of an empty column, indexed by DataType.
  static const Vectors kEmpty[];

  // The rows (an empty vector of the column's type while it holds none).
  const Vectors& Read() const;
  // The rows, owned by this column alone.
  Vectors& Write();
  // Gives this column its own copy of the rows.
  void Detach();
  void Release() noexcept;

  DataType type_;
  Storage* storage_ = nullptr;  // null: no rows yet
};

}  // namespace kf::relational

#endif  // KF_RELATIONAL_COLUMN_H_
