#include "relational/column.h"

#include <sstream>
#include <utility>

namespace kf::relational {

const char* ToString(DataType type) {
  switch (type) {
    case DataType::kInt32: return "i32";
    case DataType::kInt64: return "i64";
    case DataType::kFloat64: return "f64";
  }
  return "?";
}

std::size_t SizeOf(DataType type) {
  switch (type) {
    case DataType::kInt32: return 4;
    case DataType::kInt64: return 8;
    case DataType::kFloat64: return 8;
  }
  return 0;
}

std::string Value::ToString() const {
  std::ostringstream os;
  if (is_float()) {
    os << f;
  } else {
    os << i;
  }
  return os.str();
}

Column::Column(const Column& other) noexcept
    : type_(other.type_), storage_(other.storage_) {
  if (storage_ != nullptr) storage_->refs.fetch_add(1, std::memory_order_relaxed);
}

Column::Column(Column&& other) noexcept
    : type_(other.type_), storage_(std::exchange(other.storage_, nullptr)) {}

Column& Column::operator=(const Column& other) noexcept {
  return *this = Column(other);
}

Column& Column::operator=(Column&& other) noexcept {
  if (this != &other) {
    Release();
    type_ = other.type_;
    storage_ = std::exchange(other.storage_, nullptr);
  }
  return *this;
}

Column::~Column() { Release(); }

void Column::Release() noexcept {
  if (storage_ != nullptr && storage_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete storage_;
  }
  storage_ = nullptr;
}

// Constant-initialized, so reads of an empty column pay no static guard.
constinit const Column::Vectors Column::kEmpty[] = {
    std::vector<std::int32_t>{}, std::vector<std::int64_t>{}, std::vector<double>{}};

const Column::Vectors& Column::Read() const {
  return storage_ != nullptr ? storage_->data : kEmpty[static_cast<std::size_t>(type_)];
}

Column::Vectors& Column::Write() {
  // The acquire load makes every other owner's last read of the rows happen
  // before a sole owner writes them (their release is the decrement).
  if (storage_ == nullptr || storage_->refs.load(std::memory_order_acquire) != 1) Detach();
  return storage_->data;
}

void Column::Detach() {
  auto* own = new Storage(Read());
  Release();
  storage_ = own;
}

std::size_t Column::size() const {
  return std::visit([](const auto& v) { return v.size(); }, Read());
}

void Column::Reserve(std::size_t n) {
  std::visit([n](auto& v) { v.reserve(n); }, Write());
}

void Column::Clear() { Release(); }

void Column::Append(const Value& v) {
  switch (type_) {
    case DataType::kInt32:
      std::get<std::vector<std::int32_t>>(Write()).push_back(
          static_cast<std::int32_t>(v.as_int()));
      break;
    case DataType::kInt64:
      std::get<std::vector<std::int64_t>>(Write()).push_back(v.as_int());
      break;
    case DataType::kFloat64:
      std::get<std::vector<double>>(Write()).push_back(v.as_double());
      break;
  }
}

Value Column::Get(std::size_t i) const {
  switch (type_) {
    case DataType::kInt32:
      return Value::Int32(std::get<std::vector<std::int32_t>>(Read()).at(i));
    case DataType::kInt64:
      return Value::Int64(std::get<std::vector<std::int64_t>>(Read()).at(i));
    case DataType::kFloat64:
      return Value::Float64(std::get<std::vector<double>>(Read()).at(i));
  }
  return {};
}

std::vector<std::int32_t>& Column::AsInt32() {
  KF_REQUIRE(type_ == DataType::kInt32) << "column is " << kf::relational::ToString(type_);
  return std::get<std::vector<std::int32_t>>(Write());
}
const std::vector<std::int32_t>& Column::AsInt32() const {
  KF_REQUIRE(type_ == DataType::kInt32) << "column is " << kf::relational::ToString(type_);
  return std::get<std::vector<std::int32_t>>(Read());
}
std::vector<std::int64_t>& Column::AsInt64() {
  KF_REQUIRE(type_ == DataType::kInt64) << "column is " << kf::relational::ToString(type_);
  return std::get<std::vector<std::int64_t>>(Write());
}
const std::vector<std::int64_t>& Column::AsInt64() const {
  KF_REQUIRE(type_ == DataType::kInt64) << "column is " << kf::relational::ToString(type_);
  return std::get<std::vector<std::int64_t>>(Read());
}
std::vector<double>& Column::AsFloat64() {
  KF_REQUIRE(type_ == DataType::kFloat64) << "column is " << kf::relational::ToString(type_);
  return std::get<std::vector<double>>(Write());
}
const std::vector<double>& Column::AsFloat64() const {
  KF_REQUIRE(type_ == DataType::kFloat64) << "column is " << kf::relational::ToString(type_);
  return std::get<std::vector<double>>(Read());
}

}  // namespace kf::relational
