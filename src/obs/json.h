// A minimal JSON document model for the observability layer.
//
// The benchmark harnesses serialize their series and the metrics registry
// into machine-readable files (`BENCH_<name>.json`), and `tools/bench_compare`
// reads those files back to gate CI on regressions. The repo deliberately has
// no third-party JSON dependency, so this header provides the small value
// type both sides share: parse, navigate, mutate, and dump with stable
// (sorted-key, fixed-format) output so committed baselines diff cleanly.
#ifndef KF_OBS_JSON_H_
#define KF_OBS_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace kf::obs {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  // std::map keeps object keys sorted, which makes Dump() deterministic —
  // a requirement for committed baselines and golden tests.
  using Object = std::map<std::string, Json>;

  Json() : type_(Type::kNull) {}
  Json(bool value) : type_(Type::kBool), bool_(value) {}  // NOLINT(runtime/explicit)
  Json(double value) : type_(Type::kNumber), number_(value) {}
  Json(int value) : Json(static_cast<double>(value)) {}
  Json(std::int64_t value) : Json(static_cast<double>(value)) {}
  Json(std::uint64_t value) : Json(static_cast<double>(value)) {}
  Json(const char* value) : type_(Type::kString), string_(value) {}
  Json(std::string value) : type_(Type::kString), string_(std::move(value)) {}
  Json(Array value) : type_(Type::kArray), array_(std::move(value)) {}
  Json(Object value) : type_(Type::kObject), object_(std::move(value)) {}

  static Json MakeArray() { return Json(Array{}); }
  static Json MakeObject() { return Json(Object{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // Typed accessors; throw kf::Error on type mismatch.
  bool bool_value() const;
  double number() const;
  const std::string& str() const;
  const Array& array() const;
  Array& array();
  const Object& object() const;
  Object& object();

  // Object field access. The const form throws on a missing key; `Find`
  // returns nullptr instead.
  Json& operator[](const std::string& key);
  const Json& at(const std::string& key) const;
  const Json* Find(const std::string& key) const;
  bool Has(const std::string& key) const { return Find(key) != nullptr; }

  // Array element access (bounds-checked).
  const Json& at(std::size_t index) const;
  void push_back(Json value);
  std::size_t size() const;

  bool operator==(const Json& other) const;
  bool operator!=(const Json& other) const { return !(*this == other); }

  // Serializes the document. `indent < 0` produces compact single-line
  // output; `indent >= 0` pretty-prints with that many spaces per level.
  // Numbers that hold integral values in the exactly-representable range
  // print without a decimal point.
  std::string Dump(int indent = -1) const;

  // Parses a complete JSON document; throws kf::InvalidArgument with an
  // offset-tagged message on malformed input, trailing garbage, or arrays
  // and objects nested more than 256 levels deep.
  static Json Parse(const std::string& text);

 private:
  void DumpTo(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace kf::obs

#endif  // KF_OBS_JSON_H_
