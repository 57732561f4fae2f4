// Strict command-line parsing for the end-to-end harness and compare tool.
//
// Every value must parse completely and be in range: "1abc", "nan", "inf",
// "-1" and a flag at the end of the line with no value are usage errors, not
// silently truncated or undefined conversions. A usage error prints the
// message and the usage text to stderr and exits with code 2; --help prints
// the usage text to stdout and exits 0.
#ifndef KF_BENCH_E2E_CLI_H_
#define KF_BENCH_E2E_CLI_H_

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace kf::bench::e2e {

// A finite double spelled completely by `text` (no trailing characters).
inline std::optional<double> ParseFiniteDouble(const std::string& text) {
  if (text.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

// A non-negative decimal integer spelled completely by `text`.
inline std::optional<std::uint64_t> ParseUint(const std::string& text) {
  std::uint64_t value = 0;
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (text.empty() || ec != std::errc() || ptr != last) return std::nullopt;
  return value;
}

class ArgParser {
 public:
  explicit ArgParser(std::string usage) : usage_(std::move(usage)) {}

  void AddString(const std::string& flag, std::string* out) {
    handlers_[flag] = [out](const std::string& v) {
      *out = v;
      return !v.empty();
    };
  }

  // Integer flag accepting values in [lo, hi].
  void AddUint(const std::string& flag, std::uint64_t* out, std::uint64_t lo,
               std::uint64_t hi) {
    handlers_[flag] = [=](const std::string& v) {
      const auto parsed = ParseUint(v);
      if (!parsed || *parsed < lo || *parsed > hi) return false;
      *out = *parsed;
      return true;
    };
  }

  // Finite double flag accepting values in (lo, hi].
  void AddPositive(const std::string& flag, double* out, double lo, double hi) {
    handlers_[flag] = [=](const std::string& v) {
      const auto parsed = ParseFiniteDouble(v);
      if (!parsed || !(*parsed > lo) || *parsed > hi) return false;
      *out = *parsed;
      return true;
    };
  }

  // Flag without a value.
  void AddSwitch(const std::string& flag, bool* out) { switches_[flag] = out; }

  // Remaining non-flag arguments, in order, go to `out`.
  void AddPositionals(std::vector<std::string>* out) { positionals_ = out; }

  void Parse(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        std::cout << usage_;
        std::exit(0);
      }
      if (auto s = switches_.find(arg); s != switches_.end()) {
        *s->second = true;
        continue;
      }
      auto h = handlers_.find(arg);
      if (h == handlers_.end()) {
        if (positionals_ != nullptr && arg.rfind("--", 0) != 0) {
          positionals_->push_back(arg);
          continue;
        }
        Fail("unknown argument '" + arg + "'");
      }
      if (i + 1 >= argc) Fail(arg + " requires a value");
      const std::string value = argv[++i];
      if (!h->second(value)) Fail("invalid value '" + value + "' for " + arg);
    }
  }

  [[noreturn]] void Fail(const std::string& message) const {
    std::cerr << "error: " << message << "\n" << usage_;
    std::exit(2);
  }

 private:
  std::string usage_;
  std::map<std::string, std::function<bool(const std::string&)>> handlers_;
  std::map<std::string, bool*> switches_;
  std::vector<std::string>* positionals_ = nullptr;
};

}  // namespace kf::bench::e2e

#endif  // KF_BENCH_E2E_CLI_H_
