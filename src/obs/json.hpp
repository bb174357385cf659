// Mini JSON reader shared by the offline obs tooling (trace collection and
// merge in obs/collect, cost-profile merge/diff in obs/profile), plus the
// one string escaper every obs JSON writer uses. Only what those schemas
// need: objects, arrays, strings, numbers, bools, null.
// Unsigned integer literals keep full 64-bit precision (trace/span ids and
// nanosecond totals do not survive a double round-trip).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/result.hpp"

namespace csaw::obs::minijson {

struct Json {
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::uint64_t uint_value = 0;  // exact value when `integral`
  bool integral = false;
  std::string str;
  std::vector<Json> items;                            // kArray
  std::vector<std::pair<std::string, Json>> fields;   // kObject, file order

  [[nodiscard]] const Json* find(std::string_view key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] std::uint64_t u64_or(std::string_view key,
                                     std::uint64_t def) const;
  [[nodiscard]] double num_or(std::string_view key, double def) const;
  [[nodiscard]] std::string_view str_or(std::string_view key,
                                        std::string_view def) const;
};

// Parses one complete JSON value; trailing non-whitespace bytes are an
// Errc::kDecode error, as is any malformed input (never UB).
Result<Json> parse(std::string_view text);

// Writes `s` as a quoted JSON string literal (control bytes escaped).
void write_string(std::ostream& os, std::string_view s);

}  // namespace csaw::obs::minijson
