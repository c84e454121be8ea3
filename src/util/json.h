#ifndef FARMER_UTIL_JSON_H_
#define FARMER_UTIL_JSON_H_

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace farmer {
namespace json {

/// One parsed JSON value: a tagged tree of objects, arrays, strings,
/// numbers, booleans and null.
struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value, std::less<>> object;

  /// The member named `key`; null when absent or not an object.
  const Value* Find(std::string_view key) const;
};

/// Nesting deeper than this is rejected, so hostile input cannot blow
/// the stack.
inline constexpr int kMaxDepth = 8;

/// Strict parse of one complete document: false on malformed JSON,
/// trailing bytes, raw control bytes in strings, duplicate object keys,
/// non-finite numbers, surrogate \u escapes, or nesting past kMaxDepth.
/// \u escapes decode to UTF-8. Parse failures carry no position.
bool Parse(std::string_view text, Value* out);

}  // namespace json
}  // namespace farmer

#endif  // FARMER_UTIL_JSON_H_
