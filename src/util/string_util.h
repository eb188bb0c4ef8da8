#ifndef SURVEYOR_UTIL_STRING_UTIL_H_
#define SURVEYOR_UTIL_STRING_UTIL_H_

#include <cstdarg>
#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace surveyor {

/// Transparent string hash: with `std::equal_to<>` it lets an
/// `unordered_map<std::string, V>` be probed by `std::string_view` without
/// building a key string.
struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view text) const noexcept {
    return std::hash<std::string_view>{}(text);
  }
};

/// Splits `text` on `delimiter`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char delimiter);

/// Splits `text` on runs of ASCII whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// Joins `parts` with `separator`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// ASCII lower-casing.
std::string ToLower(std::string_view text);

/// Strips leading and trailing ASCII whitespace.
std::string Trim(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace surveyor

#endif  // SURVEYOR_UTIL_STRING_UTIL_H_
