#ifndef THEMIS_UTIL_STRING_UTIL_H_
#define THEMIS_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace themis {

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins `parts` with `delim`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view delim);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// ASCII lower-casing (SQL keywords are case-insensitive).
std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

/// True if `s` equals `t` ignoring ASCII case.
bool EqualsIgnoreCase(std::string_view s, std::string_view t);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...);

/// RFC-4180-style CSV field escaping: fields containing commas, quotes or
/// newlines are wrapped in double quotes with embedded quotes doubled
/// (bucket labels like "[0,30)" need this).
std::string CsvEscape(const std::string& field);

/// Splits one CSV line honoring double-quoted fields (inverse of
/// CsvEscape). Keeps empty fields. The readers parse whole files with
/// data::CsvParser; data_test keeps this line-at-a-time split as its
/// oracle.
std::vector<std::string> SplitCsvLine(std::string_view line);

}  // namespace themis

#endif  // THEMIS_UTIL_STRING_UTIL_H_
