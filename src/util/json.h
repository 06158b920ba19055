// JSON string escaping for the hand-written JSON writers (bench --json
// mirror, metrics snapshots, Chrome traces).
#ifndef BATON_UTIL_JSON_H_
#define BATON_UTIL_JSON_H_

#include <string>

namespace baton {

/// `s` escaped for use inside a JSON string literal: quote, backslash, \n
/// and \t get their short escapes, other control characters become \u00XX,
/// and every other byte passes through unchanged.
std::string JsonEscape(const std::string& s);

}  // namespace baton

#endif  // BATON_UTIL_JSON_H_
