/**
 * @file
 * The flat JSON of FaultSpec and FleetFaultSpec (toJson/fromJson):
 * one `"key": number` pair per line, looked up by key.  Internal to
 * snap_fault.
 */

#ifndef SNAP_FAULT_SPEC_JSON_HH
#define SNAP_FAULT_SPEC_JSON_HH

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

#include "common/strutil.hh"

namespace snap
{
namespace specjson
{

inline void
jsonNum(std::ostringstream &os, const char *key, double v, bool comma)
{
    os << "  \"" << key << "\": " << formatString("%.17g", v)
       << (comma ? "," : "") << "\n";
}

/// Start of the value after `"key":` in @p text, or null when the
/// key is absent.
inline const char *
jsonValue(const std::string &text, const char *key)
{
    std::string needle = std::string("\"") + key + "\"";
    std::size_t pos = text.find(needle);
    if (pos == std::string::npos)
        return nullptr;
    pos += needle.size();
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == ':'))
        ++pos;
    return text.c_str() + pos;
}

/// Find `"key"` in @p text and parse the number after the colon.
/// Returns false when the key is absent, sets *bad when present but
/// malformed.
inline bool
jsonFind(const std::string &text, const char *key, double &out, bool *bad)
{
    const char *p = jsonValue(text, key);
    if (!p)
        return false;
    char *end = nullptr;
    double v = std::strtod(p, &end);
    if (end == p) {
        *bad = true;
        return false;
    }
    out = v;
    return true;
}

/// Exact unsigned-64 variant: a double round-trip would shave the low
/// bits off any seed above 2^53.  A minus sign is malformed, because
/// strtoull would wrap "-1" to 2^64 - 1.
inline bool
jsonFindU64(const std::string &text, const char *key,
            std::uint64_t &out, bool *bad)
{
    const char *p = jsonValue(text, key);
    if (!p)
        return false;
    while (std::isspace(static_cast<unsigned char>(*p)))
        ++p;
    char *end = nullptr;
    std::uint64_t v = std::strtoull(p, &end, 10);
    if (end == p || *p == '-') {
        *bad = true;
        return false;
    }
    out = v;
    return true;
}

} // namespace specjson
} // namespace snap

#endif // SNAP_FAULT_SPEC_JSON_HH
