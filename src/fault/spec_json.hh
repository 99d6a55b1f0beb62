/**
 * @file
 * The flat JSON of FaultSpec and FleetFaultSpec (toJson/fromJson):
 * one object of `"key": number` pairs, one pair per line, in the
 * order of the spec's field table.  Internal to snap_fault.
 */

#ifndef SNAP_FAULT_SPEC_JSON_HH
#define SNAP_FAULT_SPEC_JSON_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>

#include "common/strutil.hh"

namespace snap
{
namespace specjson
{

/// One key of a spec and the field it names: a rate or magnitude
/// (`real`), or a seed or tick count kept exact (`exact`; a double
/// would shave the low bits off any value above 2^53).
struct Field
{
    const char *key;
    double *real = nullptr;
    std::uint64_t *exact = nullptr;
};

/// The object, one `"key": value` line per field.
inline std::string
write(std::span<const Field> fields)
{
    std::string out = "{\n";
    for (std::size_t i = 0; i < fields.size(); ++i) {
        const Field &f = fields[i];
        out += formatString("  \"%s\": ", f.key);
        out += f.exact ? std::to_string(*f.exact)
                       : formatString("%.17g", *f.real);
        out += i + 1 < fields.size() ? ",\n" : "\n";
    }
    return out + "}\n";
}

/// Read @p text as one flat object into @p fields.  Each key must be
/// one of @p fields and appear at most once; absent keys keep their
/// values.  Anything else is refused, with the reason in @p why when
/// it is not null: an unknown or repeated key, a missing colon or
/// comma, a malformed, non-finite or negative number, a count past
/// 2^64 - 1, or bytes after the closing brace.  A refusal may leave
/// some fields written, so read into a copy.
inline bool
read(const std::string &text, std::span<const Field> fields,
     std::string *why)
{
    auto refuse = [why](std::string reason) {
        if (why)
            *why = std::move(reason);
        return false;
    };
    const char *p = text.c_str();
    const char *const end = p + text.size();
    auto skipSpace = [&] {
        while (p < end && std::isspace(static_cast<unsigned char>(*p)))
            ++p;
    };
    // Step past @p c when it is the next byte that is not a blank.
    auto eat = [&](char c) {
        skipSpace();
        if (p == end || *p != c)
            return false;
        ++p;
        return true;
    };
    if (!eat('{'))
        return refuse("expected '{'");
    std::uint32_t seen = 0;
    for (bool more = !eat('}'); more;) {
        if (!eat('"'))
            return refuse("expected a quoted key");
        const char *key_start = p;
        while (p < end && *p != '"')
            ++p;
        if (p == end)
            return refuse("unterminated key");
        const std::string key(key_start, p++);
        std::size_t i = 0;
        while (i < fields.size() && key != fields[i].key)
            ++i;
        if (i == fields.size())
            return refuse("unknown key \"" + key + "\"");
        if (seen & (1u << i))
            return refuse("repeated key \"" + key + "\"");
        seen |= 1u << i;
        if (!eat(':'))
            return refuse("missing ':' after \"" + key + "\"");
        skipSpace();
        char *stop = nullptr;
        errno = 0;
        if (fields[i].exact) {
            // A minus sign is refused here: strtoull would wrap "-1"
            // to 2^64 - 1.
            if (p == end || !std::isdigit(static_cast<unsigned char>(*p)))
                return refuse("\"" + key +
                              "\" must be a non-negative integer");
            *fields[i].exact = std::strtoull(p, &stop, 10);
            if (errno == ERANGE)
                return refuse("\"" + key + "\" is past 2^64 - 1");
        } else {
            *fields[i].real = std::strtod(p, &stop);
            if (stop == p || !std::isfinite(*fields[i].real))
                return refuse("\"" + key + "\" must be a finite number");
        }
        p = stop;
        more = eat(',');
        if (!more && !eat('}'))
            return refuse("expected ',' or '}' after \"" + key + "\"");
    }
    skipSpace();
    if (p != end)
        return refuse("bytes after the closing '}'");
    return true;
}

} // namespace specjson
} // namespace snap

#endif // SNAP_FAULT_SPEC_JSON_HH
