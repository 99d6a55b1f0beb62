/**
 * @file
 * Interned symbol tables for relation types, colors, and node names.
 *
 * SNAP programs and knowledge bases are written against symbolic
 * names; the hardware only sees dense numeric IDs (16-bit relation
 * types, 8-bit colors, 15-bit node IDs).  A SymbolTable provides the
 * bidirectional mapping with a hard capacity limit matching the
 * architectural field width.
 */

#ifndef SNAP_KB_SYMBOLS_HH
#define SNAP_KB_SYMBOLS_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"

namespace snap
{

/**
 * Bidirectional string <-> dense id mapping with a capacity cap.
 */
template <typename IdType>
class SymbolTable
{
  public:
    /**
     * @param kind human-readable kind for error messages
     * @param max_symbols architectural capacity of the id space
     */
    SymbolTable(std::string kind, std::uint32_t max_symbols)
        : kind_(std::move(kind)), maxSymbols_(max_symbols)
    {}

    /** Intern @p name, returning its id (existing or fresh). */
    IdType
    intern(const std::string &name)
    {
        auto it = ids_.find(name);
        if (it != ids_.end())
            return it->second;
        if (names_.size() >= maxSymbols_) {
            snap_fatal("%s table overflow: more than %u symbols "
                       "(adding '%s')", kind_.c_str(), maxSymbols_,
                       name.c_str());
        }
        auto id = static_cast<IdType>(names_.size());
        ids_.emplace(name, id);
        names_.push_back(name);
        return id;
    }

    /** Look up an existing symbol; fatal if absent. */
    IdType
    lookup(const std::string &name) const
    {
        auto it = ids_.find(name);
        if (it == ids_.end())
            snap_fatal("unknown %s '%s'", kind_.c_str(), name.c_str());
        return it->second;
    }

    /** Look up; returns false instead of dying. */
    bool
    tryLookup(const std::string &name, IdType &out) const
    {
        auto it = ids_.find(name);
        if (it == ids_.end())
            return false;
        out = it->second;
        return true;
    }

    /** Name of an id. */
    const std::string &
    name(IdType id) const
    {
        snap_assert(static_cast<std::size_t>(id) < names_.size(),
                    "%s id %u out of range", kind_.c_str(),
                    static_cast<unsigned>(id));
        return names_[id];
    }

    std::uint32_t
    size() const
    {
        return static_cast<std::uint32_t>(names_.size());
    }

    bool
    contains(const std::string &name) const
    {
        return ids_.count(name) != 0;
    }

    /** True when interning a new name would overflow. */
    bool full() const { return names_.size() >= maxSymbols_; }

    /** What the table names ("relation", "color", ...). */
    const std::string &kind() const { return kind_; }

  private:
    std::string kind_;
    std::uint32_t maxSymbols_;
    std::unordered_map<std::string, IdType> ids_;
    std::vector<std::string> names_;
};

} // namespace snap

#endif // SNAP_KB_SYMBOLS_HH
