/**
 * @file
 * The one byte codec: the shard wire protocol and the .kbimg snapshot
 * format both encode and decode through it.
 *
 * Little-endian, explicit-shift encoding: a WireWriter appends into a
 * growable byte vector, a WireReader walks an untrusted buffer with
 * bounds checks on every access and never throws — a decode failure
 * flips the reader into a sticky error state the decoder checks once
 * at the end.  Every element count read from untrusted bytes goes
 * through WireReader::count(), which rejects a count the bytes left
 * cannot hold before anything is allocated for it.  A varint (7 bits
 * per byte, low group first) has exactly one encoding: the reader
 * refuses a truncated one and one longer than its value needs.
 */

#ifndef SNAP_COMMON_WIRE_FORMAT_HH
#define SNAP_COMMON_WIRE_FORMAT_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace snap
{

/** FNV-1a 64-bit over a byte range (checksums, routing and identity
 *  hashing). */
inline std::uint64_t
fnv1a64(const void *data, std::size_t n,
        std::uint64_t h = 0xcbf29ce484222325ull)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

inline std::uint64_t
fnv1a64(const std::string &s)
{
    return fnv1a64(s.data(), s.size());
}

/** Append-only little-endian encoder. */
class WireWriter
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(v); }

    void
    u16(std::uint16_t v)
    {
        buf_.push_back(static_cast<std::uint8_t>(v));
        buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    f32(float v)
    {
        std::uint32_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u32(bits);
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    /** @p v in 1 to 10 bytes of 7 bits, low group first; every byte
     *  but the last has its top bit set. */
    void
    varint(std::uint64_t v)
    {
        while (v >= 0x80) {
            buf_.push_back(static_cast<std::uint8_t>(v | 0x80));
            v >>= 7;
        }
        buf_.push_back(static_cast<std::uint8_t>(v));
    }

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }
    std::size_t size() const { return buf_.size(); }
    void reserve(std::size_t n) { buf_.reserve(n); }

  private:
    std::vector<std::uint8_t> buf_;
};

/** Bounds-checked little-endian decoder with a sticky error flag. */
class WireReader
{
  public:
    WireReader(const std::uint8_t *data, std::size_t n)
        : data_(data), end_(n)
    {}

    explicit WireReader(const std::vector<std::uint8_t> &buf)
        : data_(buf.data()), end_(buf.size())
    {}

    std::uint8_t
    u8()
    {
        if (pos_ + 1 > end_)
            return fail8();
        return data_[pos_++];
    }

    std::uint16_t
    u16()
    {
        if (pos_ + 2 > end_)
            return fail8();
        std::uint16_t v = static_cast<std::uint16_t>(
            data_[pos_] | (data_[pos_ + 1] << 8));
        pos_ += 2;
        return v;
    }

    std::uint32_t
    u32()
    {
        if (pos_ + 4 > end_)
            return fail8();
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
        pos_ += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        if (pos_ + 8 > end_)
            return fail8();
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
        pos_ += 8;
        return v;
    }

    float
    f32()
    {
        std::uint32_t bits = u32();
        float v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    double
    f64()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str(std::uint32_t max_len = 1u << 24)
    {
        std::uint32_t n = u32();
        if (n > max_len || pos_ + n > end_) {
            fail8();
            return std::string();
        }
        std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
        pos_ += n;
        return s;
    }

    /**
     * A varint as WireWriter::varint writes it.  A truncated one, or
     * one longer than its value needs (a last byte of 0 after the
     * first, or bits past the 64th), fails the reader and reads as 0.
     */
    std::uint64_t
    varint()
    {
        std::uint64_t v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            if (pos_ >= end_)
                return fail8();
            const std::uint8_t b = data_[pos_++];
            v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if (b < 0x80) {
                if ((b == 0 && shift > 0) || (shift == 63 && b > 1))
                    return fail8();
                return v;
            }
        }
        return fail8();
    }

    /**
     * An element count: a u32 that must fit in the bytes left when
     * each element takes at least @p min_elem_bytes (> 0).  A larger
     * count fails the reader (sticky) and reads as 0, so a caller may
     * reserve() what this returns before checking failed().
     */
    std::uint32_t
    count(std::size_t min_elem_bytes)
    {
        const std::uint32_t n = u32();
        if (n > remaining() / min_elem_bytes)
            return fail8();
        return n;
    }

    /** True once any read ran past the buffer or a count did not fit
     *  (sticky). */
    bool failed() const { return failed_; }
    /** Decode success: no overrun AND the frame was fully consumed. */
    bool done() const { return !failed_ && pos_ == end_; }
    std::size_t remaining() const { return end_ - pos_; }

    /** Raw buffer access for trailing-checksum verification: the
     *  bytes consumed so far are data()[0 .. pos()). */
    const std::uint8_t *data() const { return data_; }
    std::size_t pos() const { return pos_; }

  private:
    std::uint8_t
    fail8()
    {
        failed_ = true;
        return 0;
    }

    const std::uint8_t *data_;
    std::size_t pos_ = 0;
    std::size_t end_;
    bool failed_ = false;
};

} // namespace snap

#endif // SNAP_COMMON_WIRE_FORMAT_HH
