/**
 * @file
 * Shared little-endian wire format helpers for on-disk artifacts.
 *
 * The persistent artifact store and the checkpoint files share one
 * container (persist/durable.hh) built on this byte discipline:
 * explicit little-endian integers written byte-by-byte (so files are
 * portable across host endianness), a bounds-checked reader with a
 * sticky failure flag (so a truncated or corrupt file can never read
 * out of bounds — it just goes !ok), and CRC-32 for integrity.
 */

#ifndef EL_SUPPORT_WIRE_HH
#define EL_SUPPORT_WIRE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace el::wire
{

/** Append-only little-endian byte writer. */
struct Writer
{
    std::vector<uint8_t> buf;

    void
    u8(uint8_t v)
    {
        buf.push_back(v);
    }

    void
    u16(uint16_t v)
    {
        for (int i = 0; i < 2; ++i)
            buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void i8(int8_t v) { u8(static_cast<uint8_t>(v)); }
    void i16(int16_t v) { u16(static_cast<uint16_t>(v)); }
    void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }

    void
    bytes(const void *data, size_t n)
    {
        const uint8_t *p = static_cast<const uint8_t *>(data);
        buf.insert(buf.end(), p, p + n);
    }
};

/** Bounds-checked little-endian reader; sticky failure flag. */
struct Reader
{
    const uint8_t *p = nullptr;
    size_t n = 0;
    size_t off = 0;
    bool ok = true;

    Reader(const uint8_t *data, size_t len) : p(data), n(len) {}

    /** Unread bytes left (0 when the failure flag latched). */
    size_t remaining() const { return ok ? n - off : 0; }

    bool
    need(size_t k)
    {
        if (!ok || n - off < k) {
            ok = false;
            return false;
        }
        return true;
    }

    uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return p[off++];
    }

    uint16_t
    u16()
    {
        if (!need(2))
            return 0;
        uint16_t v = 0;
        for (int i = 0; i < 2; ++i)
            v |= static_cast<uint16_t>(p[off++]) << (8 * i);
        return v;
    }

    uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(p[off++]) << (8 * i);
        return v;
    }

    uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(p[off++]) << (8 * i);
        return v;
    }

    int8_t i8() { return static_cast<int8_t>(u8()); }
    int16_t i16() { return static_cast<int16_t>(u16()); }
    int32_t i32() { return static_cast<int32_t>(u32()); }
    int64_t i64() { return static_cast<int64_t>(u64()); }
    bool b() { return u8() != 0; }

    bool
    bytes(void *out, size_t k)
    {
        if (!need(k))
            return false;
        uint8_t *dst = static_cast<uint8_t *>(out);
        for (size_t i = 0; i < k; ++i)
            dst[i] = p[off++];
        return true;
    }
};

/** CRC-32 (IEEE 802.3 polynomial, table-driven). Pass a previous
 *  result as @p crc to extend it over one more range. */
inline uint32_t
crc32(const uint8_t *data, size_t n, uint32_t crc = 0)
{
    static uint32_t table[256];
    static bool init = false;
    if (!init) {
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            table[i] = c;
        }
        init = true;
    }
    uint32_t c = crc ^ 0xffffffffu;
    for (size_t i = 0; i < n; ++i)
        c = table[(c ^ data[i]) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

/** FNV-1a's 64-bit offset basis: the hash of no bytes. */
constexpr uint64_t fnv1a_basis = 0xcbf29ce484222325ULL;

/** FNV-1a over a byte range, chainable through @p h. */
inline uint64_t
fnv1a(const void *data, size_t n, uint64_t h = fnv1a_basis)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace el::wire

#endif // EL_SUPPORT_WIRE_HH
