#include "persist/durable.hh"

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <iterator>

#include <fcntl.h>
#include <unistd.h>

#include "support/strfmt.hh"

namespace el::persist
{

namespace
{

constexpr uint32_t file_magic = 0x53504c45u;  // "ELPS"
constexpr uint32_t frame_magic = 0x454d5246u; // "FRME"
constexpr size_t frame_header_bytes = 4 + 1 + 4 + 4;

// Far above anything the emitter or a checkpoint produces, low enough
// that a corrupt length can never drive a multi-gigabyte allocation.
constexpr size_t max_frame_bytes = 256u << 20;

uint32_t
frameCrc(uint8_t kind, const uint8_t *payload, size_t n)
{
    return wire::crc32(payload, n, wire::crc32(&kind, 1));
}

/** Directory part of @p path ("." when there is none). */
std::string
dirOf(const std::string &path)
{
    size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    if (slash == 0)
        return "/";
    return path.substr(0, slash);
}

bool
writeAll(int fd, const uint8_t *data, size_t n)
{
    size_t done = 0;
    while (done < n) {
        ssize_t w = ::write(fd, data + done, n - done);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<size_t>(w);
    }
    return true;
}

/** fsync the directory @p dir (best effort; false on failure). */
bool
fsyncDir(const std::string &dir)
{
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return false;
    bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
}

} // namespace

std::string
Fingerprint::hex() const
{
    return strfmt("%016llx-%016llx-%08x",
                  static_cast<unsigned long long>(image_hash),
                  static_cast<unsigned long long>(opts_hash),
                  static_cast<unsigned>(entry));
}

void
putHeader(wire::Writer &w, const Fingerprint &fp, uint32_t flags,
          uint32_t compacted)
{
    w.u32(file_magic);
    w.u32(format_version);
    w.u32(flags);
    w.u64(fp.image_hash);
    w.u64(fp.opts_hash);
    w.u32(fp.entry);
    w.u32(compacted);
}

void
putFrame(wire::Writer &w, FrameKind kind,
         const std::vector<uint8_t> &payload)
{
    uint8_t k = static_cast<uint8_t>(kind);
    w.u32(frame_magic);
    w.u8(k);
    w.u32(static_cast<uint32_t>(payload.size()));
    w.u32(frameCrc(k, payload.data(), payload.size()));
    w.bytes(payload.data(), payload.size());
}

Scan
scanContainer(const std::vector<uint8_t> &buf, const Fingerprint &fp)
{
    Scan s;
    wire::Reader r(buf.data(), buf.size());
    uint32_t magic = r.u32();
    uint32_t version = r.u32();
    s.flags = r.u32();
    Fingerprint got;
    got.image_hash = r.u64();
    got.opts_hash = r.u64();
    got.entry = r.u32();
    s.compacted = r.u32();
    if (!r.ok || magic != file_magic || version != format_version ||
        (s.flags & ~flag_sealed)) {
        s.end = ScanEnd::BadHeader;
        return s;
    }
    if (!(got == fp)) {
        // A different image/configuration: not corruption, just not
        // ours. Callers treat it exactly like an absent file.
        s.end = ScanEnd::Foreign;
        return s;
    }

    uint64_t index = 0; // Frames framed so far, CRC failures included.
    for (;; ++index) {
        if (r.remaining() == 0) {
            // A clean end on a frame boundary — unless the header
            // promised more compacted frames than the bytes hold: a
            // cut that landed exactly between two of them.
            s.end = index < s.compacted ? ScanEnd::Truncated
                                        : ScanEnd::Clean;
            return s;
        }
        if (r.remaining() < frame_header_bytes) {
            s.end = ScanEnd::Truncated;
            return s;
        }
        uint32_t fmagic = r.u32();
        uint8_t kind = r.u8();
        uint32_t len = r.u32();
        uint32_t crc = r.u32();
        if (fmagic != frame_magic) {
            // Corruption, not truncation: the stream is unframed past
            // this point and there is no way to resync.
            s.end = ScanEnd::BadFrame;
            return s;
        }
        if (len > max_frame_bytes || r.remaining() < len) {
            s.end = ScanEnd::Truncated;
            return s;
        }
        const uint8_t *payload = buf.data() + r.off;
        r.off += len;
        if (frameCrc(kind, payload, len) != crc) {
            ++s.crc_failures;
            continue;
        }
        s.frames.push_back({static_cast<FrameKind>(kind), payload, len,
                            index >= s.compacted});
    }
}

bool
readFile(const std::string &path, std::vector<uint8_t> *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    out->assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
    return true;
}

bool
writeSynced(int fd, const uint8_t *data, size_t n, FaultSite crash_site)
{
    // An injected crash tears the payload in half first, so recovery
    // code sees the worst case: bytes that are both incomplete and
    // already on disk.
    bool crash = crash_site != FaultSite::NumSites &&
                 faultInjected(crash_site);
    bool ok = writeAll(fd, data, crash ? n / 2 : n) && ::fsync(fd) == 0;
    if (crash)
        crashNow(crash_site);
    return ok;
}

bool
writeFileDurable(const std::string &path, const uint8_t *data, size_t n,
                 FaultSite crash_site)
{
    std::string tmp = path + ".tmp";
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;
    bool ok = writeSynced(fd, data, n, crash_site);
    ::close(fd);
    if (!ok) {
        ::unlink(tmp.c_str());
        return false;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        return false;
    }
    // The rename is only durable once the directory entry is: fsync
    // the parent. Failure here is reported but the file is published.
    return fsyncDir(dirOf(path));
}

} // namespace el::persist
