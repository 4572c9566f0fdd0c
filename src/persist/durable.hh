/**
 * @file
 * The one on-disk container every persistent artifact uses, its
 * scanner, and the crash-durable ways to write it.
 *
 * A container is a header followed by CRC-framed records:
 *
 *   header: u32 magic "ELPS" | u32 format_version | u32 flags
 *           | u64 image_hash | u64 opts_hash | u32 entry
 *           | u32 compacted (frames the last whole-file write holds)
 *   frame:  u32 magic "FRME" | u8 kind | u32 len | u32 crc | payload
 *
 * where crc is the CRC-32 of the kind byte followed by the payload.
 * The artifact store (`.elstore`) is a log in this format: compaction
 * rewrites it as a header plus one Add frame per live record, and a
 * run appends Add/Drop frames behind those; the appended frames are
 * the store's journal. A checkpoint (`.elckpt`) is a header plus one
 * Checkpoint frame.
 *
 * Whole-file writes are published by writeFileDurable (temp + fsync +
 * atomic rename + directory fsync), so a reader never observes a
 * half-written file. Appends go through writeSynced, so a kill leaves
 * at most one torn frame at the end of the file, which the scanner
 * reports as a truncation and every frame before it survives.
 */

#ifndef EL_PERSIST_DURABLE_HH
#define EL_PERSIST_DURABLE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/faultinject.hh"
#include "support/wire.hh"

namespace el::persist
{

/** On-disk format version of every container; bump on any layout
 *  change (fingerprintOf hashes it, so old files simply miss). */
constexpr uint32_t format_version = 2;

/** Identity of a container: which image + translator configuration. */
struct Fingerprint
{
    uint64_t image_hash = 0; //!< Checksum of all sections + entry.
    uint64_t opts_hash = 0;  //!< Emission-relevant options + version.
    uint32_t entry = 0;      //!< Guest entry point (redundant, human-
                             //!< checkable in the filename).

    bool
    operator==(const Fingerprint &o) const
    {
        return image_hash == o.image_hash && opts_hash == o.opts_hash &&
               entry == o.entry;
    }

    /** Filename-safe rendering ("\<image\>-\<opts\>-\<entry\>"). */
    std::string hex() const;
};

/** What a frame carries. */
enum class FrameKind : uint8_t
{
    Add = 0,        //!< One store record.
    Drop = 1,       //!< A store deletion: u32 entry EIP.
    Checkpoint = 2, //!< One guest checkpoint image.
};

/** Header flag: the store was validated and sealed by `el_aot`. */
constexpr uint32_t flag_sealed = 1u << 0;

/** Header size in bytes. */
constexpr size_t header_bytes = 4 + 4 + 4 + 8 + 8 + 4 + 4;

/** Append a container header for @p fp to @p w. */
void putHeader(wire::Writer &w, const Fingerprint &fp, uint32_t flags,
               uint32_t compacted);

/** Append one CRC-framed record to @p w. */
void putFrame(wire::Writer &w, FrameKind kind,
              const std::vector<uint8_t> &payload);

/** How a scan ended. */
enum class ScanEnd : uint8_t
{
    Clean,     //!< The bytes end on a frame boundary past the prefix.
    Truncated, //!< The bytes stop inside a frame or inside the prefix.
    BadFrame,  //!< A frame magic is wrong; nothing past it is framed.
    BadHeader, //!< Short header, or wrong magic, version or flags.
    Foreign,   //!< A valid header for another fingerprint.
};

/** One frame whose CRC held; the payload points into the scanned
 *  buffer. */
struct Frame
{
    FrameKind kind = FrameKind::Add; //!< May hold an unknown value.
    const uint8_t *payload = nullptr;
    size_t size = 0;
    bool tail = false; //!< Past the header's compacted prefix.
};

/** What a scan found. */
struct Scan
{
    ScanEnd end = ScanEnd::BadHeader;
    uint32_t flags = 0;
    uint32_t compacted = 0;      //!< Header's compacted-prefix length.
    std::vector<Frame> frames;   //!< CRC-verified frames, file order.
    uint64_t crc_failures = 0;   //!< Framed but failed CRC (skipped).
};

/**
 * Scan @p buf as a container written for @p fp. Never reads out of
 * bounds. A frame that fails its CRC is skipped (its framing is
 * intact, so the next one may be fine); a bad frame magic or a cut
 * frame ends the scan, keeping every frame before it.
 */
Scan scanContainer(const std::vector<uint8_t> &buf,
                   const Fingerprint &fp);

/** Read the whole file at @p path; false when it cannot be opened. */
bool readFile(const std::string &path, std::vector<uint8_t> *out);

/**
 * Write @p n bytes to @p fd and fsync it. @p crash_site names the
 * CrashPoint consulted first: when it fires, only half the bytes are
 * written (durably — the OS could have written them at any time) and
 * the process _exit()s. Pass FaultSite::NumSites for no crash window.
 */
bool writeSynced(int fd, const uint8_t *data, size_t n,
                 FaultSite crash_site = FaultSite::NumSites);

/**
 * Atomically publish @p n bytes at @p path via `<path>.tmp`. Returns
 * false (with the temp file unlinked) on any I/O failure. The
 * @p crash_site window lies between the temp file's write and the
 * rename: a kill there leaves a half-written, unpublished temp file.
 */
bool writeFileDurable(const std::string &path, const uint8_t *data,
                      size_t n,
                      FaultSite crash_site = FaultSite::NumSites);

} // namespace el::persist

#endif // EL_PERSIST_DURABLE_HH
