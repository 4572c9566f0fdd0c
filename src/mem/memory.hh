/**
 * @file
 * Sparse, page-granular guest memory.
 *
 * A single Memory instance models the flat virtual address space shared by
 * the translated IA-32 application, the translator runtime data (lookup
 * tables, profile counters, speculation guards) and the IPF machine, just
 * as IA-32 EL shares the application's user address space on a real
 * system. The IA-32 side uses only the low 4 GiB; the runtime may allocate
 * anywhere.
 *
 * All accessors are little-endian and may span page boundaries. Accesses
 * to unmapped pages or accesses violating page permissions fail and report
 * the faulting address so the caller can raise a guest-visible fault.
 */

#ifndef EL_MEM_MEMORY_HH
#define EL_MEM_MEMORY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace el::mem
{

/** Page permissions, OR-able. */
enum Perm : uint8_t
{
    PermNone = 0,
    PermRead = 1,
    PermWrite = 2,
    PermExec = 4,
    PermRW = PermRead | PermWrite,
    PermRX = PermRead | PermExec,
    PermRWX = PermRead | PermWrite | PermExec,
};

/** Why a memory access failed. */
enum class AccessError
{
    None,       //!< Access succeeded.
    Unmapped,   //!< No page mapped at the address.
    Protection, //!< Page mapped without the needed permission.
};

/** Result of a memory access attempt. */
struct AccessResult
{
    AccessError error = AccessError::None;
    uint64_t fault_addr = 0; //!< First address that failed.

    bool ok() const { return error == AccessError::None; }
};

/**
 * Byte-granular undo/redo journal of guest-visible writes.
 *
 * The divergence sentinel arms one of these over a translated region so
 * it can (a) rewind memory to the checkpoint for an interpreter replay,
 * (b) compare the region's net memory effect against the oracle's, and
 * (c) re-apply the writes when the region verifies. Only *architectural*
 * stores are recorded — the permission-checked write path the guest
 * uses — never the runtime's privileged writes (writePriv), and never
 * writes inside the excluded window (the translator's runtime area,
 * which emitted glue code updates through guest-permission stores).
 */
struct WriteJournal
{
    struct Entry
    {
        uint64_t addr = 0;
        uint8_t old_byte = 0; //!< Value before the write.
        uint8_t new_byte = 0; //!< Value written.
    };

    std::vector<Entry> entries;
    uint64_t exclude_lo = 0; //!< [exclude_lo, exclude_hi) not recorded.
    uint64_t exclude_hi = 0;

    void clear() { entries.clear(); }
};

/** Sparse paged memory with permissions and code-page bookkeeping. */
class Memory
{
  public:
    static constexpr uint64_t page_size = 4096;

    Memory() = default;
    Memory(const Memory &) = delete;
    Memory &operator=(const Memory &) = delete;

    /**
     * Map [addr, addr+len) with permissions @p perm, zero-filled.
     * Remapping an existing page just updates its permissions.
     */
    void map(uint64_t addr, uint64_t len, Perm perm);

    /** Remove the mapping of every page overlapping [addr, addr+len). */
    void unmap(uint64_t addr, uint64_t len);

    /** Change permissions of mapped pages in [addr, addr+len). */
    void protect(uint64_t addr, uint64_t len, Perm perm);

    /** True if every byte of [addr, addr+len) is mapped with @p perm. */
    bool check(uint64_t addr, uint64_t len, Perm perm) const;

    /** Read @p len <= 8 bytes as a little-endian integer. */
    AccessResult read(uint64_t addr, unsigned len, uint64_t *out) const;

    /** Write the low @p len <= 8 bytes of @p value, little-endian. */
    AccessResult write(uint64_t addr, unsigned len, uint64_t value);

    /** Bulk read into @p out. */
    AccessResult readBytes(uint64_t addr, void *out, uint64_t len) const;

    /** Bulk write from @p src. */
    AccessResult writeBytes(uint64_t addr, const void *src, uint64_t len);

    /**
     * Fetch up to @p len instruction bytes into @p out; requires exec
     * permission on the starting page. Returns the number of bytes
     * copied (possibly short at a mapping boundary; 0 => fault).
     */
    uint64_t fetch(uint64_t addr, void *out, uint64_t len) const;

    /**
     * Privileged access used by the translator runtime and the loader:
     * ignores page permissions (but still requires the page to exist).
     */
    AccessResult readPriv(uint64_t addr, unsigned len, uint64_t *out) const;
    AccessResult writePriv(uint64_t addr, unsigned len, uint64_t value);

    /** Mark pages of [addr, addr+len) as containing translated-from code. */
    void markCode(uint64_t addr, uint64_t len);

    /** True if any page in [addr, addr+len) is marked as code. */
    bool isCode(uint64_t addr, uint64_t len) const;

    /**
     * Arm (or with null, disarm) the guest-write journal. At most one
     * journal is armed at a time; recording costs one predictable
     * branch per access when disarmed and never changes access results.
     */
    void setWriteJournal(WriteJournal *journal) { journal_ = journal; }

    /** Rewind every journaled write, newest first (journal disarmed by
     *  the caller; entries are preserved for a later redo). */
    void undoJournal(const WriteJournal &journal);

    /** Re-apply every journaled write, oldest first. */
    void redoJournal(const WriteJournal &journal);

    // ----- checkpoint support ---------------------------------------

    /**
     * Clear every page's dirty bit. The checkpointer calls this right
     * after guest::load on both cold and resume paths: "dirty" then
     * means "no longer derivable by reloading the image", which is
     * exactly the set of pages a checkpoint must carry data for.
     */
    void clearDirty();

    /**
     * Visit every mapped page in unspecified order:
     * fn(page_addr, perm, has_code, dirty, data).
     */
    void forEachPage(
        const std::function<void(uint64_t, Perm, bool, bool,
                                 const std::vector<uint8_t> &)> &fn) const;

    /**
     * Re-create one page from a checkpoint: map it with @p perm, set
     * the code mark, and when @p data is non-null copy a full page of
     * bytes in (marking it dirty). Null @p data means the page was
     * clean at capture — its image-loaded contents are already right.
     */
    void restorePage(uint64_t page_addr, Perm perm, bool has_code,
                     const uint8_t *data);

  private:
    struct Page
    {
        std::vector<uint8_t> data;
        Perm perm = PermNone;
        bool has_code = false;
        bool dirty = false; //!< Written since the last clearDirty().

        Page() : data(page_size, 0) {}
    };

    Page *find(uint64_t addr);
    const Page *find(uint64_t addr) const;

    /** Generic access walker shared by the typed accessors. */
    AccessResult access(uint64_t addr, void *buf, uint64_t len, bool write,
                        bool check_perm, Perm perm);
    AccessResult accessConst(uint64_t addr, void *buf, uint64_t len,
                             bool check_perm, Perm perm) const;

    std::unordered_map<uint64_t, std::unique_ptr<Page>> pages_;
    WriteJournal *journal_ = nullptr; //!< Null = no recording.
};

} // namespace el::mem

#endif // EL_MEM_MEMORY_HH
