/**
 * @file
 * The translation code cache.
 *
 * Holds the IPF instructions emitted by the translator. Instruction
 * addresses are indices into one growing vector (a simulator-friendly
 * stand-in for a real code cache's byte addresses). Supports the two
 * patching operations the paper describes:
 *  - converting an exit-to-translator stub into a direct branch once the
 *    target block is translated ("connect predecessors"), and
 *  - invalidating a block (SMC / misalignment regeneration / GC) by
 *    turning its entry into a Resync exit.
 *
 * The cache can be bounded: setCapacity() installs a cap, exhausted()
 * reports when the next translation would not fit (or when the
 * fault-injection harness forces synthetic exhaustion), and flushAll()
 * implements the generation-style GC — drop everything, bump the
 * generation counter, and let the translator rebuild from scratch.
 * Stale cache indices from older generations are detected by comparing
 * generation() before and after any call that may translate.
 */

#ifndef EL_IPF_CODE_CACHE_HH
#define EL_IPF_CODE_CACHE_HH

#include <cstdint>
#include <vector>

#include "ipf/insn.hh"

namespace el::ipf
{

/** Growing container of translated IPF code with patch support. */
class CodeCache
{
  public:
    /** Append one instruction; returns its index. */
    int64_t
    emit(const Instr &instr)
    {
        code_.push_back(instr);
        if (code_.size() > high_water_)
            high_water_ = code_.size();
        return static_cast<int64_t>(code_.size()) - 1;
    }

    /** Current end-of-cache index (where the next block will start). */
    int64_t nextIndex() const { return static_cast<int64_t>(code_.size()); }

    size_t size() const { return code_.size(); }

    const Instr &at(int64_t idx) const { return code_[idx]; }
    Instr &at(int64_t idx) { return code_[idx]; }

    /**
     * Patch the exit stub at @p idx into a direct branch to @p target.
     * Used when a block's successor becomes available.
     */
    void patchToBranch(int64_t idx, int64_t target);

    /**
     * Invalidate the block entry at @p idx: further executions exit to
     * the translator with @p reason.
     */
    void invalidateEntry(int64_t idx, ExitReason reason, int64_t payload);

    // ----- bounded-cache support (flush-and-retranslate GC) -----------

    /** Install a capacity in instructions; 0 means unbounded. */
    void setCapacity(size_t cap) { capacity_ = cap; }
    size_t capacity() const { return capacity_; }

    /**
     * Would a translation needing up to @p headroom instructions
     * overflow the cap? Also true when the fault-injection harness
     * forces synthetic exhaustion (FaultSite::CacheExhaust).
     */
    bool exhausted(size_t headroom);

    /** True once the cap itself has been crossed (hard overflow). */
    bool
    overCapacity() const
    {
        return capacity_ != 0 && code_.size() > capacity_;
    }

    /** Drop all translated code and start a new generation. */
    void flushAll();

    /** Generation counter, bumped by every flushAll(). */
    uint64_t generation() const { return generation_; }

    /** Largest size ever reached (never reset by flushes). */
    size_t highWater() const { return high_water_; }

    // ----- asynchronous publication (hot-translation pipeline) --------

    /**
     * Publish a block staged in a private cache: append every staged
     * instruction after rebasing its intra-block branch/chk targets and
     * stamping @p final_block_id into the metadata. The append happens
     * only if the cache is still at @p expected_generation — a staged
     * translation raced by a flushAll() GC must be discarded, never
     * spliced into the new generation. Returns the base index of the
     * published code, or -1 when the generation moved.
     *
     * Like every other mutation of the shared cache, publication runs
     * on the runtime's thread: hot-pipeline workers write only their
     * private staging caches.
     */
    int64_t publish(const CodeCache &staging,
                    uint64_t expected_generation,
                    int32_t final_block_id);

    /**
     * Generation-checked patchToBranch(): patches only when the cache
     * is still at @p expected_generation. Returns false when the exit
     * belongs to a dead generation.
     */
    bool patchToBranchChecked(int64_t idx, int64_t target,
                              uint64_t expected_generation);

  private:
    std::vector<Instr> code_;
    size_t capacity_ = 0;
    size_t high_water_ = 0;
    uint64_t generation_ = 0;
};

} // namespace el::ipf

#endif // EL_IPF_CODE_CACHE_HH
