/**
 * @file
 * The IPF machine model: functional execution plus cycle-approximate
 * EPIC timing.
 *
 * Functional side: 128 general registers with NaT bits, 64 FP registers,
 * 64 predicates, 8 branch registers. Instructions execute sequentially,
 * but the scheduler guarantees no intra-group dependencies, so sequential
 * execution equals the architectural parallel semantics (a debug mode
 * verifies this property).
 *
 * Timing side: instruction groups delimited by stop bits issue in order;
 * a group occupies max(structural, 1) cycles and stalls until its source
 * registers' producing latencies have elapsed. Memory operations consult
 * the Itanium-2-like cache model. Misaligned accesses take the
 * OS-assisted fault path and cost thousands of cycles (section 5's
 * premise). Every cycle is attributed to the executing instruction's
 * bucket (hot/cold/overhead/native/idle) so Figures 6 and 7 are measured
 * rather than assumed.
 *
 * Control speculation: ld.s defers faults by setting the target's NaT
 * bit; NaT propagates through ALU ops; chk.s branches to recovery code
 * when it sees a NaT. This is the hardware mechanism section 4's commit
 * points lean on.
 */

#ifndef EL_IPF_MACHINE_HH
#define EL_IPF_MACHINE_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "ipf/code_cache.hh"
#include "ipf/regs.hh"
#include "mem/cache_model.hh"
#include "mem/memory.hh"
#include "support/ring.hh"

namespace el::prof
{
class Profiler;
} // namespace el::prof

namespace el::ipf
{

/** One FP register: an 82-bit-register model with two synchronized views. */
struct Fr
{
    long double val = 0.0L; //!< Scalar FP view.
    uint64_t bits = 0;      //!< Significand / packed view.
    bool is_bits = false;   //!< True when last written as raw bits.

    /** Write as a scalar FP value (keeps the significand view in sync). */
    void
    setVal(long double v)
    {
        val = v;
        std::memcpy(&bits, &v, 8); // x86 long double: significand first
        is_bits = false;
    }

    /** Write as raw 64-bit data (integer/packed content). */
    void
    setBits(uint64_t b)
    {
        bits = b;
        is_bits = true;
    }

    /**
     * Scalar FP view. When the register holds raw bits, assemble the
     * 80-bit pattern {sign=1, exp=all-ones, significand=bits}, matching
     * what an MMX write does to an aliased x87 register.
     */
    long double
    valView() const
    {
        if (!is_bits)
            return val;
        uint8_t raw[16] = {};
        std::memcpy(raw, &bits, 8);
        raw[8] = 0xff;
        raw[9] = 0xff;
        long double out;
        std::memcpy(&out, raw, 10);
        return out;
    }

    /** Raw 64-bit view (always valid). */
    uint64_t bitsView() const { return bits; }
};

/** Why the machine stopped. */
enum class StopKind : uint8_t
{
    Exit,        //!< An Exit instruction executed (translator service).
    MemFault,    //!< Unmapped/protected access in translated code.
    CycleLimit,  //!< Budget exhausted (runaway guard).
    BadIp,       //!< Jumped outside the code cache.
};

/** Description of a machine stop. */
struct StopInfo
{
    StopKind kind = StopKind::Exit;
    ExitReason reason = ExitReason::None;
    int64_t payload = 0;
    int64_t instr_index = -1;  //!< Code-cache index of the stopping op.
    uint64_t fault_addr = 0;   //!< For MemFault.
    bool fault_is_write = false;
};

/** Timing parameters (defaults approximate a 1GHz Itanium 2). */
struct MachineConfig
{
    unsigned lat_alu = 1;
    unsigned lat_mul = 2;        //!< shladd chains / parallel ops
    unsigned lat_ld = 1;         //!< added on top of cache latency
    unsigned lat_fp = 4;
    unsigned lat_fdiv = 24;      //!< frcpa + Newton pseudo-op
    unsigned lat_getf = 5;       //!< FR<->GR moves are slow (the paper's
    unsigned lat_setf = 5;       //!< reason MMX aliasing needs care)
    unsigned br_taken_bubble = 1;
    unsigned br_indirect_penalty = 6;
    unsigned misalign_penalty = 2000; //!< OS-assisted unaligned fix-up.
    bool verify_groups = false;  //!< Check no intra-group RAW/WAW deps.
};

/** Per-bucket cycle and instruction accounting. */
struct BucketStats
{
    std::array<double, static_cast<size_t>(Bucket::NumBuckets)> cycles{};
    std::array<uint64_t, static_cast<size_t>(Bucket::NumBuckets)> insns{};

    double
    totalCycles() const
    {
        double t = 0;
        for (double c : cycles)
            t += c;
        return t;
    }
};

/** Per-translation-block cycle/slot accounting (gated; observability). */
struct BlockCost
{
    double cycles = 0.0;  //!< Simulated cycles attributed to the block.
    uint64_t insns = 0;   //!< Instructions retired inside the block.
};

/** The IPF machine. */
class Machine
{
  public:
    Machine(CodeCache &cache, mem::Memory &memory, MachineConfig cfg = {})
        : code_(cache), mem_(memory), cfg_(cfg),
          dcache_(mem::CacheModel::itanium2())
    {
        reset();
    }

    /** Reset register state (not statistics). */
    void reset();

    /**
     * Run from code-cache index @p entry until the code exits, faults,
     * or @p max_cycles have elapsed.
     */
    StopInfo run(int64_t entry, uint64_t max_cycles = ~0ULL);

    // ----- register access (used by the runtime for state exchange) ---
    uint64_t gr(unsigned idx) const { return grs_[idx]; }
    void setGr(unsigned idx, uint64_t v) { grs_[idx] = v; nats_[idx] = false; }
    bool grNat(unsigned idx) const { return nats_[idx]; }
    const Fr &fr(unsigned idx) const { return frs_[idx]; }
    Fr &fr(unsigned idx) { return frs_[idx]; }
    bool pr(unsigned idx) const { return prs_[idx]; }
    uint64_t br(unsigned idx) const { return brs_[idx]; }

    // ----- statistics -------------------------------------------------
    const BucketStats &stats() const { return stats_; }
    BucketStats &stats() { return stats_; }
    uint64_t retired() const { return retired_; }
    uint64_t misalignedAccesses() const { return misaligned_; }
    mem::CacheModel &dcache() { return dcache_; }

    /**
     * Misalignment-penalty cycles folded into each bucket's total. A
     * subset of stats().cycles — subtracting it yields the "useful"
     * execution time per bucket, which the attribution report needs to
     * separate fault handling from cold/hot code time.
     */
    const std::array<double, static_cast<size_t>(Bucket::NumBuckets)> &
    misalignCycles() const
    {
        return misalign_cycles_;
    }

    /**
     * Enable per-translation-block cycle accounting. Off by default:
     * the book update in closeGroup() is measurable on hot loops, so
     * the runtime only turns it on when a run report was requested.
     */
    void setTrackBlockCycles(bool on) { track_blocks_ = on; }
    bool trackBlockCycles() const { return track_blocks_; }

    /**
     * Per-block costs, indexed by translation block id + 1: block ids
     * are dense BlockInfo indices, and slot 0 holds runtime-emitted
     * code outside any block (id -1). A block has an entry iff its
     * insns > 0, since every closed group retires an instruction.
     */
    const std::vector<BlockCost> &blockCosts() const { return block_costs_; }

    /** The cost entry of block @p id, or null when it has none. */
    const BlockCost *
    blockCost(int32_t id) const
    {
        size_t k = static_cast<size_t>(id + 1);
        return k < block_costs_.size() && block_costs_[k].insns
                   ? &block_costs_[k]
                   : nullptr;
    }

    /**
     * Attach the execution profiler (null detaches). The machine
     * reports probe-instruction visits to it; timing is untouched, so
     * cycle counts are bit-identical with or without a profiler, and
     * the detached path costs one predictable branch per instruction.
     */
    void setProfiler(prof::Profiler *p) { profiler_ = p; }

    /**
     * Attach a translation-block visit log (null detaches). While
     * attached, the id of every translation block execution enters —
     * deduplicated against the immediately preceding block — is pushed
     * into @p log, giving the divergence sentinel the set of artifacts
     * a checked region executed. Same contract as the profiler hook:
     * timing untouched, cycle counts bit-identical attached or not,
     * and the detached path is one predictable branch per instruction.
     */
    void
    setVisitLog(BoundedRing<int32_t> *log)
    {
        visit_log_ = log;
        visit_last_ = -1;
    }

    /** Charge synthetic cycles (translator overhead, native time, idle). */
    void
    chargeCycles(Bucket bucket, double cycles)
    {
        stats_.cycles[static_cast<size_t>(bucket)] += cycles;
        synthetic_cycles_ += cycles;
    }

    /**
     * Total cycles charged via chargeCycles() rather than executed
     * groups. Closes the block-level accounting books: when block
     * tracking is on, Σ blockCosts().cycles + syntheticCycles() equals
     * totalCycles() exactly — the auditor's core closure invariant.
     * Cycles added to stats() directly (the seeded accounting-skew
     * fault does exactly that) break the identity and are caught.
     */
    double syntheticCycles() const { return synthetic_cycles_; }

    double totalCycles() const { return stats_.totalCycles(); }

    const MachineConfig &config() const { return cfg_; }
    MachineConfig &config() { return cfg_; }

  private:
    /** Execute one instruction functionally. Returns false on stop. */
    bool execute(const Instr &i, StopInfo *stop);

    /** Close the current timing group. */
    void closeGroup();

    /** Charge a group's structural cost and source stalls. */
    void accountInstr(const Instr &i);

    /** Panic on an intra-group RAW (MachineConfig::verify_groups). */
    void verifyGroup(const Instr &i);

    /** Report a probe-instruction visit (an Exit or Br) to the
     *  attached profiler. */
    void profileObserve(const Instr &i);

    CodeCache &code_;
    mem::Memory &mem_;
    MachineConfig cfg_;
    mem::CacheModel dcache_;

    std::array<uint64_t, num_grs> grs_{};
    std::array<bool, num_grs> nats_{};
    std::array<Fr, num_frs> frs_{};
    std::array<bool, num_prs> prs_{};
    std::array<uint64_t, num_brs> brs_{};

    int64_t ip_ = 0;
    bool branched_ = false; //!< Taken branch in the current group.

    // Timing state.
    double cycle_ = 0.0;
    std::array<double, num_grs> gr_ready_{};
    std::array<double, num_frs> fr_ready_{};
    // Current-group accumulation.
    std::array<unsigned, static_cast<size_t>(Slot::NumSlots)> grp_slots_{};
    unsigned grp_total_ = 0;    //!< issue slots used (movl takes two)
    double grp_stall_ = 0.0;
    double grp_extra_ = 0.0; //!< memory/branch penalties inside the group
    double grp_misalign_ = 0.0; //!< misalign share of grp_extra_
    unsigned grp_insns_ = 0;    //!< instructions in the current group
    Bucket grp_bucket_ = Bucket::Cold;
    int32_t grp_block_ = -1; //!< block id the current group belongs to
    bool grp_open_ = false;
    bool track_blocks_ = false;
    prof::Profiler *profiler_ = nullptr; //!< Null = profiling off.
    BoundedRing<int32_t> *visit_log_ = nullptr; //!< Null = no log.
    int32_t visit_last_ = -1; //!< Last block id pushed into the log.
    // Group verification (debug).
    std::array<int8_t, num_grs> grp_gr_writer_{};
    std::array<int8_t, num_frs> grp_fr_writer_{};

    BucketStats stats_;
    double synthetic_cycles_ = 0.0;
    std::array<double, static_cast<size_t>(Bucket::NumBuckets)>
        misalign_cycles_{};
    std::vector<BlockCost> block_costs_; //!< see blockCosts()
    uint64_t retired_ = 0;
    uint64_t misaligned_ = 0;
};

} // namespace el::ipf

#endif // EL_IPF_MACHINE_HH
