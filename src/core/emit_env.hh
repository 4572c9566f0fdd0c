/**
 * @file
 * The emitter environment shared by cold and hot translation.
 *
 * The per-IA-32-instruction translation templates (templates.cc) are
 * written once against this environment — the paper's "precompiled
 * binary templates and the IL-generation are derived from the same
 * template source code". The environment differs between the phases
 * only in policy:
 *  - Cold: values synced to their home registers at every instruction
 *    boundary, flags materialized when live, no cross-instruction value
 *    reuse, in-order scheduling downstream.
 *  - Hot: guest values tracked in virtual registers across the trace,
 *    lazy flags with recovery recipes, address CSE, commit regions with
 *    reconstruction maps, side exits with sideways sync code.
 *
 * It also centralizes the section-5 machinery: the FP-stack TOS/TAG
 * speculation (with FXCH elimination as permutation of the mapping),
 * the MMX/FP domain tracking, the XMM format tracking, and the staged
 * misalignment policy applied to every guest memory access.
 */

#ifndef EL_CORE_EMIT_ENV_HH
#define EL_CORE_EMIT_ENV_HH

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "core/blockinfo.hh"
#include "core/il.hh"
#include "core/layout.hh"
#include "core/options.hh"
#include "ia32/fault.hh"
#include "ia32/insn.hh"

namespace el::core
{

/** Translation phase the environment is generating for. */
enum class Phase : uint8_t
{
    Cold,
    Hot,
};

/** Per-access misalignment policy (section 5 stages). */
enum class MisalignPolicy : uint8_t
{
    Plain,        //!< No handling (ablation / known-aligned).
    DetectExit,   //!< Stage 1: on misalignment exit to the translator.
    CountAndAvoid,//!< Stage 2: count + split-access avoidance.
    Avoid,        //!< Hot: known-misaligned, avoidance only.
};

/** Lazy EFLAGS bookkeeping. */
struct LazyFlags
{
    enum class Kind : uint8_t
    {
        Homes, //!< Flag home registers are architecturally current.
        Add,   //!< wide = opa + opb (+carry-in); res = trunc(wide).
        Sub,   //!< wide = opa - opb (-borrow-in), 64-bit signed.
        Logic, //!< res = opa op opb; CF=OF=AF=0.
    };

    Kind kind = Kind::Homes;
    uint8_t size = 4;
    int16_t wide = -1; //!< Untruncated 64-bit result.
    int16_t opa = -1, opb = -1;
    int16_t res = -1;  //!< Size-truncated result.
    uint32_t dirty = 0; //!< Flags whose homes are stale (lazy-covered).
};

/** The emitter environment. */
class EmitEnv
{
  public:
    EmitEnv(const Options &options, Phase phase, int32_t block_id,
            SpecContext spec);

    // ----- IL emission ---------------------------------------------
    IlBuffer body;
    IlBuffer head; //!< Guards + instrumentation, prepended by the driver.

    /** Redirect subsequent emission into the head buffer. */
    void beginHead() { to_head_ = true; }

    /** Append an IL with the current IP/region/bucket metadata. */
    int32_t emit(Il il);

    /** Shorthand constructors for common shapes. */
    Il mk(ipf::IpfOp op) const;
    int32_t emitOp(ipf::IpfOp op, int16_t dst, int16_t s1 = -1,
                   int16_t s2 = -1, int64_t imm = 0);

    // ----- virtual registers -----------------------------------------
    int16_t newGr();
    int16_t newFr();
    int16_t newPr();
    bool overflowed() const { return overflow_; }

    /** Materialize a 64-bit immediate into a GR. */
    int16_t immGr(int64_t value);

    // ----- guest integer state ---------------------------------------
    int16_t readGuest(ia32::Reg reg);
    /**
     * Write a guest GPR. @p clean promises the value is already a
     * zero-extended 32-bit quantity (true for almost every template
     * result); otherwise a zxt4 is emitted to maintain the container
     * invariant.
     */
    void writeGuest(ia32::Reg reg, int16_t val, unsigned size = 4,
                    bool clean = true);
    int16_t readGuest8(uint8_t enc);
    void writeGuest8(uint8_t enc, int16_t val);
    int16_t readGuest16(ia32::Reg reg);
    void writeGuest16(ia32::Reg reg, int16_t val);

    /** Read an operand (Gpr/Gpr8/Imm/Mem) zero-extended to 64 bits. */
    int16_t readOperand(const ia32::Operand &op, unsigned size);

    /** Write a register-or-memory destination. */
    void writeOperand(const ia32::Operand &op, int16_t val, unsigned size);

    // ----- flags ------------------------------------------------------
    /**
     * Record the flag outcome of an ALU op. Under the cold policy, live
     * flags are materialized immediately; under the hot policy they stay
     * lazy until a sync point or consumer.
     */
    void setFlags(LazyFlags::Kind kind, unsigned size, int16_t wide,
                  int16_t opa, int16_t opb, int16_t res,
                  uint32_t written_mask);

    /** Force specific flag homes to be architecturally correct. */
    void materializeFlags(uint32_t mask);

    /** Directly set one flag home from a 0/1 value (shifts, fcomi...). */
    void setFlagHome(ia32::Flag flag, int16_t val01);

    /** Predicate that is true iff @p cond holds. */
    int16_t condPred(ia32::Cond cond);

    /** 0/1 value of one flag. */
    int16_t readFlagValue(ia32::Flag flag);

    /** The current lazy recipe (captured into recovery maps). */
    FlagRecipe flagRecipe() const;

    // ----- addresses & memory -----------------------------------------
    /** Effective address (32-bit wrapped), with CSE under the hot policy. */
    int16_t effAddr(const ia32::MemRef &mem);

    /** Emit a guest load through the misalignment policy. */
    int16_t emitLoad(int16_t addr, unsigned size);

    /** Emit a guest store through the misalignment policy. */
    void emitStore(int16_t addr, int16_t val, unsigned size);

    /** FP loads/stores (ldf/stf) with the same policy. */
    int16_t emitLoadF(int16_t addr, unsigned fsize);
    void emitStoreF(int16_t addr, int16_t fval, unsigned fsize);

    /** Set the policy applied to subsequent accesses. */
    void setAccessPolicy(MisalignPolicy policy) { policy_ = policy; }

    /** Stage-2 detail-counter area for this block (runtime offset). */
    void setMisalignCtrOff(int64_t off) { misalign_ctr_off_ = off; }

    /** Attribute subsequently emitted ILs to a specific bucket. */
    void
    setBucket(ipf::Bucket bucket)
    {
        bucket_override_ = true;
        override_bucket_ = bucket;
    }

    void clearBucket() { bucket_override_ = false; }

    /** Runtime-area address: r1 + offset. */
    int16_t rtAddr(int64_t offset);

    // ----- x87 / MMX / SSE --------------------------------------------
    /** FR id (physical) of logical ST(i); marks tag requirements. */
    int16_t frForSt(uint8_t sti);
    void fpPush();
    void fpPop();
    /** FXCH: permutes the mapping (hot) or emits three moves (cold). */
    void fpSwap(uint8_t sti);
    /** FNINIT: statically empty the whole stack. */
    void fpInit();
    /** EMMS: statically mark every slot empty (TOS unchanged). */
    void fpEmms();
    /** In-memory FP-stack mode (the FX!32 ablation). */
    bool fpMemoryMode() const { return !options.enable_fp_stack_spec; }
    int16_t fpMemLoadSt(uint8_t sti);
    void fpMemStoreSt(uint8_t sti, int16_t fval);
    void fpMemPush(int16_t fval);
    void fpMemPop();

    /** Mark that this block executes MMX (or FP) instructions. */
    void touchMmx();
    void touchFp();

    /** Current representation of XMM register i (converts if needed). */
    rt::XmmRep xmmRep(uint8_t i);
    /** Require register i in representation rep (emits conversion). */
    void xmmRequire(uint8_t i, rt::XmmRep rep);
    /** Declare that register i was fully rewritten in rep. */
    void xmmDefine(uint8_t i, rt::XmmRep rep);
    uint32_t xmmEntryFormats() const { return xmm_entry_formats_; }
    uint32_t xmmExitFormats() const;

    // ----- instruction & region management ------------------------------
    /** Start translating one IA-32 instruction. */
    void beginInsn(const ia32::Insn &insn, uint32_t live_flags);

    /** Finish the instruction (cold: sync state to homes). */
    void endInsn();

    /**
     * Capture a reconstruction map for a faulting point at the current
     * instruction and return its commit id.
     */
    int32_t captureRecovery();

    /** Close the current commit region (stores/branches do this). */
    void closeRegion();

    /** Emit home syncs for everything live (traces: exits/loop edges). */
    void syncAllToHomes();

    /** Predicated side exit to @p target_eip (hot traces). */
    void sideExit(int16_t pred, uint32_t target_eip);

    /** Record a pending control transfer (block end). */
    void endBranch(uint32_t target_eip, int16_t pred = -1);

    /** End with an indirect dispatch through the lookup table. */
    void endIndirect(int16_t target_vreg);

    /** End with an Exit of the given reason. */
    void endExit(ipf::ExitReason reason, int64_t payload);

    /** Emit a precise guest-fault exit (divide error etc.). */
    void emitGuestFaultCheck(int16_t pred, ia32::FaultKind kind);

    // ----- head/tail helpers used by the codegen drivers ---------------
    void emitUseCounter(int64_t ctr_off, uint32_t threshold);
    void emitEdgeCounter(int64_t ctr_off, int16_t pred);
    void emitSmcGuard(uint32_t guest_addr, uint64_t expected_bytes,
                      uint32_t window);
    void emitFpGuard(GuardInfo *guard);
    void emitMmxGuard(GuardInfo *guard);
    void emitXmmGuard(GuardInfo *guard);
    void emitStatusTail();

    /** Restore the FXCH permutation to identity (before exits). */
    void restoreFpPerm();

    // ----- bookkeeping ---------------------------------------------------
    const Options &options;
    const Phase phase;
    const int32_t block_id;
    SpecContext spec;

    /** Recovery maps captured so far (hot). */
    std::vector<RecoveryMap> recovery;

    /** Exit stubs recorded by endBranch/sideExit (for linking). */
    struct PendingStub
    {
        int32_t il_index;      //!< IL of the Exit instruction.
        uint32_t target_eip;
    };
    std::vector<PendingStub> pending_stubs;

    /** Guard info accumulated for the block head. */
    GuardInfo guard;

    /** Statistics shared with the codegen drivers. */
    uint32_t access_count = 0;
    uint32_t fxch_eliminated = 0;
    uint32_t fxch_emitted = 0;

    /** TOS delta accumulated so far (for recovery and the tail). */
    int8_t tosDelta() const;
    uint8_t tagSet() const { return tag_set_; }
    uint8_t tagClear() const { return tag_clear_; }

    /** The IA-32 instruction currently being translated. */
    const ia32::Insn *cur_insn = nullptr;

  private:
    int16_t flagHomeFor(ia32::Flag flag) const;
    void emitStaticGuestFault(ia32::FaultKind kind);
    int16_t fpMemTos();
    int16_t fpMemSlotAddr(int16_t tos, uint8_t sti);
    void materializeOne(ia32::Flag flag);

    void emitMisalignCounter(int16_t p_mis, int16_t addr, unsigned size,
                             uint32_t access_idx);

    /** Split-access avoidance sequence: one access when aligned,
     *  byte-sized pieces when not. */
    int16_t emitSplitLoad(int16_t addr, unsigned size, int16_t p_mis,
                          int16_t p_al);
    void emitSplitStore(int16_t addr, int16_t val, unsigned size,
                        int16_t p_mis, int16_t p_al);
    /** Alignment predicates with hot-mode reuse. */
    std::pair<int16_t, int16_t> alignPreds(int16_t addr, unsigned size);

    uint32_t live_mask_ = 0;
    int16_t next_gr_ = vgr_base;
    int16_t next_fr_ = vfr_base;
    int16_t next_pr_ = vpr_base;
    bool overflow_ = false;

    /** Current location of each guest GPR (home physical id or vreg). */
    int16_t guest_loc_[ia32::NumRegs];
    uint8_t guest_dirty_ = 0; //!< Regs whose home is stale.

    LazyFlags lazy_;

    // x87 speculation state.
    uint8_t cur_tos_;
    uint8_t fp_perm_[8];      //!< Absolute slot -> physical FR.
    uint8_t tag_now_;         //!< Simulated TAG during generation.
    uint8_t touched_ = 0;     //!< Slots first-touched (for guard masks).
    uint8_t tag_set_ = 0, tag_clear_ = 0;
    bool fp_used_ = false;
    bool mmx_used_ = false;

    // XMM format tracking.
    rt::XmmRep xmm_rep_[8];
    uint32_t xmm_entry_formats_;

    // Address CSE (hot): (base_loc, index_loc, scale, disp) -> vreg.
    std::map<std::tuple<int16_t, int16_t, uint8_t, int32_t>, int16_t>
        addr_cse_;

    // Alignment-predicate reuse (hot): (addr id, size) -> preds.
    std::map<std::pair<int16_t, unsigned>, std::pair<int16_t, int16_t>>
        align_cache_;

    MisalignPolicy policy_ = MisalignPolicy::Plain;

    int32_t region_ = 0;
    bool region_fresh_ = true;
    uint32_t region_start_ip_ = 0;
    int32_t cur_commit_id_ = -1;
    uint8_t cur_domain_ = 0;
    bool state_reg_set_ = false;
    uint32_t last_state_ip_ = 0;
    uint32_t last_insn_ip_ = 0; //!< Most recent beginInsn() address.
    int64_t misalign_ctr_off_ = 0;
    bool in_sideways_ = false;
    bool bucket_override_ = false;
    bool to_head_ = false;
    ipf::Bucket override_bucket_ = ipf::Bucket::Overhead;
    uint8_t xmm_touched_ = 0;
    bool will_close_region_ = false;
    uint32_t pending_fault_ip_ = 0;
};

/**
 * Translate one decoded IA-32 instruction through the template table.
 * Returns false if the opcode has no template (caller falls back to an
 * exit that lets the runtime interpret or fault).
 */
bool translateInsn(EmitEnv &env, const ia32::Insn &insn);

} // namespace el::core

#endif // EL_CORE_EMIT_ENV_HH
