/**
 * @file
 * The translator's Intermediate Language (IL).
 *
 * Hot translation "generates associated Intermediate Language data
 * structures" per IA-32 instruction (section 2). An Il is an IPF
 * instruction skeleton plus wide operand ids (physical registers are ids
 * below the physical file size; virtual registers are ids above it),
 * scheduling classification, commit-point tagging and sideways marking.
 * Cold translation uses exactly the same ILs — the binary templates and
 * the IL generation "are derived from the same template source code" —
 * but runs them through the in-order scheduler.
 */

#ifndef EL_CORE_IL_HH
#define EL_CORE_IL_HH

#include <cstdint>
#include <vector>

#include "ipf/insn.hh"
#include "ipf/regs.hh"

namespace el::core
{

/** First virtual id of each class (ids below are physical). */
constexpr int16_t vgr_base = static_cast<int16_t>(ipf::num_grs);   // 128
constexpr int16_t vfr_base = static_cast<int16_t>(ipf::num_frs);   // 64
constexpr int16_t vpr_base = static_cast<int16_t>(ipf::num_prs);   // 64

/** One IL instruction. */
struct Il
{
    ipf::Instr ins;     //!< Opcode, immediates, sizes, metadata. The
                        //!< register fields are filled in by renaming.
    int16_t dst = -1;
    int16_t dst2 = -1;
    int16_t src1 = -1;
    int16_t src2 = -1;
    int16_t src3 = -1;
    int16_t qp = 0;     //!< Qualifying predicate id (0 = always).

    int32_t target_il = -1; //!< Intra-block branch target (IL index).

    // Scheduling classification.
    bool is_ordered = false;  //!< Must keep program order (stores,
                              //!< faulting ops, branches, syncs, chk.s).
    bool is_load = false;     //!< Guest data load (speculation candidate).
    bool sideways = false;    //!< Needed for side exits only.
    bool dead = false;
    int32_t region = 0;       //!< Commit region (reorder barrier index).
    int32_t weight = 0;       //!< Scheduling priority.

    /** Convenience: the IA-32 IP recorded in the metadata. */
    uint32_t ip() const { return ins.meta.ia32_ip; }
};

/** A block of ILs plus label bookkeeping. */
struct IlBuffer
{
    std::vector<Il> ils;

    int32_t
    append(const Il &il)
    {
        ils.push_back(il);
        return static_cast<int32_t>(ils.size()) - 1;
    }

    size_t size() const { return ils.size(); }
};

} // namespace el::core

#endif // EL_CORE_IL_HH
