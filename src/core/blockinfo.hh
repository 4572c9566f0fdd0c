/**
 * @file
 * Per-translation metadata: block records, guard expectations, exit
 * stubs, and the recovery maps that make hot-code exceptions precise
 * (section 4's "Record reconstruction maps").
 */

#ifndef EL_CORE_BLOCKINFO_HH
#define EL_CORE_BLOCKINFO_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "core/layout.hh"
#include "ia32/regs.hh"
#include "ipf/code_cache.hh"

namespace el::core
{

/** Translation phases a block can belong to. */
enum class BlockKind : uint8_t
{
    Cold,
    Hot,
};

/** Hot-coverage lifecycle of a cold block. */
enum class HotState : uint8_t
{
    Eligible,   //!< May register as a hot candidate and be promoted.
    Covered,    //!< A hot trace covers this block.
    PinnedCold, //!< Hot translation failed hot_retry_limit times;
                //!< permanently executes as cold code.
};

/** Architectural entry conditions the generated block speculates on. */
struct SpecContext
{
    uint8_t tos = 0;          //!< Expected x87 TOS at entry.
    uint8_t tag = 0;          //!< Expected TAG byte (bit = valid).
    uint8_t mmx_domain = 0;   //!< 0 = FP values current, 1 = MMX.
    uint32_t xmm_format = rt::uniformFormatWord(rt::XmmPs);

    bool operator==(const SpecContext &) const = default;
};

/** Misalignment-handling stage of a cold block (section 5). */
enum class MisalignStage : uint8_t
{
    Light = 1,    //!< Stage 1: detect-any, exit to translator.
    Detailed = 2, //!< Stage 2: per-access counters + avoidance.
};

/** Where a guest value lives at a commit point. */
struct Loc
{
    enum class Kind : uint8_t
    {
        Home,  //!< The canonical home register (value unchanged).
        Gr,    //!< A general register (id may be virtual pre-renaming).
    };

    Kind kind = Kind::Home;
    int16_t reg = 0; //!< GR id when kind == Gr.

    static Loc
    home()
    {
        return {};
    }

    static Loc
    gr(int16_t r)
    {
        Loc l;
        l.kind = Kind::Gr;
        l.reg = r;
        return l;
    }
};

/** How to recover the arithmetic EFLAGS at a commit point. */
struct FlagRecipe
{
    /** Lazy operation classes the runtime can re-evaluate. */
    enum class LazyOp : uint8_t
    {
        Homes,   //!< The flag home registers are current.
        Add,     //!< Recompute as a + b (wide) / res.
        Sub,
        Logic,
    };

    LazyOp op = LazyOp::Homes;
    uint8_t size = 4;
    uint32_t dirty_mask = 0; //!< Flags to recompute; others from homes.
    Loc wide, a, b, res;
};

/**
 * Reconstruction map for one commit point: enough information to build
 * a precise ia32::State from the IPF machine state when a fault lands
 * on an instruction tagged with this commit id.
 */
struct RecoveryMap
{
    uint32_t guest_ip = 0;      //!< IA-32 IP of the faulting instruction.
    Loc gpr[ia32::NumRegs];     //!< Location of each guest GPR.
    FlagRecipe flags;
    int8_t tos_delta = 0;       //!< TOS change since block entry.
    uint8_t tag_set = 0;        //!< TAG bits set since entry.
    uint8_t tag_clear = 0;      //!< TAG bits cleared since entry.
    uint32_t xmm_formats = 0;   //!< XMM representations at this point.
    uint8_t mmx_domain = 0;     //!< MMX/FP domain at this point.
};

/** One not-yet-linked control transfer out of a block. */
struct ExitStub
{
    int64_t cache_index = -1;  //!< The Exit instruction to patch.
    uint32_t target_eip = 0;
    bool patched = false;
};

/** FP/MMX/SSE guard expectations of a block head (section 5). */
struct GuardInfo
{
    bool checks_fp = false;
    uint8_t expect_tos = 0;
    uint8_t need_valid = 0;   //!< TAG bits that must be 1.
    uint8_t need_empty = 0;   //!< TAG bits that must be 0.
    bool checks_mmx = false;
    uint8_t expect_domain = 0; //!< 0 = FP current, 1 = MMX current.
    bool checks_xmm = false;
    uint32_t xmm_mask = 0;     //!< Format-word bits compared.
    uint32_t xmm_expect = 0;
};

/** Metadata of one translated block (cold or hot). */
struct BlockInfo
{
    int32_t id = -1;
    BlockKind kind = BlockKind::Cold;
    uint32_t entry_eip = 0;
    int64_t cache_entry = -1;
    int64_t cache_end = -1;
    uint32_t insn_count = 0;   //!< IA-32 instructions translated.

    // Profiling (cold blocks).
    int64_t use_ctr_off = -1;  //!< Runtime-area offset of the use counter.
    int64_t edge_ctr_off = -1; //!< Taken-edge counter (conditional end).
    uint32_t heat_registrations = 0;

    // Misalignment handling.
    MisalignStage misalign_stage = MisalignStage::Light;
    int64_t misalign_ctr_off = -1; //!< Stage-2 per-access detail base.

    // Safety guards.
    GuardInfo guard;

    // Linking.
    std::vector<ExitStub> stubs;

    // Precise state (hot blocks).
    std::vector<RecoveryMap> recovery; //!< Indexed by commit id.

    // Superseded by a newer translation (kept for stable ids).
    bool invalidated = false;

    // Adopted from a persistent artifact store rather than translated
    // in this process (observability: report + el_prof origin marks).
    bool loaded_from_store = false;

    // Hot-coverage lifecycle (cold blocks).
    HotState hot_state = HotState::Eligible;
    uint32_t hot_fail_count = 0; //!< Aborted hot sessions for this block.
    bool hot_queued = false;   //!< In the hot-candidate queue; makes
                               //!< re-registration O(1).
    bool hot_inflight = false; //!< A pipeline session for this block is
                               //!< running on a worker; its exits stay
                               //!< unlinked so every traversal yields
                               //!< an adoption boundary.
};

/**
 * One hot trace as a session emits it and the artifact store keeps it:
 * everything the translator's commit path needs to publish the trace
 * into a code cache. The proto block and its stub indices are
 * staging-relative; the id and cache placement are assigned at commit.
 */
struct HotTrace
{
    uint32_t entry_eip = 0;
    SpecContext spec;            //!< Entry conditions.
    BlockInfo proto;             //!< Staging-relative metadata.
    ipf::CodeCache staging;      //!< Emitted code at indices [0, n).
    /** Entry EIPs of interior trace blocks (covered at commit). */
    std::vector<uint32_t> covered_eips;
    /** (guest address, expected bytes) per constituent block on a
     *  writable page: baked into the trace's SMC guards, and re-checked
     *  against live memory before a stored trace is adopted. */
    std::vector<std::pair<uint32_t, uint64_t>> smc_guards;
};

} // namespace el::core

#endif // EL_CORE_BLOCKINFO_HH
