/**
 * @file
 * Itanium-like (IPF) target instruction set.
 *
 * The translator emits these instructions into an ipf::CodeCache, and
 * ipf::Machine executes them. The set models the Itanium features the
 * paper's mechanisms depend on:
 *  - full predication (every instruction has a qualifying predicate),
 *  - explicit instruction groups (stop bits) with wide in-order issue,
 *  - control speculation (ld.s defers faults into NaT bits; chk.s
 *    branches to recovery),
 *  - tbit/dep/extr bit manipulation (used by misalignment avoidance),
 *  - a flat 128-register FP file with getf/setf significand moves
 *    (the MMX-on-integer-registers model of section 5),
 *  - parallel (SIMD) integer ops on general registers and parallel
 *    single-precision ops on FP registers.
 *
 * Divide/sqrt are modelled as long-latency pseudo-ops standing for the
 * frcpa + Newton-Raphson sequences a real IPF compiler emits; DESIGN.md
 * documents this substitution.
 */

#ifndef EL_IPF_INSN_HH
#define EL_IPF_INSN_HH

#include <array>
#include <cstdint>
#include <string>

namespace el::ipf
{

/** Execution-unit slot an instruction occupies. */
enum class Slot : uint8_t
{
    M, //!< memory
    I, //!< integer/shift
    F, //!< floating point
    B, //!< branch
    A, //!< ALU: can issue on M or I
    NumSlots,
};

/** Register class of an operand field. */
enum class RegClass : uint8_t
{
    None,
    Gr,
    Fr,
    Pr,
    Br,
};

/** Comparison relations for cmp/fcmp. */
enum class CmpRel : uint8_t
{
    Eq,
    Ne,
    Lt,   //!< signed
    Le,
    Gt,
    Ge,
    Ltu,  //!< unsigned
    Leu,
    Gtu,
    Geu,
    // FP only:
    Unord,
};

/** FP computation precision (the .s/.d completers). */
enum class FpPrec : uint8_t
{
    Single,
    Double,
    Extended,
};

/** Memory-op speculation completer. */
enum class Spec : uint8_t
{
    None,
    S, //!< control-speculative (ld.s): faults defer to NaT
};

/** Why translated code exits back to the translator runtime. */
enum class ExitReason : uint8_t
{
    None = 0,
    LinkMiss,      //!< direct branch target not yet translated
    IndirectMiss,  //!< fast lookup failed; EIP in a GR
    RegisterHot,   //!< use counter hit the heating threshold
    SyscallGate,   //!< guest INT n; vector in imm
    Misaligned,    //!< stage-1/stage-3 misalignment instrumentation hit
    GuardFail,     //!< FP/MMX/SSE speculation guard mismatch
    SmcDetected,   //!< self-modifying code check failed
    Halt,          //!< guest HLT
    Breakpoint,    //!< guest INT3 (trap into the runtime/debugger)
    Resync,        //!< roll back to cold re-execution (speculation failed)
    GuestFault,    //!< precise guest fault; payload = (eip << 8) | kind
};

/** IPF opcodes (a practical subset plus the documented pseudo-ops). */
enum class IpfOp : uint16_t
{
    Invalid = 0,

    // Integer ALU (A-type unless noted).
    Add,      //!< dst = src1 + src2
    Sub,      //!< dst = src1 - src2
    AddImm,   //!< dst = imm + src1   (adds/addl)
    And,
    Or,
    Xor,
    Andcm,    //!< dst = src1 & ~src2
    Shl,      //!< dst = src1 << (src2 & 63)       (I)
    ShlImm,   //!< dst = src1 << imm               (I, dep.z form)
    Shr,      //!< arithmetic right shift           (I)
    ShrU,     //!< logical right shift              (I)
    ShrImm,   //!< arithmetic right shift by imm    (I)
    ShrUImm,  //!< logical right shift by imm       (I)
    Shladd,   //!< dst = (src1 << imm) + src2, imm in 1..4
    Sxt,      //!< sign extend low `size` bytes     (I)
    Zxt,      //!< zero extend low `size` bytes     (I)
    Movl,     //!< dst = 64-bit imm                 (L/X slot)
    Mov,      //!< dst = src1
    MovToBr,  //!< br[dst] = src1                   (I)
    MovFromBr,//!< dst = br[src1]                   (I)
    Cmp,      //!< (dst, dst2) = src1 rel src2      (A)
    CmpImm,   //!< (dst, dst2) = imm rel src2       (A)
    Tbit,     //!< (dst, dst2) = bit imm of src1    (I)
    Dep,      //!< dst = deposit src1[0..len) into src2 at pos (I)
    DepZ,     //!< dst = src1[0..len) << pos, rest zero (I)
    Extr,     //!< dst = sign-extended src1[pos..pos+len) (I)
    ExtrU,    //!< dst = zero-extended src1[pos..pos+len) (I)
    Popcnt,   //!< dst = population count of src1   (I)

    // Parallel integer on GRs (MMX model; size = lane bytes 1/2/4).
    Padd,
    Psub,
    Pmull,    //!< 16-bit lanes, low half of products
    Pcmp,     //!< lanes: all-ones where equal

    // Memory (M).
    Ld,       //!< dst = [src1]; size 1/2/4/8; spec; post_inc via imm
    St,       //!< [src1] = src2; size 1/2/4/8
    ChkS,     //!< if NaT(src1) branch to target (recovery)
    Ldf,      //!< FP load: size 4 (ldfs), 8 (ldfd), 16 (ldfe), 9 (ldf8)
    Stf,      //!< FP store, same size encoding
    Getf,     //!< dst(GR) = significand of src1(FR)
    Setf,     //!< dst(FR) = src1(GR) as significand (bits mode)
    Mf,       //!< memory fence (modelled as a scheduling barrier)

    // Floating point (F).
    Fadd,     //!< dst = src1 + src2 at `prec`
    Fsub,
    Fmpy,
    Fma,      //!< dst = src1 * src2 + src3
    Fms,
    Fnma,     //!< dst = -(src1 * src2) + src3
    Fdiv,     //!< pseudo: frcpa + Newton iterations (long latency)
    Fsqrt,    //!< dst = sqrt(src1); pseudo: frsqrta + Newton iterations
    Fcmp,     //!< (dst, dst2) = src1 rel src2
    Fneg,     //!< fmerge.ns
    Fabs,     //!< fmerge.s with f0 sign
    FcvtXf,   //!< dst = (fp) signed-int significand of src1
    FcvtFxTrunc, //!< dst.bits = (int64) trunc(src1)
    Fmov,     //!< dst = src1
    // Integer multiply/divide pseudo-ops. Real IPF multiplies via the
    // FP unit (setf + xma + getf) and divides with frcpa + Newton
    // iterations; these stand for those inline macro sequences with
    // equivalent latency (documented in DESIGN.md).
    Xmul,     //!< dst = low 64 bits of src1 * src2
    XDivS,    //!< dst = (int64)src1 / (int64)src2   (src2 != 0)
    XDivU,
    XRemS,
    XRemU,

    // Parallel single-precision on FR bit-pairs (2 x float).
    Fpadd,
    Fpsub,
    Fpmpy,
    Fpdiv,    //!< pseudo, like Fdiv
    Fpcvt,    //!< placeholder conversions use Getf/Setf + scalar ops

    // Branches (B).
    Br,       //!< unconditional/predicated branch to `target`
    BrCall,   //!< branch and link into br[dst]
    BrRet,    //!< branch to br[src1]
    BrInd,    //!< indirect branch to br[src1]
    Exit,     //!< leave translated code; `exit_reason` says why.
              //!< An IndirectMiss exit reads the target EIP from src1.
    Nop,

    NumOps,
};

/** Cycle-attribution bucket for Figures 6/7. */
enum class Bucket : uint8_t
{
    Hot = 0,      //!< optimized hot-trace code
    Cold,         //!< cold translated code
    Overhead,     //!< instrumentation + translator entries/exits
    Native,       //!< untranslated native code (kernel/drivers)
    Idle,         //!< idle/wait time
    NumBuckets,
};

/** Per-instruction metadata used for attribution and state recovery. */
struct InstrMeta
{
    Bucket bucket = Bucket::Cold;
    int32_t block_id = -1;   //!< Owning translation block.
    uint32_t ia32_ip = 0;    //!< Guest IP this instruction derives from.
    int32_t commit_id = -1;  //!< Commit point (hot code), -1 for cold.
};

/** One IPF instruction (plus scheduling and metadata fields). */
struct Instr
{
    IpfOp op = IpfOp::Nop;
    uint8_t qp = 0;        //!< Qualifying predicate (p0 == always true).
    uint8_t dst = 0;       //!< GR/FR/PR/BR index (op-dependent).
    uint8_t dst2 = 0;      //!< Second predicate target of cmp/tbit/fcmp.
    uint8_t src1 = 0;
    uint8_t src2 = 0;
    uint8_t src3 = 0;
    int64_t imm = 0;
    uint8_t size = 0;      //!< Memory size / extend width / lane width.
    uint8_t pos = 0;       //!< dep/extr/tbit bit position.
    uint8_t len = 0;       //!< dep/extr field length.
    CmpRel crel = CmpRel::Eq;
    FpPrec prec = FpPrec::Extended;
    Spec spec = Spec::None;
    bool stop = false;     //!< Instruction-group stop bit after this op.

    int64_t target = -1;   //!< Branch/chk target: code-cache index.
    ExitReason exit_reason = ExitReason::None;
    int64_t exit_payload = 0; //!< Reason-specific (e.g. target EIP).

    InstrMeta meta;

    /** Human-readable rendering for traces and tests. */
    std::string toString() const;
};

/**
 * Static description of an opcode: everything that is fixed when the
 * instruction is emitted. The bundle template decides the execution
 * unit, and the operand fields have a fixed register class per opcode,
 * so the machine's timing, the scheduler's renaming and dependence
 * tracking, and the group verifier all read this one row instead of
 * re-deriving it.
 */
struct OpInfo
{
    const char *name;   //!< Mnemonic (toString, traces, profile disasm).
    Slot slot;          //!< Execution unit.
    uint8_t width;      //!< Issue slots: 2 for movl's L+X pair, else 1.
    RegClass dst;       //!< Class of the `dst` field.
    RegClass dst2;      //!< Class of the `dst2` field (cmp/tbit/fcmp).
    RegClass src[3];    //!< Classes of `src1`, `src2`, `src3`.
};

/** The opcode table, one row per IpfOp (built in insn.cc). */
extern const std::array<OpInfo, static_cast<size_t>(IpfOp::NumOps)>
    op_table;

/** Panic on an opcode value outside the table. */
[[noreturn]] void badOp(IpfOp op);

/** The row for @p op; panics on a value outside the table. */
inline const OpInfo &
opInfo(IpfOp op)
{
    auto k = static_cast<size_t>(op);
    if (k >= op_table.size()) [[unlikely]]
        badOp(op);
    return op_table[k];
}

/** Printable bucket name. */
const char *bucketName(Bucket bucket);

} // namespace el::ipf

#endif // EL_IPF_INSN_HH
