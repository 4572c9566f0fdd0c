/**
 * @file
 * Decoded IA-32 instruction representation.
 *
 * The decoder (ia32/decoder.hh) produces Insn values from raw machine-code
 * bytes; the interpreter, the cold translator and the hot translator all
 * consume this one representation. Static per-opcode properties (flag
 * def/use sets, faulting behaviour, branch classification) live here too
 * because the EFlags-liveness analysis and the precise-exception machinery
 * are driven by them.
 */

#ifndef EL_IA32_INSN_HH
#define EL_IA32_INSN_HH

#include <cstdint>
#include <string>

#include "ia32/regs.hh"

namespace el::ia32
{

/** Opcodes of the supported IA-32 subset. */
enum class Op : uint16_t
{
    Invalid = 0,

    // Data movement / address arithmetic.
    Mov, Movzx, Movsx, Lea, Xchg, Push, Pop, Cdq, Sahf, Lahf,

    // Integer ALU.
    Add, Adc, Sub, Sbb, And, Or, Xor, Cmp, Test,
    Inc, Dec, Neg, Not,
    Imul2,   //!< two-operand imul r, r/m
    Mul1,    //!< one-operand mul  (edx:eax = eax * r/m)
    Imul1,   //!< one-operand imul (edx:eax = eax * r/m)
    Div, Idiv,
    Shl, Shr, Sar, Rol, Ror,

    // Control flow.
    Jcc, Jmp, JmpInd, Call, CallInd, Ret, Setcc, Cmovcc, Leave,

    // String operations (with optional REP).
    Movs, Stos, Lods, Cld, Std,

    // System.
    Int, Int3, Nop, Hlt, Ud2,

    // x87 floating point.
    Fld,     //!< push from memory or ST(i)
    Fild,    //!< push from integer memory
    Fst,     //!< store to memory or ST(i); fp_pop selects FSTP
    Fistp,   //!< store integer and pop
    Fld1, Fldz,
    Fadd, Fsub, Fsubr, Fmul, Fdiv, Fdivr,
    Fxch, Fchs, Fabs, Fsqrt,
    Fcomi,   //!< compare ST(0), ST(i); writes EFLAGS; fp_pop => fcomip
    Fnstsw,  //!< store FPU status word to AX
    Fninit,

    // MMX (64-bit packed integers in MM registers).
    Movd,    //!< mm <- r/m32 or r/m32 <- mm
    MovqMm,  //!< mm <-> mm/m64
    Paddb, Paddw, Paddd, Psubb, Psubw, Psubd,
    Pand, Por, Pxor, Pmullw,
    Emms,

    // SSE/SSE2 (128-bit XMM registers).
    Movaps,  //!< aligned packed-single move (alignment-checked)
    Movups,  //!< unaligned packed move
    Movss,   //!< scalar single move
    MovsdX,  //!< scalar double move (SSE2)
    Movdqa,  //!< aligned packed-integer move
    Addps, Subps, Mulps, Divps,
    Addss, Subss, Mulss, Divss,
    Addpd, Mulpd, Subpd,
    Addsd, Mulsd,
    Andps, Xorps, Sqrtss,
    Ucomiss, //!< scalar single compare, writes EFLAGS
    Cvtps2pd, Cvtpd2ps, Cvtsi2ss, Cvttss2si,
    PadddX,  //!< paddd on XMM (packed-integer domain)

    NumOps,
};

/** What an operand denotes. */
enum class OperandKind : uint8_t
{
    None = 0,
    Gpr,    //!< general-purpose register (Reg, at insn op_size)
    Gpr8,   //!< 8-bit register (Reg8 encoding; op_size == 1)
    Mem,    //!< memory reference
    Imm,    //!< immediate
    St,     //!< x87 stack register ST(i)
    Mm,     //!< MMX register MMi
    Xmm,    //!< SSE register XMMi
};

/** A [base + index*scale + disp] memory reference (flat address space). */
struct MemRef
{
    bool has_base = false;
    Reg base = RegEax;
    bool has_index = false;
    Reg index = RegEax;
    uint8_t scale = 1; //!< 1, 2, 4 or 8.
    int32_t disp = 0;
};

/** One instruction operand. */
struct Operand
{
    OperandKind kind = OperandKind::None;
    uint8_t reg = 0; //!< Gpr/Gpr8/St/Mm/Xmm index.
    MemRef mem{};
    int64_t imm = 0;

    bool isMem() const { return kind == OperandKind::Mem; }

    static Operand
    makeGpr(Reg r)
    {
        Operand o;
        o.kind = OperandKind::Gpr;
        o.reg = r;
        return o;
    }

    static Operand
    makeGpr8(uint8_t r)
    {
        Operand o;
        o.kind = OperandKind::Gpr8;
        o.reg = r;
        return o;
    }

    static Operand
    makeImm(int64_t v)
    {
        Operand o;
        o.kind = OperandKind::Imm;
        o.imm = v;
        return o;
    }

    static Operand
    makeMem(MemRef m)
    {
        Operand o;
        o.kind = OperandKind::Mem;
        o.mem = m;
        return o;
    }

    static Operand
    makeSt(uint8_t i)
    {
        Operand o;
        o.kind = OperandKind::St;
        o.reg = i;
        return o;
    }

    static Operand
    makeMm(uint8_t i)
    {
        Operand o;
        o.kind = OperandKind::Mm;
        o.reg = i;
        return o;
    }

    static Operand
    makeXmm(uint8_t i)
    {
        Operand o;
        o.kind = OperandKind::Xmm;
        o.reg = i;
        return o;
    }
};

/** A fully decoded IA-32 instruction. */
struct Insn
{
    uint32_t addr = 0;   //!< Guest virtual address of the first byte.
    uint8_t len = 0;     //!< Encoded length in bytes.
    Op op = Op::Invalid;
    Cond cond = Cond::O; //!< For Jcc / Setcc / Cmovcc.
    uint8_t op_size = 4; //!< Operand size in bytes (1, 2, 4; FP: 4/8/10).
    bool fp_pop = false; //!< x87 pop-after-execute variant (FADDP, FSTP...).
    bool rep = false;    //!< REP prefix on a string operation.
    int32_t imm_rel = 0; //!< Raw relative displacement of Jcc/Jmp/Call.
    Operand dst;
    Operand src;

    /** Address of the following instruction. */
    uint32_t next() const { return addr + len; }

    /** Branch target for direct Jcc/Jmp/Call (imm holds the target). */
    uint32_t target() const { return static_cast<uint32_t>(src.imm); }

    /** Human-readable disassembly. */
    std::string toString() const;
};

/** Static classification of an opcode. */
struct OpInfo
{
    const char *name;
    uint32_t flags_written; //!< EFLAGS this op defines (Flag mask).
    uint32_t flags_read;    //!< EFLAGS this op uses (excl. cond codes).
    bool writes_all_flags_undefined; //!< Shifts/mul leave some undefined.
    bool may_load;          //!< May read memory (when operand is Mem).
    bool may_store;         //!< May write memory (when operand is Mem).
    bool is_branch;         //!< Ends a basic block.
    bool is_fp;             //!< Touches the x87 stack.
    bool is_mmx;            //!< Touches MM registers.
    bool is_sse;            //!< Touches XMM registers.
    bool may_fault_arith;   //!< Can fault without a memory operand
                            //!< (divide, FP stack, int).
};

/** Look up the static info record for @p op. */
const OpInfo &opInfo(Op op);

/** Printable mnemonic. */
const char *opName(Op op);

/**
 * EFLAGS read by this specific instruction (includes the condition-code
 * flags of Jcc/Setcc/Cmovcc and the CF input of ADC/SBB).
 */
uint32_t insnFlagsRead(const Insn &insn);

/** EFLAGS written by this specific instruction. */
uint32_t insnFlagsWritten(const Insn &insn);

/** True if the instruction ends a basic block. */
bool endsBlock(const Insn &insn);

/**
 * True if executing the instruction can raise a guest-visible fault
 * (memory access, divide error, FP stack fault, software interrupt).
 * This drives the precise-state commit discipline of section 4.
 */
bool canFault(const Insn &insn);

/** True if the instruction reads or writes memory. */
bool accessesMemory(const Insn &insn);

/** True if the instruction writes memory (an irreversible action). */
bool writesMemory(const Insn &insn);

} // namespace el::ia32

#endif // EL_IA32_INSN_HH
