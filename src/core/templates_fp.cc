/**
 * @file
 * x87, MMX and SSE translation templates (section 5 of the paper).
 *
 * x87 uses the TOS/TAG-speculated fixed FR mapping (or the FX!32-style
 * in-memory stack under the ablation flag); MMX operates on the general
 * registers with block-level domain switching; SSE operates on the
 * format-tracked XMM representations (packed-int in GR pairs, packed-
 * single bits or packed-double values in FR pairs).
 */

#include "core/emit_env.hh"

#include "ipf/regs.hh"
#include "support/logging.hh"

namespace el::core
{

using ia32::FaultKind;
using ia32::Insn;
using ia32::Op;
using ia32::OperandKind;
using ia32::Reg;
using ipf::CmpRel;
using ipf::FpPrec;
using ipf::IpfOp;

namespace
{

int16_t
fmovTo(EmitEnv &env, int16_t dst, int16_t src)
{
    Il il = env.mk(IpfOp::Fmov);
    il.dst = dst;
    il.src1 = src;
    env.emit(il);
    return dst;
}

/** Emit a 3-operand FP op: dst = a op b at extended precision. */
void
farith(EmitEnv &env, IpfOp op, int16_t dst, int16_t a, int16_t b,
       FpPrec prec = FpPrec::Extended)
{
    Il il = env.mk(op);
    il.dst = dst;
    il.src1 = a;
    il.src2 = b;
    il.ins.prec = prec;
    env.emit(il);
}

int16_t
getf(EmitEnv &env, int16_t fr, unsigned size /* 0=sig,4,8 */)
{
    int16_t v = env.newGr();
    Il il = env.mk(IpfOp::Getf);
    il.dst = v;
    il.src1 = fr;
    il.ins.size = static_cast<uint8_t>(size);
    env.emit(il);
    return v;
}

void
setf(EmitEnv &env, int16_t fr, int16_t gr, unsigned size)
{
    Il il = env.mk(IpfOp::Setf);
    il.dst = fr;
    il.src1 = gr;
    il.ins.size = static_cast<uint8_t>(size);
    env.emit(il);
}

int16_t
extrU(EmitEnv &env, int16_t src, unsigned pos, unsigned len)
{
    int16_t v = env.newGr();
    Il il = env.mk(IpfOp::ExtrU);
    il.dst = v;
    il.src1 = src;
    il.ins.pos = static_cast<uint8_t>(pos);
    il.ins.len = static_cast<uint8_t>(len);
    env.emit(il);
    return v;
}

int16_t
depInto(EmitEnv &env, int16_t val, int16_t into, unsigned pos,
        unsigned len)
{
    int16_t v = env.newGr();
    Il il = env.mk(IpfOp::Dep);
    il.dst = v;
    il.src1 = val;
    il.src2 = into;
    il.ins.pos = static_cast<uint8_t>(pos);
    il.ins.len = static_cast<uint8_t>(len);
    env.emit(il);
    return v;
}

/** IPF arithmetic opcode for an x87 template. */
IpfOp
x87ArithOp(Op op)
{
    switch (op) {
      case Op::Fadd:
        return IpfOp::Fadd;
      case Op::Fsub:
      case Op::Fsubr:
        return IpfOp::Fsub;
      case Op::Fmul:
        return IpfOp::Fmpy;
      case Op::Fdiv:
      case Op::Fdivr:
        return IpfOp::Fdiv;
      default:
        el_panic("not an x87 arith op");
    }
}

/** Guest-fault check for a 16-byte alignment requirement. */
void
check16Aligned(EmitEnv &env, int16_t addr)
{
    int16_t low = extrU(env, addr, 0, 4);
    int16_t p = env.newPr(), p2 = env.newPr();
    Il c = env.mk(IpfOp::CmpImm);
    c.dst = p;
    c.dst2 = p2;
    c.ins.imm = 0;
    c.src2 = low;
    c.ins.crel = CmpRel::Ne;
    env.emit(c);
    env.emitGuestFaultCheck(p, FaultKind::GeneralProtect);
}

/** Load the FP value of an x87 memory operand (m32 or m64). */
int16_t
loadFpOperand(EmitEnv &env, const Insn &insn)
{
    int16_t addr = env.effAddr(insn.src.mem);
    return env.emitLoadF(addr, insn.op_size);
}

} // namespace

bool
tplX87(EmitEnv &env, const Insn &insn)
{
    const bool mem_mode = env.fpMemoryMode();

    switch (insn.op) {
      case Op::Fninit:
        if (mem_mode) {
            int16_t a = env.rtAddr(rt::fp_tos);
            Il st = env.mk(IpfOp::St);
            st.src1 = a;
            st.src2 = ipf::gr_zero;
            st.ins.size = 1;
            env.emit(st);
        } else {
            env.fpInit();
        }
        return true;

      case Op::Fld1:
      case Op::Fldz: {
        int16_t src = insn.op == Op::Fld1 ? ipf::fr_one : ipf::fr_zero;
        if (mem_mode) {
            env.fpMemPush(src);
        } else {
            env.fpPush();
            fmovTo(env, env.frForSt(0), src);
        }
        return true;
      }

      case Op::Fld: {
        if (insn.src.kind == OperandKind::St) {
            if (mem_mode) {
                int16_t v = env.fpMemLoadSt(insn.src.reg);
                env.fpMemPush(v);
            } else {
                int16_t src = env.frForSt(insn.src.reg);
                env.fpPush();
                fmovTo(env, env.frForSt(0), src);
            }
        } else {
            int16_t v = loadFpOperand(env, insn);
            if (mem_mode) {
                env.fpMemPush(v);
            } else {
                env.fpPush();
                fmovTo(env, env.frForSt(0), v);
            }
        }
        return true;
      }

      case Op::Fild: {
        int16_t addr = env.effAddr(insn.src.mem);
        int16_t bits = env.emitLoad(addr, 4);
        int16_t s = env.newGr();
        Il sx = env.mk(IpfOp::Sxt);
        sx.dst = s;
        sx.src1 = bits;
        sx.ins.size = 4;
        env.emit(sx);
        int16_t f = env.newFr();
        setf(env, f, s, 0);
        int16_t fv = env.newFr();
        Il cv = env.mk(IpfOp::FcvtXf);
        cv.dst = fv;
        cv.src1 = f;
        env.emit(cv);
        if (mem_mode) {
            env.fpMemPush(fv);
        } else {
            env.fpPush();
            fmovTo(env, env.frForSt(0), fv);
        }
        return true;
      }

      case Op::Fst: {
        if (insn.dst.kind == OperandKind::St) {
            if (mem_mode) {
                int16_t v = env.fpMemLoadSt(0);
                env.fpMemStoreSt(insn.dst.reg, v);
                if (insn.fp_pop)
                    env.fpMemPop();
            } else {
                int16_t s = env.frForSt(0);
                int16_t d = env.frForSt(insn.dst.reg);
                if (d != s)
                    fmovTo(env, d, s);
                if (insn.fp_pop)
                    env.fpPop();
            }
        } else {
            int16_t addr = env.effAddr(insn.dst.mem);
            int16_t s = mem_mode ? env.fpMemLoadSt(0) : env.frForSt(0);
            env.emitStoreF(addr, s, insn.op_size);
            if (insn.fp_pop)
                mem_mode ? env.fpMemPop() : env.fpPop();
        }
        return true;
      }

      case Op::Fistp: {
        int16_t s = mem_mode ? env.fpMemLoadSt(0) : env.frForSt(0);
        int16_t t = env.newFr();
        Il cv = env.mk(IpfOp::FcvtFxTrunc);
        cv.dst = t;
        cv.src1 = s;
        cv.ins.size = 1; // round-to-nearest (FISTP default)
        env.emit(cv);
        int16_t q = getf(env, t, 0);
        int16_t sq = env.newGr();
        Il sx = env.mk(IpfOp::Sxt);
        sx.dst = sq;
        sx.src1 = q;
        sx.ins.size = 4;
        env.emit(sx);
        int16_t p = env.newPr(), p2 = env.newPr();
        Il c = env.mk(IpfOp::Cmp);
        c.dst = p;
        c.dst2 = p2;
        c.src1 = q;
        c.src2 = sq;
        c.ins.crel = CmpRel::Ne;
        env.emit(c);
        int16_t out = env.newGr();
        Il mv = env.mk(IpfOp::Mov);
        mv.dst = out;
        mv.src1 = q;
        env.emit(mv);
        int16_t indef = env.immGr(0x80000000);
        Il mvp = env.mk(IpfOp::Mov);
        mvp.qp = p;
        mvp.dst = out;
        mvp.src1 = indef;
        env.emit(mvp);
        int16_t addr = env.effAddr(insn.dst.mem);
        env.emitStore(addr, out, 4);
        mem_mode ? env.fpMemPop() : env.fpPop();
        return true;
      }

      case Op::Fadd:
      case Op::Fsub:
      case Op::Fsubr:
      case Op::Fmul:
      case Op::Fdiv:
      case Op::Fdivr: {
        bool reversed = insn.op == Op::Fsubr || insn.op == Op::Fdivr;
        IpfOp op = x87ArithOp(insn.op);
        if (insn.src.kind == OperandKind::Mem) {
            int16_t b = loadFpOperand(env, insn);
            if (mem_mode) {
                int16_t a = env.fpMemLoadSt(0);
                int16_t r = env.newFr();
                farith(env, op, r, reversed ? b : a, reversed ? a : b);
                env.fpMemStoreSt(0, r);
            } else {
                int16_t a = env.frForSt(0);
                farith(env, op, a, reversed ? b : a, reversed ? a : b);
            }
        } else {
            uint8_t di = insn.dst.reg;
            uint8_t si = insn.src.reg;
            if (mem_mode) {
                int16_t a = env.fpMemLoadSt(di);
                int16_t b = env.fpMemLoadSt(si);
                int16_t r = env.newFr();
                farith(env, op, r, reversed ? b : a, reversed ? a : b);
                env.fpMemStoreSt(di, r);
                if (insn.fp_pop)
                    env.fpMemPop();
            } else {
                int16_t a = env.frForSt(di);
                int16_t b = env.frForSt(si);
                farith(env, op, a, reversed ? b : a, reversed ? a : b);
                if (insn.fp_pop)
                    env.fpPop();
            }
        }
        return true;
      }

      case Op::Fxch:
        if (mem_mode) {
            int16_t a = env.fpMemLoadSt(0);
            int16_t b = env.fpMemLoadSt(insn.dst.reg);
            env.fpMemStoreSt(0, b);
            env.fpMemStoreSt(insn.dst.reg, a);
        } else {
            env.fpSwap(insn.dst.reg);
        }
        return true;

      case Op::Fchs:
      case Op::Fabs:
      case Op::Fsqrt: {
        IpfOp op = insn.op == Op::Fchs ? IpfOp::Fneg
                 : insn.op == Op::Fabs ? IpfOp::Fabs
                                       : IpfOp::Fsqrt;
        if (mem_mode) {
            int16_t a = env.fpMemLoadSt(0);
            int16_t r = env.newFr();
            Il il = env.mk(op);
            il.dst = r;
            il.src1 = a;
            env.emit(il);
            env.fpMemStoreSt(0, r);
        } else {
            int16_t a = env.frForSt(0);
            Il il = env.mk(op);
            il.dst = a;
            il.src1 = a;
            env.emit(il);
        }
        return true;
      }

      case Op::Fcomi: {
        int16_t a = mem_mode ? env.fpMemLoadSt(0) : env.frForSt(0);
        int16_t b = mem_mode ? env.fpMemLoadSt(insn.src.reg)
                             : env.frForSt(insn.src.reg);
        // Unordered / equal / less predicates.
        int16_t pu = env.newPr(), pu2 = env.newPr();
        Il cu = env.mk(IpfOp::Fcmp);
        cu.dst = pu;
        cu.dst2 = pu2;
        cu.src1 = a;
        cu.src2 = b;
        cu.ins.crel = CmpRel::Unord;
        env.emit(cu);
        int16_t pe = env.newPr(), pe2 = env.newPr();
        Il ce = env.mk(IpfOp::Fcmp);
        ce.dst = pe;
        ce.dst2 = pe2;
        ce.src1 = a;
        ce.src2 = b;
        ce.ins.crel = CmpRel::Eq;
        env.emit(ce);
        int16_t pl = env.newPr(), pl2 = env.newPr();
        Il cl = env.mk(IpfOp::Fcmp);
        cl.dst = pl;
        cl.dst2 = pl2;
        cl.src1 = a;
        cl.src2 = b;
        cl.ins.crel = CmpRel::Lt;
        env.emit(cl);
        int16_t one = env.immGr(1);
        auto setFrom = [&](ia32::Flag flag, int16_t pred) {
            int16_t v = env.newGr();
            env.emitOp(IpfOp::Mov, v, ipf::gr_zero);
            Il mv = env.mk(IpfOp::Mov);
            mv.qp = pred;
            mv.dst = v;
            mv.src1 = one;
            env.emit(mv);
            Il mvu = env.mk(IpfOp::Mov);
            mvu.qp = pu;
            mvu.dst = v;
            mvu.src1 = one;
            env.emit(mvu);
            env.setFlagHome(flag, v);
        };
        setFrom(ia32::FlagZf, pe);
        setFrom(ia32::FlagCf, pl);
        // PF only set for unordered.
        {
            int16_t v = env.newGr();
            env.emitOp(IpfOp::Mov, v, ipf::gr_zero);
            Il mvu = env.mk(IpfOp::Mov);
            mvu.qp = pu;
            mvu.dst = v;
            mvu.src1 = one;
            env.emit(mvu);
            env.setFlagHome(ia32::FlagPf, v);
        }
        env.setFlagHome(ia32::FlagOf, ipf::gr_zero);
        env.setFlagHome(ia32::FlagSf, ipf::gr_zero);
        env.setFlagHome(ia32::FlagAf, ipf::gr_zero);
        if (insn.fp_pop)
            mem_mode ? env.fpMemPop() : env.fpPop();
        return true;
      }

      case Op::Fnstsw: {
        // TOS is a translation-time constant under the speculation; the
        // condition-code bits are not modelled (no non-i FCOM support).
        if (mem_mode) {
            int16_t tosv = env.rtAddr(rt::fp_tos);
            int16_t t = env.newGr();
            Il ld = env.mk(IpfOp::Ld);
            ld.dst = t;
            ld.src1 = tosv;
            ld.ins.size = 1;
            env.emit(ld);
            int16_t sh = env.newGr();
            Il s = env.mk(IpfOp::ShlImm);
            s.dst = sh;
            s.src1 = t;
            s.ins.imm = 11;
            env.emit(s);
            env.writeGuest16(ia32::RegEax, sh);
        } else {
            int16_t v = env.immGr(
                static_cast<int64_t>(((env.spec.tos + env.tosDelta()) & 7))
                << 11);
            env.writeGuest16(ia32::RegEax, v);
        }
        return true;
      }

      default:
        return false;
    }
}

bool
tplMmx(EmitEnv &env, const Insn &insn)
{
    if (insn.op == Op::Emms) {
        env.fpEmms();
        return true;
    }
    env.touchMmx();

    auto readMmSrc = [&](const ia32::Operand &o) -> int16_t {
        if (o.kind == OperandKind::Mm)
            return ipf::grForMmx(o.reg);
        int16_t addr = env.effAddr(o.mem);
        return env.emitLoad(addr, 8);
    };

    switch (insn.op) {
      case Op::Movd: {
        if (insn.dst.kind == OperandKind::Mm) {
            int16_t v = env.readOperand(insn.src, 4);
            Il mv = env.mk(IpfOp::Mov);
            mv.dst = ipf::grForMmx(insn.dst.reg);
            mv.src1 = v;
            env.emit(mv);
        } else {
            int16_t v = extrU(env, ipf::grForMmx(insn.src.reg), 0, 32);
            env.writeOperand(insn.dst, v, 4);
        }
        return true;
      }
      case Op::MovqMm: {
        if (insn.dst.kind == OperandKind::Mm) {
            int16_t v = readMmSrc(insn.src);
            Il mv = env.mk(IpfOp::Mov);
            mv.dst = ipf::grForMmx(insn.dst.reg);
            mv.src1 = v;
            env.emit(mv);
        } else {
            int16_t addr = env.effAddr(insn.dst.mem);
            env.emitStore(addr, ipf::grForMmx(insn.src.reg), 8);
        }
        return true;
      }
      case Op::Paddb:
      case Op::Paddw:
      case Op::Paddd:
      case Op::Psubb:
      case Op::Psubw:
      case Op::Psubd:
      case Op::Pmullw:
      case Op::Pand:
      case Op::Por:
      case Op::Pxor: {
        int16_t d = ipf::grForMmx(insn.dst.reg);
        int16_t b = readMmSrc(insn.src);
        Il il = env.mk(IpfOp::Nop);
        switch (insn.op) {
          case Op::Paddb:
            il = env.mk(IpfOp::Padd);
            il.ins.size = 1;
            break;
          case Op::Paddw:
            il = env.mk(IpfOp::Padd);
            il.ins.size = 2;
            break;
          case Op::Paddd:
            il = env.mk(IpfOp::Padd);
            il.ins.size = 4;
            break;
          case Op::Psubb:
            il = env.mk(IpfOp::Psub);
            il.ins.size = 1;
            break;
          case Op::Psubw:
            il = env.mk(IpfOp::Psub);
            il.ins.size = 2;
            break;
          case Op::Psubd:
            il = env.mk(IpfOp::Psub);
            il.ins.size = 4;
            break;
          case Op::Pmullw:
            il = env.mk(IpfOp::Pmull);
            il.ins.size = 2;
            break;
          case Op::Pand:
            il = env.mk(IpfOp::And);
            break;
          case Op::Por:
            il = env.mk(IpfOp::Or);
            break;
          case Op::Pxor:
            il = env.mk(IpfOp::Xor);
            break;
          default:
            el_panic("unreachable");
        }
        il.dst = d;
        il.src1 = d;
        il.src2 = b;
        env.emit(il);
        return true;
      }
      default:
        return false;
    }
}

namespace
{

/** Load a 16-byte memory operand into a GR pair (lo, hi). */
std::pair<int16_t, int16_t>
load128(EmitEnv &env, const ia32::MemRef &mem, bool aligned)
{
    int16_t addr = env.effAddr(mem);
    if (aligned)
        check16Aligned(env, addr);
    int16_t lo = env.emitLoad(addr, 8);
    int16_t a8 = env.newGr();
    env.emitOp(IpfOp::AddImm, a8, addr, -1, 8);
    int16_t hi = env.emitLoad(a8, 8);
    return {lo, hi};
}

void
store128(EmitEnv &env, const ia32::MemRef &mem, int16_t lo, int16_t hi,
         bool aligned)
{
    int16_t addr = env.effAddr(mem);
    if (aligned)
        check16Aligned(env, addr);
    env.emitStore(addr, lo, 8);
    int16_t a8 = env.newGr();
    env.emitOp(IpfOp::AddImm, a8, addr, -1, 8);
    env.emitStore(a8, hi, 8);
}

/** Read both halves of an XMM register as raw 64-bit GR values. */
std::pair<int16_t, int16_t>
xmmToGrs(EmitEnv &env, uint8_t i)
{
    rt::XmmRep rep = env.xmmRep(i);
    if (rep == rt::XmmInt)
        return {ipf::grForXmm(i, 0), ipf::grForXmm(i, 1)};
    unsigned gsz = rep == rt::XmmPd ? 8 : 0;
    return {getf(env, ipf::frForXmm(i, 0), gsz),
            getf(env, ipf::frForXmm(i, 1), gsz)};
}

/** Overwrite XMM register i from raw bits, in representation rep. */
void
xmmFromGrs(EmitEnv &env, uint8_t i, int16_t lo, int16_t hi,
           rt::XmmRep rep)
{
    if (rep == rt::XmmInt) {
        Il m1 = env.mk(IpfOp::Mov);
        m1.dst = ipf::grForXmm(i, 0);
        m1.src1 = lo;
        env.emit(m1);
        Il m2 = env.mk(IpfOp::Mov);
        m2.dst = ipf::grForXmm(i, 1);
        m2.src1 = hi;
        env.emit(m2);
    } else {
        unsigned ssz = rep == rt::XmmPd ? 8 : 0;
        setf(env, ipf::frForXmm(i, 0), lo, ssz);
        setf(env, ipf::frForXmm(i, 1), hi, ssz);
    }
    env.xmmDefine(i, rep);
}

/** Scalar-single lane0 value of XMM i as an FR (format Ps required). */
int16_t
ssLane0(EmitEnv &env, uint8_t i)
{
    env.xmmRequire(i, rt::XmmPs);
    int16_t bits = getf(env, ipf::frForXmm(i, 0), 0);
    int16_t lane = extrU(env, bits, 0, 32);
    int16_t f = env.newFr();
    setf(env, f, lane, 4);
    return f;
}

/** Write an FR's single value into lane0 of XMM i (format Ps). */
void
setSsLane0(EmitEnv &env, uint8_t i, int16_t f)
{
    env.xmmRequire(i, rt::XmmPs);
    int16_t fb = getf(env, f, 4);
    int16_t cur = getf(env, ipf::frForXmm(i, 0), 0);
    int16_t merged = depInto(env, fb, cur, 0, 32);
    setf(env, ipf::frForXmm(i, 0), merged, 0);
}

} // namespace

bool
tplSse(EmitEnv &env, const Insn &insn)
{
    switch (insn.op) {
      case Op::Movaps:
      case Op::Movups:
      case Op::Movdqa: {
        bool aligned = insn.op != Op::Movups;
        rt::XmmRep rep = insn.op == Op::Movdqa ? rt::XmmInt : rt::XmmPs;
        if (insn.dst.kind == OperandKind::Xmm &&
            insn.src.kind == OperandKind::Xmm) {
            auto [lo, hi] = xmmToGrs(env, insn.src.reg);
            xmmFromGrs(env, insn.dst.reg, lo, hi, env.xmmRep(insn.src.reg));
        } else if (insn.dst.kind == OperandKind::Xmm) {
            auto [lo, hi] = load128(env, insn.src.mem, aligned);
            xmmFromGrs(env, insn.dst.reg, lo, hi, rep);
        } else {
            auto [lo, hi] = xmmToGrs(env, insn.src.reg);
            store128(env, insn.dst.mem, lo, hi, aligned);
        }
        return true;
      }

      case Op::Movss: {
        if (insn.dst.kind == OperandKind::Xmm &&
            insn.src.kind == OperandKind::Xmm) {
            env.xmmRequire(insn.src.reg, rt::XmmPs);
            env.xmmRequire(insn.dst.reg, rt::XmmPs);
            int16_t sb = getf(env, ipf::frForXmm(insn.src.reg, 0), 0);
            int16_t lane = extrU(env, sb, 0, 32);
            int16_t db = getf(env, ipf::frForXmm(insn.dst.reg, 0), 0);
            int16_t merged = depInto(env, lane, db, 0, 32);
            setf(env, ipf::frForXmm(insn.dst.reg, 0), merged, 0);
        } else if (insn.dst.kind == OperandKind::Xmm) {
            int16_t addr = env.effAddr(insn.src.mem);
            int16_t v = env.emitLoad(addr, 4);
            setf(env, ipf::frForXmm(insn.dst.reg, 0), v, 0);
            setf(env, ipf::frForXmm(insn.dst.reg, 1), ipf::gr_zero, 0);
            env.xmmDefine(insn.dst.reg, rt::XmmPs);
        } else {
            env.xmmRequire(insn.src.reg, rt::XmmPs);
            int16_t sb = getf(env, ipf::frForXmm(insn.src.reg, 0), 0);
            int16_t lane = extrU(env, sb, 0, 32);
            int16_t addr = env.effAddr(insn.dst.mem);
            env.emitStore(addr, lane, 4);
        }
        return true;
      }

      case Op::MovsdX: {
        if (insn.dst.kind == OperandKind::Xmm &&
            insn.src.kind == OperandKind::Xmm) {
            env.xmmRequire(insn.src.reg, rt::XmmPd);
            env.xmmRequire(insn.dst.reg, rt::XmmPd);
            fmovTo(env, ipf::frForXmm(insn.dst.reg, 0),
                   ipf::frForXmm(insn.src.reg, 0));
        } else if (insn.dst.kind == OperandKind::Xmm) {
            int16_t addr = env.effAddr(insn.src.mem);
            int16_t v = env.emitLoad(addr, 8);
            setf(env, ipf::frForXmm(insn.dst.reg, 0), v, 8);
            setf(env, ipf::frForXmm(insn.dst.reg, 1), ipf::gr_zero, 8);
            env.xmmDefine(insn.dst.reg, rt::XmmPd);
        } else {
            env.xmmRequire(insn.src.reg, rt::XmmPd);
            int16_t v = getf(env, ipf::frForXmm(insn.src.reg, 0), 8);
            int16_t addr = env.effAddr(insn.dst.mem);
            env.emitStore(addr, v, 8);
        }
        return true;
      }

      case Op::Addps:
      case Op::Subps:
      case Op::Mulps:
      case Op::Divps: {
        IpfOp op = insn.op == Op::Addps ? IpfOp::Fpadd
                 : insn.op == Op::Subps ? IpfOp::Fpsub
                 : insn.op == Op::Mulps ? IpfOp::Fpmpy
                                        : IpfOp::Fpdiv;
        uint8_t d = insn.dst.reg;
        env.xmmRequire(d, rt::XmmPs);
        int16_t blo, bhi;
        if (insn.src.kind == OperandKind::Xmm) {
            env.xmmRequire(insn.src.reg, rt::XmmPs);
            blo = ipf::frForXmm(insn.src.reg, 0);
            bhi = ipf::frForXmm(insn.src.reg, 1);
        } else {
            auto [glo, ghi] = load128(env, insn.src.mem, true);
            blo = env.newFr();
            setf(env, blo, glo, 0);
            bhi = env.newFr();
            setf(env, bhi, ghi, 0);
        }
        farith(env, op, ipf::frForXmm(d, 0), ipf::frForXmm(d, 0), blo);
        farith(env, op, ipf::frForXmm(d, 1), ipf::frForXmm(d, 1), bhi);
        return true;
      }

      case Op::Addss:
      case Op::Subss:
      case Op::Mulss:
      case Op::Divss:
      case Op::Sqrtss: {
        uint8_t d = insn.dst.reg;
        int16_t b;
        if (insn.src.kind == OperandKind::Xmm) {
            b = ssLane0(env, insn.src.reg);
        } else {
            int16_t addr = env.effAddr(insn.src.mem);
            int16_t v = env.emitLoad(addr, 4);
            b = env.newFr();
            setf(env, b, v, 4);
        }
        int16_t r = env.newFr();
        if (insn.op == Op::Sqrtss) {
            Il il = env.mk(IpfOp::Fsqrt);
            il.dst = r;
            il.src1 = b;
            il.ins.prec = FpPrec::Single;
            env.emit(il);
        } else {
            int16_t a = ssLane0(env, d);
            IpfOp op = insn.op == Op::Addss ? IpfOp::Fadd
                     : insn.op == Op::Subss ? IpfOp::Fsub
                     : insn.op == Op::Mulss ? IpfOp::Fmpy
                                            : IpfOp::Fdiv;
            farith(env, op, r, a, b, FpPrec::Single);
        }
        setSsLane0(env, d, r);
        return true;
      }

      case Op::Addpd:
      case Op::Subpd:
      case Op::Mulpd: {
        IpfOp op = insn.op == Op::Addpd ? IpfOp::Fadd
                 : insn.op == Op::Subpd ? IpfOp::Fsub
                                        : IpfOp::Fmpy;
        uint8_t d = insn.dst.reg;
        env.xmmRequire(d, rt::XmmPd);
        int16_t blo, bhi;
        if (insn.src.kind == OperandKind::Xmm) {
            env.xmmRequire(insn.src.reg, rt::XmmPd);
            blo = ipf::frForXmm(insn.src.reg, 0);
            bhi = ipf::frForXmm(insn.src.reg, 1);
        } else {
            auto [glo, ghi] = load128(env, insn.src.mem, true);
            blo = env.newFr();
            setf(env, blo, glo, 8);
            bhi = env.newFr();
            setf(env, bhi, ghi, 8);
        }
        farith(env, op, ipf::frForXmm(d, 0), ipf::frForXmm(d, 0), blo,
               FpPrec::Double);
        farith(env, op, ipf::frForXmm(d, 1), ipf::frForXmm(d, 1), bhi,
               FpPrec::Double);
        return true;
      }

      case Op::Addsd:
      case Op::Mulsd: {
        uint8_t d = insn.dst.reg;
        env.xmmRequire(d, rt::XmmPd);
        int16_t b;
        if (insn.src.kind == OperandKind::Xmm) {
            env.xmmRequire(insn.src.reg, rt::XmmPd);
            b = ipf::frForXmm(insn.src.reg, 0);
        } else {
            int16_t addr = env.effAddr(insn.src.mem);
            int16_t v = env.emitLoad(addr, 8);
            b = env.newFr();
            setf(env, b, v, 8);
        }
        farith(env, insn.op == Op::Addsd ? IpfOp::Fadd : IpfOp::Fmpy,
               ipf::frForXmm(d, 0), ipf::frForXmm(d, 0), b,
               FpPrec::Double);
        return true;
      }

      case Op::Andps:
      case Op::Xorps:
      case Op::PadddX: {
        uint8_t d = insn.dst.reg;
        env.xmmRequire(d, rt::XmmInt);
        int16_t blo, bhi;
        if (insn.src.kind == OperandKind::Xmm) {
            env.xmmRequire(insn.src.reg, rt::XmmInt);
            blo = ipf::grForXmm(insn.src.reg, 0);
            bhi = ipf::grForXmm(insn.src.reg, 1);
        } else {
            auto [glo, ghi] = load128(env, insn.src.mem, true);
            blo = glo;
            bhi = ghi;
        }
        for (unsigned half = 0; half < 2; ++half) {
            int16_t dd = ipf::grForXmm(d, half);
            int16_t bb = half ? bhi : blo;
            Il il = env.mk(IpfOp::Nop);
            if (insn.op == Op::Andps)
                il = env.mk(IpfOp::And);
            else if (insn.op == Op::Xorps)
                il = env.mk(IpfOp::Xor);
            else {
                il = env.mk(IpfOp::Padd);
                il.ins.size = 4;
            }
            il.dst = dd;
            il.src1 = dd;
            il.src2 = bb;
            env.emit(il);
        }
        return true;
      }

      case Op::Ucomiss: {
        int16_t a = ssLane0(env, insn.dst.reg);
        int16_t b;
        if (insn.src.kind == OperandKind::Xmm) {
            b = ssLane0(env, insn.src.reg);
        } else {
            int16_t addr = env.effAddr(insn.src.mem);
            int16_t v = env.emitLoad(addr, 4);
            b = env.newFr();
            setf(env, b, v, 4);
        }
        int16_t pu = env.newPr(), pu2 = env.newPr();
        Il cu = env.mk(IpfOp::Fcmp);
        cu.dst = pu;
        cu.dst2 = pu2;
        cu.src1 = a;
        cu.src2 = b;
        cu.ins.crel = CmpRel::Unord;
        env.emit(cu);
        int16_t pe = env.newPr(), pe2 = env.newPr();
        Il ce = env.mk(IpfOp::Fcmp);
        ce.dst = pe;
        ce.dst2 = pe2;
        ce.src1 = a;
        ce.src2 = b;
        ce.ins.crel = CmpRel::Eq;
        env.emit(ce);
        int16_t pl = env.newPr(), pl2 = env.newPr();
        Il cl = env.mk(IpfOp::Fcmp);
        cl.dst = pl;
        cl.dst2 = pl2;
        cl.src1 = a;
        cl.src2 = b;
        cl.ins.crel = CmpRel::Lt;
        env.emit(cl);
        int16_t one = env.immGr(1);
        auto setFrom = [&](ia32::Flag flag, int16_t pred) {
            int16_t v = env.newGr();
            env.emitOp(IpfOp::Mov, v, ipf::gr_zero);
            Il mv = env.mk(IpfOp::Mov);
            mv.qp = pred;
            mv.dst = v;
            mv.src1 = one;
            env.emit(mv);
            Il mvu = env.mk(IpfOp::Mov);
            mvu.qp = pu;
            mvu.dst = v;
            mvu.src1 = one;
            env.emit(mvu);
            env.setFlagHome(flag, v);
        };
        setFrom(ia32::FlagZf, pe);
        setFrom(ia32::FlagCf, pl);
        {
            int16_t v = env.newGr();
            env.emitOp(IpfOp::Mov, v, ipf::gr_zero);
            Il mvu = env.mk(IpfOp::Mov);
            mvu.qp = pu;
            mvu.dst = v;
            mvu.src1 = one;
            env.emit(mvu);
            env.setFlagHome(ia32::FlagPf, v);
        }
        env.setFlagHome(ia32::FlagOf, ipf::gr_zero);
        env.setFlagHome(ia32::FlagSf, ipf::gr_zero);
        env.setFlagHome(ia32::FlagAf, ipf::gr_zero);
        return true;
      }

      case Op::Cvtps2pd: {
        uint8_t d = insn.dst.reg;
        int16_t bits;
        if (insn.src.kind == OperandKind::Xmm) {
            env.xmmRequire(insn.src.reg, rt::XmmPs);
            bits = getf(env, ipf::frForXmm(insn.src.reg, 0), 0);
        } else {
            auto [glo, ghi] = load128(env, insn.src.mem, true);
            bits = glo;
        }
        int16_t l0 = extrU(env, bits, 0, 32);
        int16_t l1 = extrU(env, bits, 32, 32);
        setf(env, ipf::frForXmm(d, 0), l0, 4);
        setf(env, ipf::frForXmm(d, 1), l1, 4);
        env.xmmDefine(d, rt::XmmPd);
        return true;
      }

      case Op::Cvtpd2ps: {
        uint8_t d = insn.dst.reg;
        int16_t flo, fhi;
        if (insn.src.kind == OperandKind::Xmm) {
            env.xmmRequire(insn.src.reg, rt::XmmPd);
            flo = ipf::frForXmm(insn.src.reg, 0);
            fhi = ipf::frForXmm(insn.src.reg, 1);
        } else {
            auto [glo, ghi] = load128(env, insn.src.mem, true);
            flo = env.newFr();
            setf(env, flo, glo, 8);
            fhi = env.newFr();
            setf(env, fhi, ghi, 8);
        }
        int16_t b0 = getf(env, flo, 4);
        int16_t b1 = getf(env, fhi, 4);
        int16_t hi_sh = env.newGr();
        Il sh = env.mk(IpfOp::ShlImm);
        sh.dst = hi_sh;
        sh.src1 = b1;
        sh.ins.imm = 32;
        env.emit(sh);
        int16_t packed = env.newGr();
        env.emitOp(IpfOp::Or, packed, hi_sh, b0);
        setf(env, ipf::frForXmm(d, 0), packed, 0);
        setf(env, ipf::frForXmm(d, 1), ipf::gr_zero, 0);
        env.xmmDefine(d, rt::XmmPs);
        return true;
      }

      case Op::Cvtsi2ss: {
        uint8_t d = insn.dst.reg;
        int16_t v = env.readOperand(insn.src, 4);
        int16_t s = env.newGr();
        Il sx = env.mk(IpfOp::Sxt);
        sx.dst = s;
        sx.src1 = v;
        sx.ins.size = 4;
        env.emit(sx);
        int16_t f = env.newFr();
        setf(env, f, s, 0);
        int16_t fv = env.newFr();
        Il cv = env.mk(IpfOp::FcvtXf);
        cv.dst = fv;
        cv.src1 = f;
        env.emit(cv);
        // Round to single.
        int16_t r = env.newFr();
        Il rd = env.mk(IpfOp::Fadd);
        rd.dst = r;
        rd.src1 = fv;
        rd.src2 = ipf::fr_zero;
        rd.ins.prec = FpPrec::Single;
        env.emit(rd);
        setSsLane0(env, d, r);
        return true;
      }

      case Op::Cvttss2si: {
        int16_t f;
        if (insn.src.kind == OperandKind::Xmm) {
            f = ssLane0(env, insn.src.reg);
        } else {
            int16_t addr = env.effAddr(insn.src.mem);
            int16_t v = env.emitLoad(addr, 4);
            f = env.newFr();
            setf(env, f, v, 4);
        }
        int16_t t = env.newFr();
        Il cv = env.mk(IpfOp::FcvtFxTrunc);
        cv.dst = t;
        cv.src1 = f;
        cv.ins.size = 0; // truncate
        env.emit(cv);
        int16_t q = getf(env, t, 0);
        int16_t sq = env.newGr();
        Il sx = env.mk(IpfOp::Sxt);
        sx.dst = sq;
        sx.src1 = q;
        sx.ins.size = 4;
        env.emit(sx);
        int16_t p = env.newPr(), p2 = env.newPr();
        Il c = env.mk(IpfOp::Cmp);
        c.dst = p;
        c.dst2 = p2;
        c.src1 = q;
        c.src2 = sq;
        c.ins.crel = CmpRel::Ne;
        env.emit(c);
        int16_t out = env.newGr();
        Il mv = env.mk(IpfOp::Mov);
        mv.dst = out;
        mv.src1 = q;
        env.emit(mv);
        int16_t indef = env.immGr(0x80000000);
        Il mvp = env.mk(IpfOp::Mov);
        mvp.qp = p;
        mvp.dst = out;
        mvp.src1 = indef;
        env.emit(mvp);
        env.writeGuest(static_cast<Reg>(insn.dst.reg), out, 4,
                       /*clean=*/false);
        return true;
      }

      default:
        return false;
    }
}

} // namespace el::core
