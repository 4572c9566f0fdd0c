#include "core/emit_env.hh"

#include "ipf/regs.hh"
#include "support/bitfield.hh"
#include "support/logging.hh"

namespace el::core
{

using ia32::Flag;
using ipf::IpfOp;

namespace
{

/** Does this opcode belong to the program-ordered scheduling class? */
bool
orderedOp(IpfOp op)
{
    switch (op) {
      case IpfOp::St:
      case IpfOp::Stf:
      case IpfOp::ChkS:
      case IpfOp::Mf:
      case IpfOp::Br:
      case IpfOp::BrCall:
      case IpfOp::BrRet:
      case IpfOp::BrInd:
      case IpfOp::MovToBr:
      case IpfOp::Exit:
      case IpfOp::XDivS:
      case IpfOp::XDivU:
      case IpfOp::XRemS:
      case IpfOp::XRemU:
        return true;
      default:
        return false;
    }
}

constexpr Flag flag_order[6] = {
    ia32::FlagCf, ia32::FlagPf, ia32::FlagAf,
    ia32::FlagZf, ia32::FlagSf, ia32::FlagOf,
};

} // namespace

EmitEnv::EmitEnv(const Options &opts, Phase ph, int32_t blk,
                 SpecContext sc)
    : options(opts), phase(ph), block_id(blk), spec(sc)
{
    for (unsigned r = 0; r < ia32::NumRegs; ++r)
        guest_loc_[r] = ipf::grForGuest(r);
    cur_tos_ = spec.tos;
    tag_now_ = spec.tag;
    cur_domain_ = spec.mmx_domain;
    for (unsigned k = 0; k < 8; ++k) {
        fp_perm_[k] = ipf::frForFpSlot(k);
        xmm_rep_[k] = static_cast<rt::XmmRep>(
            (spec.xmm_format >> rt::formatShift(k)) & 0xf);
    }
    xmm_entry_formats_ = spec.xmm_format;
}

// ----- IL emission ----------------------------------------------------

Il
EmitEnv::mk(IpfOp op) const
{
    Il il;
    il.ins.op = op;
    return il;
}

int32_t
EmitEnv::emit(Il il)
{
    il.ins.meta.bucket = bucket_override_ ? override_bucket_
                         : phase == Phase::Hot ? ipf::Bucket::Hot
                                               : ipf::Bucket::Cold;
    il.ins.meta.block_id = block_id;
    // Block-end exits are emitted after endInsn() clears cur_insn; they
    // still belong to the last translated guest instruction, so fall
    // back to its address (the profiler keys probe events on it).
    il.ins.meta.ia32_ip = cur_insn ? cur_insn->addr : last_insn_ip_;
    il.region = region_;
    il.ins.meta.commit_id = cur_commit_id_;
    il.sideways = in_sideways_;
    if (orderedOp(il.ins.op))
        il.is_ordered = true;
    if (il.ins.op == IpfOp::Ld || il.ins.op == IpfOp::Ldf) {
        // Guest loads can fault: ordered until the scheduler decides to
        // control-speculate them (hot phase).
        il.is_ordered = true;
    }
    return to_head_ ? head.append(il) : body.append(il);
}

int32_t
EmitEnv::emitOp(IpfOp op, int16_t dst, int16_t s1, int16_t s2, int64_t imm)
{
    Il il = mk(op);
    il.dst = dst;
    il.src1 = s1;
    il.src2 = s2;
    il.ins.imm = imm;
    return emit(il);
}

// ----- virtual registers ------------------------------------------------

int16_t
EmitEnv::newGr()
{
    if (next_gr_ > 30000)
        overflow_ = true;
    return next_gr_++;
}

int16_t
EmitEnv::newFr()
{
    if (next_fr_ > 30000)
        overflow_ = true;
    return next_fr_++;
}

int16_t
EmitEnv::newPr()
{
    if (next_pr_ > 30000)
        overflow_ = true;
    return next_pr_++;
}

int16_t
EmitEnv::immGr(int64_t value)
{
    int16_t v = newGr();
    if (value >= -(1 << 21) && value < (1 << 21)) {
        emitOp(IpfOp::AddImm, v, ipf::gr_zero, -1, value); // addl
    } else {
        Il il = mk(IpfOp::Movl);
        il.dst = v;
        il.ins.imm = value;
        emit(il);
    }
    return v;
}

// ----- guest integer state ------------------------------------------------

int16_t
EmitEnv::readGuest(ia32::Reg reg)
{
    return guest_loc_[reg];
}

void
EmitEnv::writeGuest(ia32::Reg reg, int16_t val, unsigned size, bool clean)
{
    if (size == 4) {
        // Keep the invariant that guest GPR containers are zero-extended
        // 32-bit values.
        if (clean) {
            guest_loc_[reg] = val;
        } else {
            int16_t z = newGr();
            Il il = mk(IpfOp::Zxt);
            il.dst = z;
            il.src1 = val;
            il.ins.size = 4;
            emit(il);
            guest_loc_[reg] = z;
        }
    } else if (size == 2) {
        writeGuest16(reg, val);
        return;
    } else {
        el_panic("writeGuest: bad size %u", size);
    }
    guest_dirty_ |= 1u << reg;
}

int16_t
EmitEnv::readGuest16(ia32::Reg reg)
{
    int16_t v = newGr();
    Il il = mk(IpfOp::ExtrU);
    il.dst = v;
    il.src1 = guest_loc_[reg];
    il.ins.pos = 0;
    il.ins.len = 16;
    emit(il);
    return v;
}

void
EmitEnv::writeGuest16(ia32::Reg reg, int16_t val)
{
    int16_t merged = newGr();
    Il il = mk(IpfOp::Dep);
    il.dst = merged;
    il.src1 = val;
    il.src2 = guest_loc_[reg];
    il.ins.pos = 0;
    il.ins.len = 16;
    emit(il);
    guest_loc_[reg] = merged;
    guest_dirty_ |= 1u << reg;
}

int16_t
EmitEnv::readGuest8(uint8_t enc)
{
    unsigned reg = enc & 3;
    unsigned pos = enc < 4 ? 0 : 8;
    int16_t v = newGr();
    Il il = mk(IpfOp::ExtrU);
    il.dst = v;
    il.src1 = guest_loc_[reg];
    il.ins.pos = static_cast<uint8_t>(pos);
    il.ins.len = 8;
    emit(il);
    return v;
}

void
EmitEnv::writeGuest8(uint8_t enc, int16_t val)
{
    unsigned reg = enc & 3;
    unsigned pos = enc < 4 ? 0 : 8;
    int16_t merged = newGr();
    Il il = mk(IpfOp::Dep);
    il.dst = merged;
    il.src1 = val;
    il.src2 = guest_loc_[reg];
    il.ins.pos = static_cast<uint8_t>(pos);
    il.ins.len = 8;
    emit(il);
    guest_loc_[reg] = merged;
    guest_dirty_ |= 1u << reg;
}

int16_t
EmitEnv::readOperand(const ia32::Operand &op, unsigned size)
{
    using ia32::OperandKind;
    switch (op.kind) {
      case OperandKind::Gpr:
        if (size == 4)
            return readGuest(static_cast<ia32::Reg>(op.reg));
        return readGuest16(static_cast<ia32::Reg>(op.reg));
      case OperandKind::Gpr8:
        return readGuest8(op.reg);
      case OperandKind::Imm:
        return immGr(static_cast<int64_t>(
            truncToSize(static_cast<uint64_t>(op.imm), size)));
      case OperandKind::Mem:
        return emitLoad(effAddr(op.mem), size);
      default:
        el_panic("readOperand: bad kind");
    }
}

void
EmitEnv::writeOperand(const ia32::Operand &op, int16_t val, unsigned size)
{
    using ia32::OperandKind;
    switch (op.kind) {
      case OperandKind::Gpr:
        if (size == 4)
            writeGuest(static_cast<ia32::Reg>(op.reg), val, 4);
        else
            writeGuest16(static_cast<ia32::Reg>(op.reg), val);
        return;
      case OperandKind::Gpr8:
        writeGuest8(op.reg, val);
        return;
      case OperandKind::Mem:
        emitStore(effAddr(op.mem), val, size);
        return;
      default:
        el_panic("writeOperand: bad kind");
    }
}

// ----- flags -----------------------------------------------------------

int16_t
EmitEnv::flagHomeFor(Flag flag) const
{
    switch (flag) {
      case ia32::FlagCf:
        return ipf::gr_flag_cf;
      case ia32::FlagPf:
        return ipf::gr_flag_pf;
      case ia32::FlagAf:
        return ipf::gr_flag_af;
      case ia32::FlagZf:
        return ipf::gr_flag_zf;
      case ia32::FlagSf:
        return ipf::gr_flag_sf;
      case ia32::FlagOf:
        return ipf::gr_flag_of;
      case ia32::FlagDf:
        return ipf::gr_flag_df;
      default:
        el_panic("no home for flag %x", flag);
    }
}

void
EmitEnv::setFlags(LazyFlags::Kind kind, unsigned size, int16_t wide,
                  int16_t opa, int16_t opb, int16_t res,
                  uint32_t written_mask)
{
    written_mask &= ia32::FlagsArith;
    if (!options.enable_eflags_elim) {
        // Ablation: every flag an instruction writes is materialized.
        lazy_ = LazyFlags{kind, static_cast<uint8_t>(size), wide, opa,
                          opb, res, written_mask};
        materializeFlags(written_mask);
        return;
    }
    // Flags still lazy from an earlier op that this op does NOT rewrite
    // must be materialized if they may still be read (approximated by the
    // current liveness mask).
    uint32_t keep = lazy_.dirty & ~written_mask & live_mask_;
    if (keep)
        materializeFlags(keep);
    lazy_ = LazyFlags{kind, static_cast<uint8_t>(size), wide, opa, opb,
                      res, written_mask};
    if (phase == Phase::Cold) {
        // Cold policy: live flags become architectural immediately.
        materializeFlags(written_mask & live_mask_);
    }
}

void
EmitEnv::materializeOne(Flag flag)
{
    int16_t home = flagHomeFor(flag);
    unsigned nbits = lazy_.size * 8;
    auto tbit01 = [&](int16_t src, unsigned pos) {
        Il il = mk(IpfOp::ExtrU);
        il.dst = home;
        il.src1 = src;
        il.ins.pos = static_cast<uint8_t>(pos);
        il.ins.len = 1;
        emit(il);
    };

    switch (flag) {
      case ia32::FlagZf: {
        Il il = mk(IpfOp::CmpImm);
        int16_t p = newPr(), p2 = newPr();
        il.dst = p;
        il.dst2 = p2;
        il.ins.imm = 0;
        il.src2 = lazy_.res;
        il.ins.crel = ipf::CmpRel::Eq;
        emit(il);
        emitOp(IpfOp::Mov, home, ipf::gr_zero);
        Il set = mk(IpfOp::AddImm);
        set.qp = p;
        set.dst = home;
        set.src1 = ipf::gr_zero;
        set.ins.imm = 1;
        emit(set);
        break;
      }
      case ia32::FlagSf:
        tbit01(lazy_.res, nbits - 1);
        break;
      case ia32::FlagPf: {
        int16_t lo = newGr();
        Il e = mk(IpfOp::ExtrU);
        e.dst = lo;
        e.src1 = lazy_.res;
        e.ins.pos = 0;
        e.ins.len = 8;
        emit(e);
        int16_t pc = newGr();
        emitOp(IpfOp::Popcnt, pc, lo);
        int16_t lsb = newGr();
        Il x = mk(IpfOp::ExtrU);
        x.dst = lsb;
        x.src1 = pc;
        x.ins.pos = 0;
        x.ins.len = 1;
        emit(x);
        // PF = !(popcount & 1)
        int16_t one = immGr(1);
        emitOp(IpfOp::Xor, home, lsb, one);
        break;
      }
      case ia32::FlagCf:
        if (lazy_.kind == LazyFlags::Kind::Add) {
            // Carry out of bit nbits of the wide sum.
            tbit01(lazy_.wide, nbits);
        } else if (lazy_.kind == LazyFlags::Kind::Sub) {
            // Borrow: sign bit of the wide 64-bit difference.
            tbit01(lazy_.wide, 63);
        } else {
            emitOp(IpfOp::Mov, home, ipf::gr_zero);
        }
        break;
      case ia32::FlagOf: {
        if (lazy_.kind == LazyFlags::Kind::Logic) {
            emitOp(IpfOp::Mov, home, ipf::gr_zero);
            break;
        }
        // Add: OF = ((opa ^ res) & (opb ^ res)) >> msb
        // Sub: OF = ((opa ^ opb) & (opa ^ res)) >> msb
        int16_t t1 = newGr(), t2 = newGr(), t3 = newGr();
        if (lazy_.kind == LazyFlags::Kind::Add) {
            emitOp(IpfOp::Xor, t1, lazy_.opa, lazy_.res);
            emitOp(IpfOp::Xor, t2, lazy_.opb, lazy_.res);
        } else {
            emitOp(IpfOp::Xor, t1, lazy_.opa, lazy_.opb);
            emitOp(IpfOp::Xor, t2, lazy_.opa, lazy_.res);
        }
        emitOp(IpfOp::And, t3, t1, t2);
        tbit01(t3, nbits - 1);
        break;
      }
      case ia32::FlagAf: {
        if (lazy_.kind == LazyFlags::Kind::Logic) {
            emitOp(IpfOp::Mov, home, ipf::gr_zero);
            break;
        }
        int16_t t1 = newGr(), t2 = newGr();
        emitOp(IpfOp::Xor, t1, lazy_.opa, lazy_.opb);
        emitOp(IpfOp::Xor, t2, t1, lazy_.res);
        tbit01(t2, 4);
        break;
      }
      default:
        el_panic("materializeOne: bad flag");
    }
}

void
EmitEnv::materializeFlags(uint32_t mask)
{
    mask &= lazy_.dirty;
    for (unsigned k = 0; k < 6; ++k) {
        if (mask & flag_order[k])
            materializeOne(flag_order[k]);
    }
    lazy_.dirty &= ~mask;
}

void
EmitEnv::setFlagHome(Flag flag, int16_t val01)
{
    emitOp(IpfOp::Mov, flagHomeFor(flag), val01);
    lazy_.dirty &= ~static_cast<uint32_t>(flag);
}

int16_t
EmitEnv::readFlagValue(Flag flag)
{
    if (lazy_.dirty & flag)
        materializeFlags(flag);
    return flagHomeFor(flag);
}

FlagRecipe
EmitEnv::flagRecipe() const
{
    FlagRecipe r;
    if (lazy_.dirty == 0) {
        r.op = FlagRecipe::LazyOp::Homes;
        return r;
    }
    switch (lazy_.kind) {
      case LazyFlags::Kind::Add:
        r.op = FlagRecipe::LazyOp::Add;
        break;
      case LazyFlags::Kind::Sub:
        r.op = FlagRecipe::LazyOp::Sub;
        break;
      case LazyFlags::Kind::Logic:
        r.op = FlagRecipe::LazyOp::Logic;
        break;
      default:
        r.op = FlagRecipe::LazyOp::Homes;
        return r;
    }
    r.size = lazy_.size;
    r.dirty_mask = lazy_.dirty;
    r.wide = Loc::gr(lazy_.wide);
    r.a = Loc::gr(lazy_.opa);
    r.b = Loc::gr(lazy_.opb);
    r.res = Loc::gr(lazy_.res);
    return r;
}

int16_t
EmitEnv::condPred(ia32::Cond cond)
{
    using ia32::Cond;
    using ipf::CmpRel;
    bool negate = static_cast<uint8_t>(cond) & 1;
    Cond base = static_cast<Cond>(static_cast<uint8_t>(cond) & ~1u);

    // Fast paths straight from the lazy compare operands.
    if ((lazy_.dirty & ia32::condFlagsRead(cond)) ==
        ia32::condFlagsRead(cond) &&
        lazy_.kind == LazyFlags::Kind::Sub && lazy_.opa >= 0 &&
        lazy_.opb >= 0) {
        CmpRel rel;
        bool ok = true;
        bool need_sext = false;
        switch (base) {
          case Cond::E:
            rel = CmpRel::Eq;
            break;
          case Cond::B:
            rel = CmpRel::Ltu;
            break;
          case Cond::BE:
            rel = CmpRel::Leu;
            break;
          case Cond::L:
            rel = CmpRel::Lt;
            need_sext = true;
            break;
          case Cond::LE:
            rel = CmpRel::Le;
            need_sext = true;
            break;
          default:
            ok = false;
            rel = CmpRel::Eq;
            break;
        }
        if (ok) {
            int16_t a = lazy_.opa, b = lazy_.opb;
            if (need_sext) {
                int16_t sa = newGr(), sb = newGr();
                Il e1 = mk(IpfOp::Sxt);
                e1.dst = sa;
                e1.src1 = a;
                e1.ins.size = lazy_.size;
                emit(e1);
                Il e2 = mk(IpfOp::Sxt);
                e2.dst = sb;
                e2.src1 = b;
                e2.ins.size = lazy_.size;
                emit(e2);
                a = sa;
                b = sb;
            }
            Il c = mk(IpfOp::Cmp);
            int16_t p = newPr(), p2 = newPr();
            c.dst = p;
            c.dst2 = p2;
            c.src1 = a;
            c.src2 = b;
            c.ins.crel = rel;
            emit(c);
            return negate ? p2 : p;
        }
    }
    if ((base == Cond::E || base == Cond::S) && (lazy_.dirty != 0) &&
        lazy_.res >= 0 &&
        (lazy_.dirty & ia32::condFlagsRead(cond)) ==
            ia32::condFlagsRead(cond)) {
        int16_t p = newPr(), p2 = newPr();
        if (base == Cond::E) {
            Il c = mk(IpfOp::CmpImm);
            c.dst = p;
            c.dst2 = p2;
            c.ins.imm = 0;
            c.src2 = lazy_.res;
            c.ins.crel = CmpRel::Eq;
            emit(c);
        } else {
            Il t = mk(IpfOp::Tbit);
            t.dst = p;
            t.dst2 = p2;
            t.src1 = lazy_.res;
            t.ins.pos = static_cast<uint8_t>(lazy_.size * 8 - 1);
            emit(t);
        }
        return negate ? p2 : p;
    }

    // Generic path: materialize the flags this condition reads, then
    // evaluate the boolean expression from the 0/1 homes.
    materializeFlags(ia32::condFlagsRead(cond));
    int16_t v;
    switch (base) {
      case Cond::O:
        v = flagHomeFor(ia32::FlagOf);
        break;
      case Cond::B:
        v = flagHomeFor(ia32::FlagCf);
        break;
      case Cond::E:
        v = flagHomeFor(ia32::FlagZf);
        break;
      case Cond::BE: {
        v = newGr();
        emitOp(IpfOp::Or, v, flagHomeFor(ia32::FlagCf),
               flagHomeFor(ia32::FlagZf));
        break;
      }
      case Cond::S:
        v = flagHomeFor(ia32::FlagSf);
        break;
      case Cond::P:
        v = flagHomeFor(ia32::FlagPf);
        break;
      case Cond::L: {
        v = newGr();
        emitOp(IpfOp::Xor, v, flagHomeFor(ia32::FlagSf),
               flagHomeFor(ia32::FlagOf));
        break;
      }
      case Cond::LE: {
        int16_t x = newGr();
        emitOp(IpfOp::Xor, x, flagHomeFor(ia32::FlagSf),
               flagHomeFor(ia32::FlagOf));
        v = newGr();
        emitOp(IpfOp::Or, v, x, flagHomeFor(ia32::FlagZf));
        break;
      }
      default:
        el_panic("condPred: bad cond");
    }
    Il c = mk(IpfOp::CmpImm);
    int16_t p = newPr(), p2 = newPr();
    c.dst = p;
    c.dst2 = p2;
    c.ins.imm = 0;
    c.src2 = v;
    c.ins.crel = negate ? CmpRel::Eq : CmpRel::Ne;
    emit(c);
    return p;
}

// ----- addresses & memory ---------------------------------------------

int16_t
EmitEnv::rtAddr(int64_t offset)
{
    int16_t v = newGr();
    emitOp(IpfOp::AddImm, v, ipf::gr_rt_base, -1, offset);
    return v;
}

int16_t
EmitEnv::effAddr(const ia32::MemRef &mem)
{
    int16_t base_loc = mem.has_base
        ? guest_loc_[mem.base]
        : static_cast<int16_t>(-1);
    int16_t index_loc = mem.has_index
        ? guest_loc_[mem.index]
        : static_cast<int16_t>(-1);

    auto key = std::make_tuple(base_loc, index_loc, mem.scale, mem.disp);
    bool use_cse = options.enable_addr_cse && phase == Phase::Hot;
    if (use_cse) {
        auto it = addr_cse_.find(key);
        if (it != addr_cse_.end())
            return it->second;
    }

    // Combine index*scale with base.
    int16_t acc = -1;
    if (index_loc >= 0) {
        unsigned lg = mem.scale == 8 ? 3 : mem.scale == 4 ? 2
                     : mem.scale == 2 ? 1 : 0;
        if (base_loc >= 0 && lg > 0) {
            acc = newGr();
            Il il = mk(IpfOp::Shladd);
            il.dst = acc;
            il.src1 = index_loc;
            il.src2 = base_loc;
            il.ins.imm = lg;
            emit(il);
        } else if (base_loc >= 0) {
            acc = newGr();
            emitOp(IpfOp::Add, acc, index_loc, base_loc);
        } else if (lg > 0) {
            acc = newGr();
            Il il = mk(IpfOp::ShlImm);
            il.dst = acc;
            il.src1 = index_loc;
            il.ins.imm = lg;
            emit(il);
        } else {
            acc = index_loc;
        }
    } else if (base_loc >= 0) {
        acc = base_loc;
    }

    if (mem.disp != 0 || acc < 0) {
        int16_t t = newGr();
        if (acc < 0) {
            emitOp(IpfOp::AddImm, t, ipf::gr_zero, -1,
                   static_cast<int64_t>(static_cast<uint32_t>(mem.disp)));
        } else if (mem.disp >= -(1 << 21) && mem.disp < (1 << 21)) {
            emitOp(IpfOp::AddImm, t, acc, -1, mem.disp);
        } else {
            int16_t d = immGr(mem.disp);
            emitOp(IpfOp::Add, t, acc, d);
        }
        acc = t;
    }

    // 32-bit address wraparound.
    bool needs_wrap = mem.disp != 0 || (base_loc >= 0 && index_loc >= 0) ||
                      (index_loc >= 0 && mem.scale > 1);
    if (needs_wrap) {
        int16_t w = newGr();
        Il il = mk(IpfOp::Zxt);
        il.dst = w;
        il.src1 = acc;
        il.ins.size = 4;
        emit(il);
        acc = w;
    }

    if (use_cse)
        addr_cse_[key] = acc;
    return acc;
}

void
EmitEnv::setAccessPolicy(MisalignPolicy policy, uint8_t granularity)
{
    policy_ = policy;
    policy_granularity_ = granularity;
}

std::pair<int16_t, int16_t>
EmitEnv::alignPreds(int16_t addr, unsigned size)
{
    auto key = std::make_pair(addr, size);
    if (phase == Phase::Hot) {
        auto it = align_cache_.find(key);
        if (it != align_cache_.end())
            return it->second;
    }
    int16_t p_mis = newPr(), p_al = newPr();
    unsigned lg = size == 8 ? 3 : size == 4 ? 2 : size == 2 ? 1 : 0;
    if (lg == 1) {
        Il t = mk(IpfOp::Tbit);
        t.dst = p_mis;
        t.dst2 = p_al;
        t.src1 = addr;
        t.ins.pos = 0;
        emit(t);
    } else {
        int16_t low = newGr();
        Il e = mk(IpfOp::ExtrU);
        e.dst = low;
        e.src1 = addr;
        e.ins.pos = 0;
        e.ins.len = static_cast<uint8_t>(lg);
        emit(e);
        Il c = mk(IpfOp::CmpImm);
        c.dst = p_mis;
        c.dst2 = p_al;
        c.ins.imm = 0;
        c.src2 = low;
        c.ins.crel = ipf::CmpRel::Ne;
        emit(c);
    }
    if (phase == Phase::Hot)
        align_cache_[key] = {p_mis, p_al};
    return {p_mis, p_al};
}

int16_t
EmitEnv::emitSplitLoad(int16_t addr, unsigned size, int16_t p_mis,
                       int16_t p_al, unsigned granularity)
{
    int16_t result = newGr();
    // Aligned path.
    Il ld = mk(IpfOp::Ld);
    ld.qp = p_al;
    ld.dst = result;
    ld.src1 = addr;
    ld.ins.size = static_cast<uint8_t>(size);
    ld.ins.exit_payload = static_cast<int64_t>(region_start_ip_);
    emit(ld);
    // Misaligned path: `granularity`-sized pieces assembled with dep.
    unsigned g = granularity ? granularity : 1;
    unsigned parts = size / g;
    for (unsigned k = 0; k < parts; ++k) {
        int16_t part_addr = addr;
        if (k) {
            part_addr = newGr();
            Il a = mk(IpfOp::AddImm);
            a.qp = p_mis;
            a.dst = part_addr;
            a.src1 = addr;
            a.ins.imm = static_cast<int64_t>(k * g);
            emit(a);
        }
        int16_t part = (k == 0) ? result : newGr();
        Il pl = mk(IpfOp::Ld);
        pl.qp = p_mis;
        pl.dst = part;
        pl.src1 = part_addr;
        pl.ins.size = static_cast<uint8_t>(g);
        pl.ins.exit_payload = static_cast<int64_t>(region_start_ip_);
        emit(pl);
        if (k) {
            Il d = mk(IpfOp::Dep);
            d.qp = p_mis;
            d.dst = result;
            d.src1 = part;
            d.src2 = result;
            d.ins.pos = static_cast<uint8_t>(k * g * 8);
            d.ins.len = static_cast<uint8_t>(g * 8);
            emit(d);
        }
    }
    return result;
}

void
EmitEnv::emitSplitStore(int16_t addr, int16_t val, unsigned size,
                        int16_t p_mis, int16_t p_al, unsigned granularity)
{
    Il st = mk(IpfOp::St);
    st.qp = p_al;
    st.src1 = addr;
    st.src2 = val;
    st.ins.size = static_cast<uint8_t>(size);
    emit(st);
    unsigned g = granularity ? granularity : 1;
    unsigned parts = size / g;
    for (unsigned k = 0; k < parts; ++k) {
        int16_t part = val;
        if (k) {
            part = newGr();
            Il e = mk(IpfOp::ExtrU);
            e.qp = p_mis;
            e.dst = part;
            e.src1 = val;
            e.ins.pos = static_cast<uint8_t>(k * g * 8);
            e.ins.len = static_cast<uint8_t>(g * 8);
            emit(e);
        }
        int16_t part_addr = addr;
        if (k) {
            part_addr = newGr();
            Il a = mk(IpfOp::AddImm);
            a.qp = p_mis;
            a.dst = part_addr;
            a.src1 = addr;
            a.ins.imm = static_cast<int64_t>(k * g);
            emit(a);
        }
        Il ps = mk(IpfOp::St);
        ps.qp = p_mis;
        ps.src1 = part_addr;
        ps.src2 = part;
        ps.ins.size = static_cast<uint8_t>(g);
        emit(ps);
    }
}

int16_t
EmitEnv::emitLoad(int16_t addr, unsigned size)
{
    uint32_t access_idx = access_count++;
    if (size == 1 || policy_ == MisalignPolicy::Plain) {
        int16_t v = newGr();
        Il il = mk(IpfOp::Ld);
        il.dst = v;
        il.src1 = addr;
        il.ins.size = static_cast<uint8_t>(size);
        il.is_load = true;
        il.ins.exit_payload = static_cast<int64_t>(region_start_ip_);
        emit(il);
        return v;
    }

    switch (policy_) {
      case MisalignPolicy::DetectExit:
      case MisalignPolicy::DetectLight: {
        auto [p_mis, p_al] = alignPreds(addr, size);
        setBucket(ipf::Bucket::Overhead);
        Il x = mk(IpfOp::Exit);
        x.qp = p_mis;
        x.ins.exit_reason = ipf::ExitReason::Misaligned;
        x.ins.exit_payload = phase == Phase::Hot
            ? static_cast<int64_t>(region_start_ip_)
            : static_cast<int64_t>(access_idx);
        emit(x);
        clearBucket();
        int16_t v = newGr();
        Il il = mk(IpfOp::Ld);
        il.dst = v;
        il.src1 = addr;
        il.ins.size = static_cast<uint8_t>(size);
        il.is_load = true;
        il.ins.exit_payload = static_cast<int64_t>(region_start_ip_);
        emit(il);
        return v;
      }
      case MisalignPolicy::CountAndAvoid: {
        auto [p_mis, p_al] = alignPreds(addr, size);
        emitMisalignCounter(p_mis, addr, size, access_idx);
        return emitSplitLoad(addr, size, p_mis, p_al, 1);
      }
      case MisalignPolicy::Avoid: {
        auto [p_mis, p_al] = alignPreds(addr, size);
        unsigned g = policy_granularity_ ? policy_granularity_ : 1;
        if (g >= size)
            g = size / 2 ? size / 2 : 1;
        return emitSplitLoad(addr, size, p_mis, p_al, g);
      }
      default:
        el_panic("bad access policy");
    }
}

void
EmitEnv::emitStore(int16_t addr, int16_t val, unsigned size)
{
    uint32_t access_idx = access_count++;
    if (size == 1 || policy_ == MisalignPolicy::Plain) {
        Il il = mk(IpfOp::St);
        il.src1 = addr;
        il.src2 = val;
        il.ins.size = static_cast<uint8_t>(size);
        emit(il);
        return;
    }
    switch (policy_) {
      case MisalignPolicy::DetectExit:
      case MisalignPolicy::DetectLight: {
        auto [p_mis, p_al] = alignPreds(addr, size);
        setBucket(ipf::Bucket::Overhead);
        Il x = mk(IpfOp::Exit);
        x.qp = p_mis;
        x.ins.exit_reason = ipf::ExitReason::Misaligned;
        x.ins.exit_payload = phase == Phase::Hot
            ? static_cast<int64_t>(region_start_ip_)
            : static_cast<int64_t>(access_idx);
        emit(x);
        clearBucket();
        Il il = mk(IpfOp::St);
        il.src1 = addr;
        il.src2 = val;
        il.ins.size = static_cast<uint8_t>(size);
        emit(il);
        return;
      }
      case MisalignPolicy::CountAndAvoid: {
        auto [p_mis, p_al] = alignPreds(addr, size);
        emitMisalignCounter(p_mis, addr, size, access_idx);
        emitSplitStore(addr, val, size, p_mis, p_al, 1);
        return;
      }
      case MisalignPolicy::Avoid: {
        auto [p_mis, p_al] = alignPreds(addr, size);
        unsigned g = policy_granularity_ ? policy_granularity_ : 1;
        if (g >= size)
            g = size / 2 ? size / 2 : 1;
        emitSplitStore(addr, val, size, p_mis, p_al, g);
        return;
      }
      default:
        el_panic("bad access policy");
    }
}

void
EmitEnv::emitMisalignCounter(int16_t p_mis, int16_t addr, unsigned size,
                             uint32_t access_idx)
{
    setBucket(ipf::Bucket::Overhead);
    // detail |= (addr & (size-1)) | SEEN
    int16_t caddr = rtAddr(misalign_ctr_off_ + access_idx * 4);
    int16_t cur = newGr();
    Il ld = mk(IpfOp::Ld);
    ld.qp = p_mis;
    ld.dst = cur;
    ld.src1 = caddr;
    ld.ins.size = 4;
    emit(ld);
    unsigned lg = size == 8 ? 3 : size == 4 ? 2 : 1;
    int16_t low = newGr();
    Il e = mk(IpfOp::ExtrU);
    e.qp = p_mis;
    e.dst = low;
    e.src1 = addr;
    e.ins.pos = 0;
    e.ins.len = static_cast<uint8_t>(lg);
    emit(e);
    int16_t merged = newGr();
    Il o1 = mk(IpfOp::Or);
    o1.qp = p_mis;
    o1.dst = merged;
    o1.src1 = cur;
    o1.src2 = low;
    emit(o1);
    int16_t seen = newGr();
    Il s = mk(IpfOp::AddImm);
    s.qp = p_mis;
    s.dst = seen;
    s.src1 = ipf::gr_zero;
    s.ins.imm = 0x100;
    emit(s);
    int16_t merged2 = newGr();
    Il o2 = mk(IpfOp::Or);
    o2.qp = p_mis;
    o2.dst = merged2;
    o2.src1 = merged;
    o2.src2 = seen;
    emit(o2);
    Il st = mk(IpfOp::St);
    st.qp = p_mis;
    st.src1 = caddr;
    st.src2 = merged2;
    st.ins.size = 4;
    emit(st);
    clearBucket();
}

int16_t
EmitEnv::emitLoadF(int16_t addr, unsigned fsize)
{
    ++access_count;
    int16_t v = newFr();
    unsigned bytes = fsize == 9 ? 8 : fsize;
    bool avoid = (policy_ == MisalignPolicy::CountAndAvoid ||
                  policy_ == MisalignPolicy::Avoid) &&
                 (bytes == 4 || bytes == 8);
    if (!avoid) {
        Il il = mk(IpfOp::Ldf);
        il.dst = v;
        il.src1 = addr;
        il.ins.size = static_cast<uint8_t>(fsize);
        il.is_load = true;
        il.ins.exit_payload = static_cast<int64_t>(region_start_ip_);
        emit(il);
        return v;
    }
    // Avoidance path: assemble the raw bits in a GR, then setf.
    auto [p_mis, p_al] = alignPreds(addr, bytes);
    int16_t bits = emitSplitLoad(addr, bytes, p_mis, p_al, 1);
    Il sf = mk(IpfOp::Setf);
    sf.dst = v;
    sf.src1 = bits;
    sf.ins.size = fsize == 9 ? 0 : static_cast<uint8_t>(bytes);
    emit(sf);
    return v;
}

void
EmitEnv::emitStoreF(int16_t addr, int16_t fval, unsigned fsize)
{
    ++access_count;
    unsigned bytes = fsize == 9 ? 8 : fsize;
    bool avoid = (policy_ == MisalignPolicy::CountAndAvoid ||
                  policy_ == MisalignPolicy::Avoid) &&
                 (bytes == 4 || bytes == 8);
    if (!avoid) {
        Il il = mk(IpfOp::Stf);
        il.src1 = addr;
        il.src2 = fval;
        il.ins.size = static_cast<uint8_t>(fsize);
        emit(il);
        return;
    }
    int16_t bits = newGr();
    Il gf = mk(IpfOp::Getf);
    gf.dst = bits;
    gf.src1 = fval;
    gf.ins.size = fsize == 9 ? 0 : static_cast<uint8_t>(bytes);
    emit(gf);
    auto [p_mis, p_al] = alignPreds(addr, bytes);
    emitSplitStore(addr, bits, bytes, p_mis, p_al, 1);
}

} // namespace el::core
