#include "ipf/machine.hh"

#include <cmath>

#include "support/bitfield.hh"
#include "support/logging.hh"
#include "support/profile.hh"

namespace el::ipf
{

namespace
{

/** No register sources. */
constexpr RegClass no_srcs[3] = {};

/**
 * Classes of the source fields the machine reads. An Exit's src1 is a
 * source only on an IndirectMiss exit: invalidateEntry() leaves any
 * instruction's register fields behind when it turns it into an Exit,
 * and RegisterHot exits carry their counter register there.
 */
const RegClass *
sourceClasses(const Instr &i, const OpInfo &info)
{
    if (i.op == IpfOp::Exit && i.exit_reason != ExitReason::IndirectMiss)
        return no_srcs;
    return info.src;
}

/** Round a scalar FP result to the instruction's precision. */
long double
roundPrec(FpPrec prec, long double v)
{
    switch (prec) {
      case FpPrec::Single:
        return static_cast<float>(v);
      case FpPrec::Double:
        return static_cast<double>(v);
      case FpPrec::Extended:
        return v;
    }
    return v;
}

float
laneF32(uint64_t bits, unsigned lane)
{
    uint32_t b = static_cast<uint32_t>(bits >> (lane * 32));
    float f;
    std::memcpy(&f, &b, 4);
    return f;
}

uint64_t
packF32(float lo, float hi)
{
    uint32_t a, b;
    std::memcpy(&a, &lo, 4);
    std::memcpy(&b, &hi, 4);
    return static_cast<uint64_t>(a) | (static_cast<uint64_t>(b) << 32);
}

} // namespace

void
Machine::reset()
{
    grs_.fill(0);
    nats_.fill(false);
    for (auto &f : frs_)
        f = Fr{};
    frs_[fr_one].setVal(1.0L);
    prs_.fill(false);
    prs_[pr_true] = true;
    brs_.fill(0);
    gr_ready_.fill(0.0);
    fr_ready_.fill(0.0);
    grp_open_ = false;
    branched_ = false;
}

void
Machine::closeGroup()
{
    if (!grp_open_)
        return;
    auto ceil_div = [](unsigned a, unsigned b) { return (a + b - 1) / b; };
    auto used = [&](Slot s) { return grp_slots_[static_cast<size_t>(s)]; };
    unsigned width = 1;
    width = std::max(width, ceil_div(grp_total_, 6));
    width = std::max(width, ceil_div(used(Slot::F), 2));
    width = std::max(width, ceil_div(used(Slot::B), 3));
    width = std::max(width, ceil_div(used(Slot::M), 2));
    width = std::max(width, ceil_div(used(Slot::I), 2));
    width = std::max(width, ceil_div(used(Slot::M) + used(Slot::I) +
                                         used(Slot::A), 4));
    double cost = width + grp_stall_ + grp_extra_;
    cycle_ += cost;
    stats_.cycles[static_cast<size_t>(grp_bucket_)] += cost;
    misalign_cycles_[static_cast<size_t>(grp_bucket_)] += grp_misalign_;
    if (track_blocks_) {
        size_t k = static_cast<size_t>(grp_block_ + 1);
        if (k >= block_costs_.size())
            block_costs_.resize(k + 1);
        BlockCost &bc = block_costs_[k];
        bc.cycles += cost;
        bc.insns += grp_insns_;
    }

    grp_slots_.fill(0);
    grp_total_ = 0;
    grp_insns_ = 0;
    grp_stall_ = 0.0;
    grp_extra_ = 0.0;
    grp_misalign_ = 0.0;
    grp_open_ = false;
    if (cfg_.verify_groups) {
        grp_gr_writer_.fill(0);
        grp_fr_writer_.fill(0);
    }
}

void
Machine::accountInstr(const Instr &i)
{
    if (!grp_open_) {
        grp_open_ = true;
        grp_bucket_ = i.meta.bucket;
        grp_block_ = i.meta.block_id;
    }
    const OpInfo &info = opInfo(i.op);
    ++grp_insns_;
    grp_slots_[static_cast<size_t>(info.slot)] += info.width;
    grp_total_ += info.width;

    const RegClass *cls = sourceClasses(i, info);
    auto stall = [&](RegClass c, uint8_t r) {
        if (c == RegClass::Gr && r != gr_zero)
            grp_stall_ = std::max(grp_stall_, gr_ready_[r] - cycle_);
        else if (c == RegClass::Fr)
            grp_stall_ = std::max(grp_stall_, fr_ready_[r] - cycle_);
    };
    stall(cls[0], i.src1);
    stall(cls[1], i.src2);
    stall(cls[2], i.src3);
    if (cfg_.verify_groups && prs_[i.qp])
        verifyGroup(i);
}

void
Machine::verifyGroup(const Instr &i)
{
    const OpInfo &info = opInfo(i.op);
    const RegClass *cls = sourceClasses(i, info);
    const uint8_t srcs[3] = {i.src1, i.src2, i.src3};
    for (unsigned k = 0; k < 3; ++k) {
        if (cls[k] == RegClass::Gr && srcs[k] != gr_zero)
            el_assert(!grp_gr_writer_[srcs[k]],
                      "intra-group GR RAW on r%u at cache[%lld] (%s)",
                      srcs[k], static_cast<long long>(ip_),
                      i.toString().c_str());
        else if (cls[k] == RegClass::Fr)
            el_assert(!grp_fr_writer_[srcs[k]],
                      "intra-group FR RAW on f%u at cache[%lld]",
                      srcs[k], static_cast<long long>(ip_));
    }
    if (info.dst == RegClass::Gr && i.dst != gr_zero)
        grp_gr_writer_[i.dst] = 1;
    if (info.dst == RegClass::Fr)
        grp_fr_writer_[i.dst] = 1;
}

void
Machine::profileObserve(const Instr &i)
{
    // Report the architectural-probe instructions to the profiler. A
    // probe is *visited* whenever execution reaches it, even when its
    // qualifying predicate nullifies it — which is exactly what makes
    // the event stream a pure function of the retired guest instruction
    // sequence (see support/profile.hh). Predicate and register values
    // are architecturally current here: the scheduler never places a
    // probe in the same issue group as its producers.
    switch (i.op) {
      case IpfOp::Exit:
        switch (i.exit_reason) {
          case ExitReason::LinkMiss:
            // Predicated: a conditional-branch probe (cold taken-exit
            // or hot side exit). Unpredicated LinkMiss exits belong to
            // unconditional transfers, which hot traces elide — not a
            // stable observation point, so they are ignored.
            if (i.qp)
                profiler_->condEvent(i.meta.ia32_ip,
                                     static_cast<uint32_t>(i.exit_payload),
                                     prs_[i.qp], false);
            break;
          case ExitReason::IndirectMiss:
            // Predicated: the fast-lookup miss exit, visited on every
            // execution of the indirect site; the target EIP is in the
            // source register on hit and miss alike. The unpredicated
            // backstop after the indirect jump is unreachable.
            if (i.qp)
                profiler_->indirectEvent(
                    i.meta.ia32_ip, static_cast<uint32_t>(grs_[i.src1]),
                    !prs_[i.qp]);
            break;
          case ExitReason::SyscallGate:
            profiler_->stopEvent(i.meta.ia32_ip);
            break;
          case ExitReason::Breakpoint:
          case ExitReason::Halt:
            profiler_->stopEvent(static_cast<uint32_t>(i.exit_payload));
            break;
          case ExitReason::GuestFault:
            // Only the unpredicated form is a block terminator (an
            // undecodable instruction); predicated GuestFault exits are
            // mid-block arithmetic-fault checks.
            if (!i.qp)
                profiler_->stopEvent(
                    static_cast<uint32_t>(i.exit_payload >> 8));
            break;
          default:
            break;
        }
        break;
      case IpfOp::Br:
        // A linked conditional probe: patchToBranch() keeps the
        // LinkMiss reason/payload as metadata on the patched branch.
        if (i.qp && i.exit_reason == ExitReason::LinkMiss)
            profiler_->condEvent(i.meta.ia32_ip,
                                 static_cast<uint32_t>(i.exit_payload),
                                 prs_[i.qp], true);
        break;
      default:
        break;
    }
}

StopInfo
Machine::run(int64_t entry, uint64_t max_cycles)
{
    ip_ = entry;
    double cycle_limit = cycle_ + static_cast<double>(max_cycles);
    StopInfo stop;
    for (;;) {
        if (ip_ < 0 || ip_ >= code_.nextIndex()) {
            closeGroup();
            stop.kind = StopKind::BadIp;
            stop.instr_index = ip_;
            return stop;
        }
        if (cycle_ >= cycle_limit) {
            closeGroup();
            stop.kind = StopKind::CycleLimit;
            stop.instr_index = ip_;
            return stop;
        }
        const Instr &i = code_.at(ip_);
        accountInstr(i);
        if (profiler_ && (i.op == IpfOp::Exit || i.op == IpfOp::Br))
            profileObserve(i);
        if (visit_log_ && i.meta.block_id != visit_last_) {
            visit_last_ = i.meta.block_id;
            visit_log_->push(i.meta.block_id);
        }
        branched_ = false;
        bool cont = execute(i, &stop);
        ++retired_;
        stats_.insns[static_cast<size_t>(i.meta.bucket)] += 1;
        if (!cont) {
            closeGroup();
            stop.instr_index = ip_;
            return stop;
        }
        bool end_group = i.stop || branched_;
        if (!branched_)
            ++ip_;
        if (end_group)
            closeGroup();
    }
}

bool
Machine::execute(const Instr &i, StopInfo *stop)
{
    // A false qualifying predicate nullifies the instruction (it still
    // consumed its slot in accountInstr — predicated-off instructions
    // cost issue width, as the paper notes).
    if (!prs_[i.qp])
        return true;

    double issue = cycle_ + grp_stall_;

    auto set_gr = [&](uint8_t r, uint64_t v, bool nat, unsigned lat) {
        if (r == gr_zero)
            return;
        grs_[r] = v;
        nats_[r] = nat;
        gr_ready_[r] = issue + lat;
    };
    auto src_nat2 = [&](uint8_t a, uint8_t b) {
        return nats_[a] || nats_[b];
    };
    auto set_pr2 = [&](uint8_t p1, uint8_t p2, bool v) {
        if (p1 != pr_true)
            prs_[p1] = v;
        if (p2 != pr_true)
            prs_[p2] = !v;
    };

    switch (i.op) {
      case IpfOp::Nop:
      case IpfOp::Mf:
        return true;

      case IpfOp::Add:
        set_gr(i.dst, grs_[i.src1] + grs_[i.src2],
               src_nat2(i.src1, i.src2), cfg_.lat_alu);
        return true;
      case IpfOp::Sub:
        set_gr(i.dst, grs_[i.src1] - grs_[i.src2],
               src_nat2(i.src1, i.src2), cfg_.lat_alu);
        return true;
      case IpfOp::AddImm:
        set_gr(i.dst, grs_[i.src1] + static_cast<uint64_t>(i.imm),
               nats_[i.src1], cfg_.lat_alu);
        return true;
      case IpfOp::And:
        set_gr(i.dst, grs_[i.src1] & grs_[i.src2],
               src_nat2(i.src1, i.src2), cfg_.lat_alu);
        return true;
      case IpfOp::Or:
        set_gr(i.dst, grs_[i.src1] | grs_[i.src2],
               src_nat2(i.src1, i.src2), cfg_.lat_alu);
        return true;
      case IpfOp::Xor:
        set_gr(i.dst, grs_[i.src1] ^ grs_[i.src2],
               src_nat2(i.src1, i.src2), cfg_.lat_alu);
        return true;
      case IpfOp::Andcm:
        set_gr(i.dst, grs_[i.src1] & ~grs_[i.src2],
               src_nat2(i.src1, i.src2), cfg_.lat_alu);
        return true;
      case IpfOp::Shl:
        set_gr(i.dst, grs_[i.src1] << (grs_[i.src2] & 63),
               src_nat2(i.src1, i.src2), cfg_.lat_alu);
        return true;
      case IpfOp::ShlImm:
        set_gr(i.dst, grs_[i.src1] << (i.imm & 63), nats_[i.src1],
               cfg_.lat_alu);
        return true;
      case IpfOp::Shr:
        set_gr(i.dst,
               static_cast<uint64_t>(static_cast<int64_t>(grs_[i.src1]) >>
                                     (grs_[i.src2] & 63)),
               src_nat2(i.src1, i.src2), cfg_.lat_alu);
        return true;
      case IpfOp::ShrU:
        set_gr(i.dst, grs_[i.src1] >> (grs_[i.src2] & 63),
               src_nat2(i.src1, i.src2), cfg_.lat_alu);
        return true;
      case IpfOp::ShrImm:
        set_gr(i.dst,
               static_cast<uint64_t>(static_cast<int64_t>(grs_[i.src1]) >>
                                     (i.imm & 63)),
               nats_[i.src1], cfg_.lat_alu);
        return true;
      case IpfOp::ShrUImm:
        set_gr(i.dst, grs_[i.src1] >> (i.imm & 63), nats_[i.src1],
               cfg_.lat_alu);
        return true;
      case IpfOp::Shladd:
        set_gr(i.dst, (grs_[i.src1] << (i.imm & 7)) + grs_[i.src2],
               src_nat2(i.src1, i.src2), cfg_.lat_alu);
        return true;
      case IpfOp::Sxt:
        set_gr(i.dst,
               static_cast<uint64_t>(sext(grs_[i.src1], i.size * 8)),
               nats_[i.src1], cfg_.lat_alu);
        return true;
      case IpfOp::Zxt:
        set_gr(i.dst, truncToSize(grs_[i.src1], i.size), nats_[i.src1],
               cfg_.lat_alu);
        return true;
      case IpfOp::Movl:
        set_gr(i.dst, static_cast<uint64_t>(i.imm), false, cfg_.lat_alu);
        return true;
      case IpfOp::Mov:
        set_gr(i.dst, grs_[i.src1], nats_[i.src1], cfg_.lat_alu);
        return true;
      case IpfOp::MovToBr:
        brs_[i.dst & 7] = grs_[i.src1];
        return true;
      case IpfOp::MovFromBr:
        set_gr(i.dst, brs_[i.src1 & 7], false, cfg_.lat_alu);
        return true;

      case IpfOp::Cmp:
      case IpfOp::CmpImm: {
        uint64_t a, b;
        bool nat;
        if (i.op == IpfOp::Cmp) {
            a = grs_[i.src1];
            b = grs_[i.src2];
            nat = src_nat2(i.src1, i.src2);
        } else {
            a = static_cast<uint64_t>(i.imm);
            b = grs_[i.src2];
            nat = nats_[i.src2];
        }
        bool v = false;
        if (!nat) {
            int64_t sa = static_cast<int64_t>(a);
            int64_t sb = static_cast<int64_t>(b);
            switch (i.crel) {
              case CmpRel::Eq:
                v = a == b;
                break;
              case CmpRel::Ne:
                v = a != b;
                break;
              case CmpRel::Lt:
                v = sa < sb;
                break;
              case CmpRel::Le:
                v = sa <= sb;
                break;
              case CmpRel::Gt:
                v = sa > sb;
                break;
              case CmpRel::Ge:
                v = sa >= sb;
                break;
              case CmpRel::Ltu:
                v = a < b;
                break;
              case CmpRel::Leu:
                v = a <= b;
                break;
              case CmpRel::Gtu:
                v = a > b;
                break;
              case CmpRel::Geu:
                v = a >= b;
                break;
              default:
                el_panic("bad integer cmp relation");
            }
            set_pr2(i.dst, i.dst2, v);
        } else {
            // NaT sources clear both targets (cmp.unc semantics).
            if (i.dst != pr_true)
                prs_[i.dst] = false;
            if (i.dst2 != pr_true)
                prs_[i.dst2] = false;
        }
        return true;
      }

      case IpfOp::Tbit: {
        bool v = bit(grs_[i.src1], i.pos);
        set_pr2(i.dst, i.dst2, v);
        return true;
      }

      case IpfOp::Dep:
        set_gr(i.dst,
               insertBits(grs_[i.src2], i.pos, i.len, grs_[i.src1]),
               src_nat2(i.src1, i.src2), cfg_.lat_alu);
        return true;
      case IpfOp::DepZ:
        set_gr(i.dst,
               insertBits(0, i.pos, i.len, grs_[i.src1]),
               nats_[i.src1], cfg_.lat_alu);
        return true;
      case IpfOp::Extr:
        set_gr(i.dst,
               static_cast<uint64_t>(
                   sext(bits(grs_[i.src1], i.pos, i.len), i.len)),
               nats_[i.src1], cfg_.lat_alu);
        return true;
      case IpfOp::ExtrU:
        set_gr(i.dst, bits(grs_[i.src1], i.pos, i.len), nats_[i.src1],
               cfg_.lat_alu);
        return true;
      case IpfOp::Popcnt: {
        uint64_t v = grs_[i.src1];
        unsigned c = 0;
        for (; v; v &= v - 1)
            ++c;
        set_gr(i.dst, c, nats_[i.src1], cfg_.lat_mul);
        return true;
      }

      case IpfOp::Padd:
      case IpfOp::Psub:
      case IpfOp::Pmull:
      case IpfOp::Pcmp: {
        uint64_t a = grs_[i.src1], b = grs_[i.src2], r = 0;
        unsigned lane_bits = i.size * 8;
        unsigned nlanes = 64 / lane_bits;
        for (unsigned k = 0; k < nlanes; ++k) {
            uint64_t la = bits(a, k * lane_bits, lane_bits);
            uint64_t lb = bits(b, k * lane_bits, lane_bits);
            uint64_t lr = 0;
            switch (i.op) {
              case IpfOp::Padd:
                lr = la + lb;
                break;
              case IpfOp::Psub:
                lr = la - lb;
                break;
              case IpfOp::Pmull:
                lr = static_cast<uint64_t>(static_cast<int16_t>(la) *
                                           static_cast<int16_t>(lb));
                break;
              case IpfOp::Pcmp:
                lr = (la == lb) ? ~0ULL : 0;
                break;
              default:
                el_panic("unreachable");
            }
            r = insertBits(r, k * lane_bits, lane_bits, lr);
        }
        set_gr(i.dst, r, src_nat2(i.src1, i.src2), cfg_.lat_mul);
        return true;
      }

      case IpfOp::Xmul:
        set_gr(i.dst, grs_[i.src1] * grs_[i.src2],
               src_nat2(i.src1, i.src2), 12);
        return true;
      case IpfOp::XDivS:
      case IpfOp::XDivU:
      case IpfOp::XRemS:
      case IpfOp::XRemU: {
        el_assert(!src_nat2(i.src1, i.src2), "NaT at divide");
        uint64_t a = grs_[i.src1];
        uint64_t b = grs_[i.src2];
        el_assert(b != 0, "divide by zero reached the divide macro; the "
                  "template must emit a zero check first");
        uint64_t r;
        if (i.op == IpfOp::XDivU) {
            r = a / b;
        } else if (i.op == IpfOp::XRemU) {
            r = a % b;
        } else {
            int64_t sa = static_cast<int64_t>(a);
            int64_t sb = static_cast<int64_t>(b);
            el_assert(!(sa == INT64_MIN && sb == -1), "divide overflow");
            r = static_cast<uint64_t>(i.op == IpfOp::XDivS ? sa / sb
                                                           : sa % sb);
        }
        set_gr(i.dst, r, false, 45);
        return true;
      }

      case IpfOp::Ld: {
        uint64_t addr = grs_[i.src1];
        if (nats_[i.src1]) {
            // Speculative chain: propagate the NaT.
            set_gr(i.dst, 0, true, cfg_.lat_ld);
            return true;
        }
        uint64_t v = 0;
        auto r = mem_.read(addr, i.size, &v);
        if (!r.ok()) {
            if (i.spec == Spec::S) {
                set_gr(i.dst, 0, true, cfg_.lat_ld); // defer into NaT
                return true;
            }
            stop->kind = StopKind::MemFault;
            stop->fault_addr = r.fault_addr;
            stop->fault_is_write = false;
            return false;
        }
        unsigned lat = cfg_.lat_ld + dcache_.access(addr, i.size);
        if (!isAligned(addr, i.size)) {
            ++misaligned_;
            grp_extra_ += cfg_.misalign_penalty;
            grp_misalign_ += cfg_.misalign_penalty;
        }
        set_gr(i.dst, v, false, lat);
        if (i.imm != 0) // post-increment
            set_gr(i.src1, addr + static_cast<uint64_t>(i.imm), false,
                   cfg_.lat_alu);
        return true;
      }

      case IpfOp::St: {
        uint64_t addr = grs_[i.src1];
        el_assert(!nats_[i.src1] && !nats_[i.src2],
                  "NaT consumption at a store (translator bug)");
        auto r = mem_.write(addr, i.size, grs_[i.src2]);
        if (!r.ok()) {
            stop->kind = StopKind::MemFault;
            stop->fault_addr = r.fault_addr;
            stop->fault_is_write = true;
            return false;
        }
        dcache_.access(addr, i.size);
        if (!isAligned(addr, i.size)) {
            ++misaligned_;
            grp_extra_ += cfg_.misalign_penalty;
            grp_misalign_ += cfg_.misalign_penalty;
        }
        if (i.imm != 0)
            set_gr(i.src1, addr + static_cast<uint64_t>(i.imm), false,
                   cfg_.lat_alu);
        return true;
      }

      case IpfOp::ChkS:
        if (nats_[i.src1]) {
            if (i.target < 0) {
                stop->kind = StopKind::Exit;
                stop->reason = ExitReason::Resync;
                stop->payload = i.exit_payload;
                return false;
            }
            ip_ = i.target;
            branched_ = true;
            grp_extra_ += cfg_.br_taken_bubble;
        }
        return true;

      case IpfOp::Ldf: {
        uint64_t addr = grs_[i.src1];
        el_assert(!nats_[i.src1], "NaT address at ldf");
        unsigned bytes = i.size == 9 ? 8 : i.size;
        uint8_t buf[16] = {};
        auto r = mem_.readBytes(addr, buf, bytes);
        if (!r.ok()) {
            stop->kind = StopKind::MemFault;
            stop->fault_addr = r.fault_addr;
            stop->fault_is_write = false;
            return false;
        }
        unsigned lat = cfg_.lat_ld + dcache_.access(addr, bytes);
        if (!isAligned(addr, bytes == 10 ? 16 : bytes)) {
            ++misaligned_;
            grp_extra_ += cfg_.misalign_penalty;
            grp_misalign_ += cfg_.misalign_penalty;
        }
        Fr &f = frs_[i.dst];
        if (i.size == 4) {
            float v;
            std::memcpy(&v, buf, 4);
            f.setVal(v);
        } else if (i.size == 8) {
            double v;
            std::memcpy(&v, buf, 8);
            f.setVal(v);
        } else if (i.size == 9) {
            uint64_t v;
            std::memcpy(&v, buf, 8);
            f.setBits(v);
        } else {
            long double v;
            std::memcpy(&v, buf, 10);
            f.setVal(v);
        }
        fr_ready_[i.dst] = issue + lat;
        if (i.imm != 0)
            set_gr(i.src1, addr + static_cast<uint64_t>(i.imm), false,
                   cfg_.lat_alu);
        return true;
      }

      case IpfOp::Stf: {
        uint64_t addr = grs_[i.src1];
        el_assert(!nats_[i.src1], "NaT address at stf");
        const Fr &f = frs_[i.src2];
        uint8_t buf[16] = {};
        unsigned bytes = i.size == 9 ? 8 : i.size;
        if (i.size == 4) {
            float v = static_cast<float>(f.valView());
            std::memcpy(buf, &v, 4);
        } else if (i.size == 8) {
            double v = static_cast<double>(f.valView());
            std::memcpy(buf, &v, 8);
        } else if (i.size == 9) {
            uint64_t v = f.bitsView();
            std::memcpy(buf, &v, 8);
        } else {
            long double v = f.valView();
            std::memcpy(buf, &v, 10);
        }
        auto r = mem_.writeBytes(addr, buf, bytes);
        if (!r.ok()) {
            stop->kind = StopKind::MemFault;
            stop->fault_addr = r.fault_addr;
            stop->fault_is_write = true;
            return false;
        }
        dcache_.access(addr, bytes);
        if (!isAligned(addr, bytes == 10 ? 16 : bytes)) {
            ++misaligned_;
            grp_extra_ += cfg_.misalign_penalty;
            grp_misalign_ += cfg_.misalign_penalty;
        }
        if (i.imm != 0)
            set_gr(i.src1, addr + static_cast<uint64_t>(i.imm), false,
                   cfg_.lat_alu);
        return true;
      }

      case IpfOp::Getf: {
        // size 0: significand bits; 4: single memory format;
        // 8: double memory format (getf.sig / getf.s / getf.d).
        uint64_t out;
        if (i.size == 4) {
            float f = static_cast<float>(frs_[i.src1].valView());
            uint32_t b;
            std::memcpy(&b, &f, 4);
            out = b;
        } else if (i.size == 8) {
            double d = static_cast<double>(frs_[i.src1].valView());
            std::memcpy(&out, &d, 8);
        } else {
            out = frs_[i.src1].bitsView();
        }
        set_gr(i.dst, out, false, cfg_.lat_getf);
        return true;
      }

      case IpfOp::Setf: {
        el_assert(!nats_[i.src1], "NaT consumption at setf");
        uint64_t v = grs_[i.src1];
        if (i.size == 4) {
            float f;
            uint32_t b = static_cast<uint32_t>(v);
            std::memcpy(&f, &b, 4);
            frs_[i.dst].setVal(f);
        } else if (i.size == 8) {
            double d;
            std::memcpy(&d, &v, 8);
            frs_[i.dst].setVal(d);
        } else {
            frs_[i.dst].setBits(v);
        }
        fr_ready_[i.dst] = issue + cfg_.lat_setf;
        return true;
      }

      case IpfOp::Fadd:
      case IpfOp::Fsub:
      case IpfOp::Fmpy:
      case IpfOp::Fma:
      case IpfOp::Fms:
      case IpfOp::Fnma:
      case IpfOp::Fdiv:
      case IpfOp::Fsqrt: {
        long double a = frs_[i.src1].valView();
        long double b = frs_[i.src2].valView();
        long double c = frs_[i.src3].valView();
        long double r = 0.0L;
        unsigned lat = cfg_.lat_fp;
        if (i.prec == FpPrec::Single) {
            // Compute in the target precision so a single operation
            // rounds exactly once, matching IA-32 SSE semantics.
            float fa = static_cast<float>(a);
            float fb = static_cast<float>(b);
            float fc = static_cast<float>(c);
            float fr = 0.0f;
            switch (i.op) {
              case IpfOp::Fadd: fr = fa + fb; break;
              case IpfOp::Fsub: fr = fa - fb; break;
              case IpfOp::Fmpy: fr = fa * fb; break;
              case IpfOp::Fma: fr = fa * fb + fc; break;
              case IpfOp::Fms: fr = fa * fb - fc; break;
              case IpfOp::Fnma: fr = -(fa * fb) + fc; break;
              case IpfOp::Fdiv: fr = fa / fb; lat = cfg_.lat_fdiv; break;
              case IpfOp::Fsqrt: fr = std::sqrt(fa); lat = cfg_.lat_fdiv;
                break;
              default: el_panic("unreachable");
            }
            r = fr;
        } else if (i.prec == FpPrec::Double) {
            double fa = static_cast<double>(a);
            double fb = static_cast<double>(b);
            double fc = static_cast<double>(c);
            double fr = 0.0;
            switch (i.op) {
              case IpfOp::Fadd: fr = fa + fb; break;
              case IpfOp::Fsub: fr = fa - fb; break;
              case IpfOp::Fmpy: fr = fa * fb; break;
              case IpfOp::Fma: fr = fa * fb + fc; break;
              case IpfOp::Fms: fr = fa * fb - fc; break;
              case IpfOp::Fnma: fr = -(fa * fb) + fc; break;
              case IpfOp::Fdiv: fr = fa / fb; lat = cfg_.lat_fdiv; break;
              case IpfOp::Fsqrt: fr = std::sqrt(fa); lat = cfg_.lat_fdiv;
                break;
              default: el_panic("unreachable");
            }
            r = fr;
        } else {
            switch (i.op) {
              case IpfOp::Fadd: r = a + b; break;
              case IpfOp::Fsub: r = a - b; break;
              case IpfOp::Fmpy: r = a * b; break;
              case IpfOp::Fma: r = a * b + c; break;
              case IpfOp::Fms: r = a * b - c; break;
              case IpfOp::Fnma: r = -(a * b) + c; break;
              case IpfOp::Fdiv: r = a / b; lat = cfg_.lat_fdiv; break;
              case IpfOp::Fsqrt:
                r = sqrtl(a);
                lat = cfg_.lat_fdiv;
                break;
              default: el_panic("unreachable");
            }
        }
        frs_[i.dst].setVal(roundPrec(i.prec, r));
        fr_ready_[i.dst] = issue + lat;
        return true;
      }

      case IpfOp::Fcmp: {
        long double a = frs_[i.src1].valView();
        long double b = frs_[i.src2].valView();
        bool unord = std::isnan(static_cast<double>(a)) ||
                     std::isnan(static_cast<double>(b));
        bool v = false;
        switch (i.crel) {
          case CmpRel::Eq:
            v = !unord && a == b;
            break;
          case CmpRel::Ne:
            v = unord || a != b;
            break;
          case CmpRel::Lt:
            v = !unord && a < b;
            break;
          case CmpRel::Le:
            v = !unord && a <= b;
            break;
          case CmpRel::Gt:
            v = !unord && a > b;
            break;
          case CmpRel::Ge:
            v = !unord && a >= b;
            break;
          case CmpRel::Unord:
            v = unord;
            break;
          default:
            el_panic("bad fp cmp relation");
        }
        set_pr2(i.dst, i.dst2, v);
        return true;
      }

      case IpfOp::Fneg:
        frs_[i.dst].setVal(-frs_[i.src1].valView());
        fr_ready_[i.dst] = issue + cfg_.lat_fp;
        return true;
      case IpfOp::Fabs: {
        long double v = frs_[i.src1].valView();
        frs_[i.dst].setVal(v < 0 ? -v : v);
        fr_ready_[i.dst] = issue + cfg_.lat_fp;
        return true;
      }
      case IpfOp::FcvtXf:
        frs_[i.dst].setVal(static_cast<long double>(
            static_cast<int64_t>(frs_[i.src1].bitsView())));
        fr_ready_[i.dst] = issue + cfg_.lat_fp;
        return true;
      case IpfOp::FcvtFxTrunc: {
        long double v = frs_[i.src1].valView();
        int64_t out;
        if (std::isnan(static_cast<double>(v)) || v >= 0x1p63L ||
            v < -0x1p63L) {
            out = INT64_MIN;
        } else if (i.size == 1) {
            out = llrintl(v); // round-to-nearest variant (fcvt.fx)
        } else {
            out = static_cast<int64_t>(v);
        }
        frs_[i.dst].setBits(static_cast<uint64_t>(out));
        fr_ready_[i.dst] = issue + cfg_.lat_fp;
        return true;
      }
      case IpfOp::Fmov:
      case IpfOp::Fpcvt:
        frs_[i.dst] = frs_[i.src1];
        fr_ready_[i.dst] = issue + cfg_.lat_fp;
        return true;

      case IpfOp::Fpadd:
      case IpfOp::Fpsub:
      case IpfOp::Fpmpy:
      case IpfOp::Fpdiv: {
        uint64_t a = frs_[i.src1].bitsView();
        uint64_t b = frs_[i.src2].bitsView();
        float lo, hi;
        unsigned lat = cfg_.lat_fp;
        switch (i.op) {
          case IpfOp::Fpadd:
            lo = laneF32(a, 0) + laneF32(b, 0);
            hi = laneF32(a, 1) + laneF32(b, 1);
            break;
          case IpfOp::Fpsub:
            lo = laneF32(a, 0) - laneF32(b, 0);
            hi = laneF32(a, 1) - laneF32(b, 1);
            break;
          case IpfOp::Fpmpy:
            lo = laneF32(a, 0) * laneF32(b, 0);
            hi = laneF32(a, 1) * laneF32(b, 1);
            break;
          case IpfOp::Fpdiv:
            lo = laneF32(a, 0) / laneF32(b, 0);
            hi = laneF32(a, 1) / laneF32(b, 1);
            lat = cfg_.lat_fdiv;
            break;
          default:
            el_panic("unreachable");
        }
        frs_[i.dst].setBits(packF32(lo, hi));
        fr_ready_[i.dst] = issue + lat;
        return true;
      }

      case IpfOp::Br:
        ip_ = i.target;
        branched_ = true;
        grp_extra_ += cfg_.br_taken_bubble;
        return true;
      case IpfOp::BrCall:
        brs_[i.dst & 7] = static_cast<uint64_t>(ip_ + 1);
        ip_ = i.target;
        branched_ = true;
        grp_extra_ += cfg_.br_taken_bubble;
        return true;
      case IpfOp::BrRet:
      case IpfOp::BrInd:
        ip_ = static_cast<int64_t>(brs_[i.src1 & 7]);
        branched_ = true;
        grp_extra_ += cfg_.br_indirect_penalty;
        return true;

      case IpfOp::Exit:
        stop->kind = StopKind::Exit;
        stop->reason = i.exit_reason;
        stop->payload = i.exit_payload;
        if (i.exit_reason == ExitReason::IndirectMiss)
            stop->payload = static_cast<int64_t>(grs_[i.src1]);
        return false;

      default:
        el_panic("machine: unimplemented op %s", opInfo(i.op).name);
    }
}

} // namespace el::ipf
