#include "ipf/insn.hh"

#include "support/logging.hh"
#include "support/strfmt.hh"

namespace el::ipf
{

namespace
{

constexpr size_t num_ops = static_cast<size_t>(IpfOp::NumOps);

/** Build the static opcode table once, at compile time. */
constexpr std::array<OpInfo, num_ops>
buildOpTable()
{
    constexpr RegClass no = RegClass::None;
    constexpr RegClass gr = RegClass::Gr;
    constexpr RegClass fr = RegClass::Fr;
    constexpr RegClass pr = RegClass::Pr;
    constexpr RegClass br = RegClass::Br;

    std::array<OpInfo, num_ops> t{};
    auto set = [&](IpfOp op, OpInfo info) {
        t[static_cast<size_t>(op)] = info;
    };
    // The common shapes: GR dst = op(src1, src2) or op(src1), and FR
    // dst = op(src1[, src2[, src3]]) on the F unit.
    auto gr2 = [&](IpfOp op, const char *name, Slot slot) {
        set(op, {name, slot, 1, gr, no, {gr, gr, no}});
    };
    auto gr1 = [&](IpfOp op, const char *name, Slot slot) {
        set(op, {name, slot, 1, gr, no, {gr, no, no}});
    };
    auto fp = [&](IpfOp op, const char *name, unsigned nsrcs) {
        set(op, {name, Slot::F, 1, fr, no,
                 {fr, nsrcs > 1 ? fr : no, nsrcs > 2 ? fr : no}});
    };
    // name, slot, width, dst, dst2, {src1, src2, src3}
    set(IpfOp::Invalid, {"(invalid)", Slot::A, 1, no, no, {no, no, no}});

    gr2(IpfOp::Add, "add", Slot::A);
    gr2(IpfOp::Sub, "sub", Slot::A);
    gr1(IpfOp::AddImm, "adds", Slot::A);
    gr2(IpfOp::And, "and", Slot::A);
    gr2(IpfOp::Or, "or", Slot::A);
    gr2(IpfOp::Xor, "xor", Slot::A);
    gr2(IpfOp::Andcm, "andcm", Slot::A);
    gr2(IpfOp::Shl, "shl", Slot::I);
    gr1(IpfOp::ShlImm, "shl", Slot::I);
    gr2(IpfOp::Shr, "shr", Slot::I);
    gr2(IpfOp::ShrU, "shr.u", Slot::I);
    gr1(IpfOp::ShrImm, "shr", Slot::I);
    gr1(IpfOp::ShrUImm, "shr.u", Slot::I);
    gr2(IpfOp::Shladd, "shladd", Slot::A);
    gr1(IpfOp::Sxt, "sxt", Slot::I);
    gr1(IpfOp::Zxt, "zxt", Slot::I);
    set(IpfOp::Movl, {"movl", Slot::I, 2, gr, no, {no, no, no}});
    gr1(IpfOp::Mov, "mov", Slot::A);
    set(IpfOp::MovToBr, {"mov.b", Slot::I, 1, br, no, {gr, no, no}});
    set(IpfOp::MovFromBr, {"mov.fb", Slot::I, 1, gr, no, {br, no, no}});
    set(IpfOp::Cmp, {"cmp", Slot::A, 1, pr, pr, {gr, gr, no}});
    set(IpfOp::CmpImm, {"cmp.i", Slot::A, 1, pr, pr, {no, gr, no}});
    set(IpfOp::Tbit, {"tbit", Slot::I, 1, pr, pr, {gr, no, no}});
    gr2(IpfOp::Dep, "dep", Slot::I);
    gr1(IpfOp::DepZ, "dep.z", Slot::I);
    gr1(IpfOp::Extr, "extr", Slot::I);
    gr1(IpfOp::ExtrU, "extr.u", Slot::I);
    gr1(IpfOp::Popcnt, "popcnt", Slot::I);

    gr2(IpfOp::Padd, "padd", Slot::A);
    gr2(IpfOp::Psub, "psub", Slot::A);
    gr2(IpfOp::Pmull, "pmpyshr2", Slot::I);
    gr2(IpfOp::Pcmp, "pcmp", Slot::I);

    gr1(IpfOp::Ld, "ld", Slot::M);
    set(IpfOp::St, {"st", Slot::M, 1, no, no, {gr, gr, no}});
    set(IpfOp::ChkS, {"chk.s", Slot::M, 1, no, no, {gr, no, no}});
    set(IpfOp::Ldf, {"ldf", Slot::M, 1, fr, no, {gr, no, no}});
    set(IpfOp::Stf, {"stf", Slot::M, 1, no, no, {gr, fr, no}});
    set(IpfOp::Getf, {"getf.sig", Slot::M, 1, gr, no, {fr, no, no}});
    set(IpfOp::Setf, {"setf.sig", Slot::M, 1, fr, no, {gr, no, no}});
    set(IpfOp::Mf, {"mf", Slot::M, 1, no, no, {no, no, no}});

    fp(IpfOp::Fadd, "fadd", 2);
    fp(IpfOp::Fsub, "fsub", 2);
    fp(IpfOp::Fmpy, "fmpy", 2);
    fp(IpfOp::Fma, "fma", 3);
    fp(IpfOp::Fms, "fms", 3);
    fp(IpfOp::Fnma, "fnma", 3);
    fp(IpfOp::Fdiv, "fdiv*", 2);
    fp(IpfOp::Fsqrt, "fsqrt*", 1);
    set(IpfOp::Fcmp, {"fcmp", Slot::F, 1, pr, pr, {fr, fr, no}});
    fp(IpfOp::Fneg, "fneg", 1);
    fp(IpfOp::Fabs, "fabs", 1);
    fp(IpfOp::FcvtXf, "fcvt.xf", 1);
    fp(IpfOp::FcvtFxTrunc, "fcvt.fx.trunc", 1);
    fp(IpfOp::Fmov, "fmov", 1);
    gr2(IpfOp::Xmul, "xmul*", Slot::F);
    gr2(IpfOp::XDivS, "xdiv.s*", Slot::F);
    gr2(IpfOp::XDivU, "xdiv.u*", Slot::F);
    gr2(IpfOp::XRemS, "xrem.s*", Slot::F);
    gr2(IpfOp::XRemU, "xrem.u*", Slot::F);

    fp(IpfOp::Fpadd, "fpadd", 2);
    fp(IpfOp::Fpsub, "fpsub", 2);
    fp(IpfOp::Fpmpy, "fpmpy", 2);
    fp(IpfOp::Fpdiv, "fpdiv*", 2);
    fp(IpfOp::Fpcvt, "fpcvt", 1);

    set(IpfOp::Br, {"br", Slot::B, 1, no, no, {no, no, no}});
    set(IpfOp::BrCall, {"br.call", Slot::B, 1, br, no, {no, no, no}});
    set(IpfOp::BrRet, {"br.ret", Slot::B, 1, no, no, {br, no, no}});
    set(IpfOp::BrInd, {"br.ind", Slot::B, 1, no, no, {br, no, no}});
    // src1 is renamed as a GR for every Exit, but only an IndirectMiss
    // exit reads it (the machine's timing special-cases this).
    set(IpfOp::Exit, {"exit", Slot::B, 1, no, no, {gr, no, no}});
    set(IpfOp::Nop, {"nop", Slot::A, 1, no, no, {no, no, no}});
    return t;
}

constexpr bool
everyOpHasARow(const std::array<OpInfo, num_ops> &t)
{
    for (const OpInfo &row : t)
        if (row.name == nullptr || row.width == 0)
            return false;
    return true;
}

} // namespace

constexpr std::array<OpInfo, num_ops> op_table = buildOpTable();
static_assert(everyOpHasARow(op_table),
              "op_table needs one row for every IpfOp below NumOps");

void
badOp(IpfOp op)
{
    el_panic("bad IPF op %u", static_cast<unsigned>(op));
}

const char *
bucketName(Bucket bucket)
{
    switch (bucket) {
      case Bucket::Hot: return "hot";
      case Bucket::Cold: return "cold";
      case Bucket::Overhead: return "overhead";
      case Bucket::Native: return "native";
      case Bucket::Idle: return "idle";
      default: return "?";
    }
}

std::string
Instr::toString() const
{
    std::string s;
    if (qp != 0)
        s += strfmt("(p%u) ", qp);
    s += opInfo(op).name;
    switch (op) {
      case IpfOp::Ld:
      case IpfOp::St:
        s += strfmt("%u", size);
        if (spec == Spec::S)
            s += ".s";
        break;
      case IpfOp::Ldf:
      case IpfOp::Stf:
        s += size == 4 ? "s" : size == 8 ? "d" : size == 9 ? "8" : "e";
        break;
      default:
        break;
    }
    s += strfmt(" d=%u,%u s=%u,%u,%u imm=%lld", dst, dst2, src1, src2,
                src3, static_cast<long long>(imm));
    if (target >= 0)
        s += strfmt(" ->%lld", static_cast<long long>(target));
    if (exit_reason != ExitReason::None)
        s += strfmt(" exit=%u", static_cast<unsigned>(exit_reason));
    if (stop)
        s += " ;;";
    return s;
}

} // namespace el::ipf
