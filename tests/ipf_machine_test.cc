/**
 * @file
 * IPF machine tests: ALU semantics, predication, speculation (NaT +
 * chk.s), memory faults, FP precision behaviour, parallel ops, branch
 * mechanics, exit records and timing attribution.
 */

#include <gtest/gtest.h>

#include "ipf/machine.hh"

namespace el::ipf
{
namespace
{

/** Small emitter helpers to keep the tests readable. */
struct Emitter
{
    CodeCache code;

    Instr
    base(IpfOp op)
    {
        Instr i;
        i.op = op;
        return i;
    }

    int64_t
    movl(uint8_t dst, int64_t imm, bool stop = true)
    {
        Instr i = base(IpfOp::Movl);
        i.dst = dst;
        i.imm = imm;
        i.stop = stop;
        return code.emit(i);
    }

    int64_t
    add(uint8_t dst, uint8_t a, uint8_t b, bool stop = true)
    {
        Instr i = base(IpfOp::Add);
        i.dst = dst;
        i.src1 = a;
        i.src2 = b;
        i.stop = stop;
        return code.emit(i);
    }

    int64_t
    addImm(uint8_t dst, int64_t imm, uint8_t src, bool stop = true)
    {
        Instr i = base(IpfOp::AddImm);
        i.dst = dst;
        i.imm = imm;
        i.src1 = src;
        i.stop = stop;
        return code.emit(i);
    }

    int64_t
    ld(uint8_t dst, uint8_t addr, unsigned size, Spec spec = Spec::None,
       bool stop = true)
    {
        Instr i = base(IpfOp::Ld);
        i.dst = dst;
        i.src1 = addr;
        i.size = static_cast<uint8_t>(size);
        i.spec = spec;
        i.stop = stop;
        return code.emit(i);
    }

    int64_t
    st(uint8_t addr, uint8_t val, unsigned size, bool stop = true)
    {
        Instr i = base(IpfOp::St);
        i.src1 = addr;
        i.src2 = val;
        i.size = static_cast<uint8_t>(size);
        i.stop = stop;
        return code.emit(i);
    }

    int64_t
    exit(ExitReason reason, int64_t payload = 0)
    {
        Instr i = base(IpfOp::Exit);
        i.exit_reason = reason;
        i.exit_payload = payload;
        i.stop = true;
        return code.emit(i);
    }

    int64_t
    emit(Instr i)
    {
        return code.emit(i);
    }
};

TEST(IpfMachine, BasicAluAndExit)
{
    Emitter e;
    mem::Memory mem;
    e.movl(10, 40);
    e.movl(11, 2);
    e.add(12, 10, 11);
    e.exit(ExitReason::Halt);

    Machine m(e.code, mem);
    StopInfo stop = m.run(0);
    EXPECT_EQ(stop.kind, StopKind::Exit);
    EXPECT_EQ(stop.reason, ExitReason::Halt);
    EXPECT_EQ(m.gr(12), 42u);
}

TEST(IpfMachine, RegisterZeroIsImmutable)
{
    Emitter e;
    mem::Memory mem;
    e.movl(0, 99);
    e.addImm(10, 5, 0);
    e.exit(ExitReason::Halt);
    Machine m(e.code, mem);
    m.run(0);
    EXPECT_EQ(m.gr(0), 0u);
    EXPECT_EQ(m.gr(10), 5u);
}

TEST(IpfMachine, PredicationNullifies)
{
    Emitter e;
    mem::Memory mem;
    Instr cmp = e.base(IpfOp::CmpImm);
    cmp.crel = CmpRel::Eq;
    cmp.imm = 7;
    cmp.src2 = 10;
    cmp.dst = 6;  // p6 = (7 == r10)
    cmp.dst2 = 7; // p7 = !p6
    cmp.stop = true;
    e.movl(10, 7);
    e.emit(cmp);
    Instr t = e.base(IpfOp::AddImm);
    t.qp = 6;
    t.dst = 11;
    t.imm = 111;
    t.src1 = 0;
    e.emit(t);
    Instr f = e.base(IpfOp::AddImm);
    f.qp = 7;
    f.dst = 12;
    f.imm = 222;
    f.src1 = 0;
    f.stop = true;
    e.emit(f);
    e.exit(ExitReason::Halt);

    Machine m(e.code, mem);
    m.run(0);
    EXPECT_EQ(m.gr(11), 111u);
    EXPECT_EQ(m.gr(12), 0u) << "false-predicated op must not execute";
}

TEST(IpfMachine, CmpRelations)
{
    struct Case
    {
        CmpRel rel;
        int64_t a, b;
        bool expect;
    } cases[] = {
        {CmpRel::Eq, 5, 5, true},    {CmpRel::Ne, 5, 5, false},
        {CmpRel::Lt, -1, 1, true},   {CmpRel::Ltu, -1, 1, false},
        {CmpRel::Ge, 3, 3, true},    {CmpRel::Gtu, 0xff, 1, true},
        {CmpRel::Le, -5, -5, true},  {CmpRel::Gt, -2, -3, true},
    };
    for (const auto &c : cases) {
        Emitter e;
        mem::Memory mem;
        e.movl(10, c.a, false);
        e.movl(11, c.b, true);
        Instr cmp = e.base(IpfOp::Cmp);
        cmp.crel = c.rel;
        cmp.src1 = 10;
        cmp.src2 = 11;
        cmp.dst = 6;
        cmp.dst2 = 7;
        cmp.stop = true;
        e.emit(cmp);
        e.exit(ExitReason::Halt);
        Machine m(e.code, mem);
        m.run(0);
        EXPECT_EQ(m.pr(6), c.expect)
            << "rel " << static_cast<int>(c.rel) << " " << c.a << "," << c.b;
        EXPECT_EQ(m.pr(7), !c.expect);
    }
}

TEST(IpfMachine, TbitDepExtr)
{
    Emitter e;
    mem::Memory mem;
    e.movl(10, 0xabcd);
    Instr tb = e.base(IpfOp::Tbit);
    tb.src1 = 10;
    tb.pos = 3; // bit 3 of 0xabcd = 1
    tb.dst = 6;
    tb.dst2 = 7;
    tb.stop = true;
    e.emit(tb);
    Instr dep = e.base(IpfOp::DepZ);
    dep.dst = 11;
    dep.src1 = 10;
    dep.pos = 8;
    dep.len = 8;
    dep.stop = true;
    e.emit(dep);
    Instr ext = e.base(IpfOp::ExtrU);
    ext.dst = 12;
    ext.src1 = 10;
    ext.pos = 8;
    ext.len = 8;
    ext.stop = true;
    e.emit(ext);
    Instr exts = e.base(IpfOp::Extr);
    exts.dst = 13;
    exts.src1 = 10;
    exts.pos = 8;
    exts.len = 8;
    exts.stop = true;
    e.emit(exts);
    e.exit(ExitReason::Halt);

    Machine m(e.code, mem);
    m.run(0);
    EXPECT_TRUE(m.pr(6));
    EXPECT_FALSE(m.pr(7));
    EXPECT_EQ(m.gr(11), 0xcd00u);
    EXPECT_EQ(m.gr(12), 0xabu);
    EXPECT_EQ(m.gr(13), static_cast<uint64_t>(-0x55)); // 0xab sign-extended
}

TEST(IpfMachine, LoadStoreAndPostInc)
{
    Emitter e;
    mem::Memory mem;
    mem.map(0x1000, 0x1000, mem::PermRW);
    e.movl(10, 0x1000);
    e.movl(11, 0x12345678deadbeefLL);
    Instr st8 = e.base(IpfOp::St);
    st8.src1 = 10;
    st8.src2 = 11;
    st8.size = 8;
    st8.imm = 8; // post-increment
    st8.stop = true;
    e.emit(st8);
    e.st(10, 11, 4);
    e.movl(10, 0x1000);
    e.ld(12, 10, 8);
    e.exit(ExitReason::Halt);

    Machine m(e.code, mem);
    m.run(0);
    EXPECT_EQ(m.gr(12), 0x12345678deadbeefULL);
    uint64_t v = 0;
    ASSERT_TRUE(mem.read(0x1008, 4, &v).ok());
    EXPECT_EQ(v, 0xdeadbeefULL);
}

TEST(IpfMachine, MemFaultStopsWithAddress)
{
    Emitter e;
    mem::Memory mem;
    e.movl(10, 0x5000);
    int64_t ld_idx = e.ld(11, 10, 4);
    e.exit(ExitReason::Halt);
    Machine m(e.code, mem);
    StopInfo stop = m.run(0);
    EXPECT_EQ(stop.kind, StopKind::MemFault);
    EXPECT_EQ(stop.fault_addr, 0x5000u);
    EXPECT_EQ(stop.instr_index, ld_idx);
    EXPECT_FALSE(stop.fault_is_write);
}

TEST(IpfMachine, SpeculativeLoadDefersIntoNat)
{
    Emitter e;
    mem::Memory mem;
    e.movl(10, 0x5000); // unmapped
    e.ld(11, 10, 4, Spec::S);
    e.addImm(12, 1, 11); // NaT must propagate
    Instr chk = e.base(IpfOp::ChkS);
    chk.src1 = 12;
    chk.target = -1; // exit Resync on NaT
    chk.stop = true;
    e.emit(chk);
    e.exit(ExitReason::Halt);

    Machine m(e.code, mem);
    StopInfo stop = m.run(0);
    EXPECT_EQ(stop.kind, StopKind::Exit);
    EXPECT_EQ(stop.reason, ExitReason::Resync);
    EXPECT_TRUE(m.grNat(11));
    EXPECT_TRUE(m.grNat(12));
}

TEST(IpfMachine, ChkSBranchesToRecovery)
{
    Emitter e;
    mem::Memory mem;
    mem.map(0x1000, 0x1000, mem::PermRW);
    e.movl(10, 0x5000); // bad address
    e.ld(11, 10, 4, Spec::S);
    Instr chk = e.base(IpfOp::ChkS);
    chk.src1 = 11;
    chk.stop = true;
    int64_t chk_idx = e.emit(chk);
    e.exit(ExitReason::Halt, 1); // fallthrough path
    // Recovery: reload from a good address, then exit with payload 2.
    int64_t recovery = e.movl(10, 0x1000);
    e.ld(11, 10, 4);
    e.exit(ExitReason::Halt, 2);
    e.code.at(chk_idx).target = recovery;

    Machine m(e.code, mem);
    StopInfo stop = m.run(0);
    EXPECT_EQ(stop.kind, StopKind::Exit);
    EXPECT_EQ(stop.payload, 2);
    EXPECT_FALSE(m.grNat(11));
}

TEST(IpfMachine, SpeculativeLoadSucceedsNormally)
{
    Emitter e;
    mem::Memory mem;
    mem.map(0x1000, 0x1000, mem::PermRW);
    ASSERT_TRUE(mem.write(0x1010, 4, 777).ok());
    e.movl(10, 0x1010);
    e.ld(11, 10, 4, Spec::S);
    Instr chk = e.base(IpfOp::ChkS);
    chk.src1 = 11;
    chk.target = -1;
    chk.stop = true;
    e.emit(chk);
    e.exit(ExitReason::Halt);
    Machine m(e.code, mem);
    StopInfo stop = m.run(0);
    EXPECT_EQ(stop.reason, ExitReason::Halt);
    EXPECT_EQ(m.gr(11), 777u);
}

TEST(IpfMachine, FpPrecisionRounding)
{
    Emitter e;
    mem::Memory mem;
    // f6 = 1/3 single, f7 = 1/3 double: must differ.
    e.movl(10, 1, false);
    e.movl(11, 3, true);
    Instr s1 = e.base(IpfOp::Setf);
    s1.dst = 6;
    s1.src1 = 10;
    s1.stop = false;
    e.emit(s1);
    Instr s2 = e.base(IpfOp::Setf);
    s2.dst = 7;
    s2.src1 = 11;
    s2.stop = true;
    e.emit(s2);
    Instr c1 = e.base(IpfOp::FcvtXf);
    c1.dst = 6;
    c1.src1 = 6;
    c1.stop = false;
    e.emit(c1);
    Instr c2 = e.base(IpfOp::FcvtXf);
    c2.dst = 7;
    c2.src1 = 7;
    c2.stop = true;
    e.emit(c2);
    Instr d1 = e.base(IpfOp::Fdiv);
    d1.dst = 8;
    d1.src1 = 6;
    d1.src2 = 7;
    d1.prec = FpPrec::Single;
    d1.stop = true;
    e.emit(d1);
    Instr d2 = e.base(IpfOp::Fdiv);
    d2.dst = 9;
    d2.src1 = 6;
    d2.src2 = 7;
    d2.prec = FpPrec::Double;
    d2.stop = true;
    e.emit(d2);
    e.exit(ExitReason::Halt);

    Machine m(e.code, mem);
    m.run(0);
    EXPECT_EQ(static_cast<float>(m.fr(8).valView()), 1.0f / 3.0f);
    EXPECT_EQ(static_cast<double>(m.fr(9).valView()), 1.0 / 3.0);
    EXPECT_NE(m.fr(8).valView(), m.fr(9).valView());
}

TEST(IpfMachine, FmaExtended)
{
    Emitter e;
    mem::Memory mem;
    e.movl(10, 3, false);
    e.movl(11, 4, false);
    e.movl(12, 5, true);
    for (int k = 0; k < 3; ++k) {
        Instr s = e.base(IpfOp::Setf);
        s.dst = static_cast<uint8_t>(6 + k);
        s.src1 = static_cast<uint8_t>(10 + k);
        s.stop = (k == 2);
        e.emit(s);
    }
    for (int k = 0; k < 3; ++k) {
        Instr c = e.base(IpfOp::FcvtXf);
        c.dst = static_cast<uint8_t>(6 + k);
        c.src1 = static_cast<uint8_t>(6 + k);
        c.stop = (k == 2);
        e.emit(c);
    }
    Instr fma = e.base(IpfOp::Fma);
    fma.dst = 9;
    fma.src1 = 6;
    fma.src2 = 7;
    fma.src3 = 8;
    fma.stop = true;
    e.emit(fma);
    e.exit(ExitReason::Halt);
    Machine m(e.code, mem);
    m.run(0);
    EXPECT_EQ(m.fr(9).valView(), 17.0L);
}

TEST(IpfMachine, ParallelIntegerLanes)
{
    Emitter e;
    mem::Memory mem;
    e.movl(10, 0x0001000200030004LL);
    e.movl(11, 0x0001000100010001LL);
    Instr p = e.base(IpfOp::Padd);
    p.dst = 12;
    p.src1 = 10;
    p.src2 = 11;
    p.size = 2;
    p.stop = true;
    e.emit(p);
    e.exit(ExitReason::Halt);
    Machine m(e.code, mem);
    m.run(0);
    EXPECT_EQ(m.gr(12), 0x0002000300040005ULL);
}

TEST(IpfMachine, ParallelFpPairs)
{
    Emitter e;
    mem::Memory mem;
    float lo = 1.5f, hi = -2.0f;
    uint32_t lo_b, hi_b;
    std::memcpy(&lo_b, &lo, 4);
    std::memcpy(&hi_b, &hi, 4);
    uint64_t packed = lo_b | (static_cast<uint64_t>(hi_b) << 32);
    e.movl(10, static_cast<int64_t>(packed));
    Instr s = e.base(IpfOp::Setf);
    s.dst = 6;
    s.src1 = 10;
    s.stop = true;
    e.emit(s);
    Instr fp = e.base(IpfOp::Fpadd);
    fp.dst = 7;
    fp.src1 = 6;
    fp.src2 = 6;
    fp.stop = true;
    e.emit(fp);
    Instr g = e.base(IpfOp::Getf);
    g.dst = 11;
    g.src1 = 7;
    g.stop = true;
    e.emit(g);
    e.exit(ExitReason::Halt);
    Machine m(e.code, mem);
    m.run(0);
    uint64_t out = m.gr(11);
    float rlo, rhi;
    uint32_t rl = static_cast<uint32_t>(out);
    uint32_t rh = static_cast<uint32_t>(out >> 32);
    std::memcpy(&rlo, &rl, 4);
    std::memcpy(&rhi, &rh, 4);
    EXPECT_FLOAT_EQ(rlo, 3.0f);
    EXPECT_FLOAT_EQ(rhi, -4.0f);
}

TEST(IpfMachine, BranchAndLoop)
{
    Emitter e;
    mem::Memory mem;
    e.movl(10, 0, false);  // sum
    e.movl(11, 10, true);  // counter
    int64_t top = e.add(10, 10, 11, false);
    e.addImm(11, -1, 11, true);
    Instr cmp = e.base(IpfOp::CmpImm);
    cmp.crel = CmpRel::Ne;
    cmp.imm = 0;
    cmp.src2 = 11;
    cmp.dst = 6;
    cmp.dst2 = 7;
    e.emit(cmp);
    Instr br = e.base(IpfOp::Br);
    br.qp = 6;
    br.target = top;
    br.stop = true;
    e.emit(br);
    e.exit(ExitReason::Halt);

    Machine m(e.code, mem);
    StopInfo stop = m.run(0);
    EXPECT_EQ(stop.reason, ExitReason::Halt);
    EXPECT_EQ(m.gr(10), 55u);
}

TEST(IpfMachine, IndirectBranchThroughBr)
{
    Emitter e;
    mem::Memory mem;
    e.movl(10, 0); // patched below
    Instr mb = e.base(IpfOp::MovToBr);
    mb.dst = br_ind;
    mb.src1 = 10;
    mb.stop = true;
    e.emit(mb);
    Instr bi = e.base(IpfOp::BrInd);
    bi.src1 = br_ind;
    bi.stop = true;
    e.emit(bi);
    e.exit(ExitReason::Halt, 1); // skipped
    int64_t tgt = e.exit(ExitReason::Halt, 2);
    e.code.at(0).imm = tgt;

    Machine m(e.code, mem);
    StopInfo stop = m.run(0);
    EXPECT_EQ(stop.payload, 2);
}

TEST(IpfMachine, ExitCarriesIndirectPayloadFromRegister)
{
    Emitter e;
    mem::Memory mem;
    e.movl(10, 0x8048123);
    Instr x = e.base(IpfOp::Exit);
    x.exit_reason = ExitReason::IndirectMiss;
    x.src1 = 10;
    x.stop = true;
    e.emit(x);
    Machine m(e.code, mem);
    StopInfo stop = m.run(0);
    EXPECT_EQ(stop.reason, ExitReason::IndirectMiss);
    EXPECT_EQ(stop.payload, 0x8048123);
}

TEST(IpfMachine, MisalignmentChargesHugePenalty)
{
    Emitter e;
    mem::Memory mem;
    mem.map(0x1000, 0x1000, mem::PermRW);
    e.movl(10, 0x1001); // misaligned for 4-byte access
    e.ld(11, 10, 4);
    e.exit(ExitReason::Halt);
    Machine m(e.code, mem);
    m.run(0);
    EXPECT_EQ(m.misalignedAccesses(), 1u);
    EXPECT_GE(m.totalCycles(), m.config().misalign_penalty);
}

TEST(IpfMachine, AlignedAccessIsCheap)
{
    Emitter e;
    mem::Memory mem;
    mem.map(0x1000, 0x1000, mem::PermRW);
    e.movl(10, 0x1000);
    e.ld(11, 10, 4);
    e.exit(ExitReason::Halt);
    Machine m(e.code, mem);
    m.run(0);
    EXPECT_EQ(m.misalignedAccesses(), 0u);
    EXPECT_LT(m.totalCycles(), 200.0);
}

TEST(IpfMachine, WideGroupIssuesInOneCycle)
{
    // Six independent A-type ops with a single stop: should cost far
    // fewer cycles than six serialized groups.
    Emitter e1;
    mem::Memory mem1;
    for (int k = 0; k < 6; ++k)
        e1.addImm(static_cast<uint8_t>(10 + k), k, 0, k == 5);
    e1.exit(ExitReason::Halt);
    Machine m1(e1.code, mem1);
    m1.run(0);

    Emitter e2;
    mem::Memory mem2;
    for (int k = 0; k < 6; ++k)
        e2.addImm(static_cast<uint8_t>(10 + k), k, 0, true);
    e2.exit(ExitReason::Halt);
    Machine m2(e2.code, mem2);
    m2.run(0);

    EXPECT_LT(m1.totalCycles(), m2.totalCycles());
}

TEST(IpfMachine, BucketAttribution)
{
    Emitter e;
    mem::Memory mem;
    Instr a = e.base(IpfOp::AddImm);
    a.dst = 10;
    a.imm = 1;
    a.src1 = 0;
    a.stop = true;
    a.meta.bucket = Bucket::Hot;
    e.emit(a);
    Instr b = a;
    b.meta.bucket = Bucket::Cold;
    e.emit(b);
    Instr x = e.base(IpfOp::Exit);
    x.exit_reason = ExitReason::Halt;
    x.meta.bucket = Bucket::Overhead;
    x.stop = true;
    e.emit(x);
    Machine m(e.code, mem);
    m.run(0);
    EXPECT_GT(m.stats().cycles[static_cast<size_t>(Bucket::Hot)], 0.0);
    EXPECT_GT(m.stats().cycles[static_cast<size_t>(Bucket::Cold)], 0.0);
    EXPECT_EQ(m.stats().insns[static_cast<size_t>(Bucket::Hot)], 1u);
}

TEST(IpfMachine, VerifyGroupsCatchesNothingOnLegalCode)
{
    Emitter e;
    mem::Memory mem;
    e.movl(10, 1);
    e.addImm(11, 2, 10, false); // independent pair in one group
    e.addImm(12, 3, 10, true);
    e.exit(ExitReason::Halt);
    MachineConfig cfg;
    cfg.verify_groups = true;
    Machine m(e.code, mem, cfg);
    EXPECT_EQ(m.run(0).reason, ExitReason::Halt);
}

TEST(IpfMachine, VerifyGroupsCatchesIntraGroupRaw)
{
    Emitter e;
    mem::Memory mem;
    e.movl(10, 1, false);
    e.addImm(11, 2, 10, true); // reads r10 in the group that writes it
    e.exit(ExitReason::Halt);
    MachineConfig cfg;
    cfg.verify_groups = true;
    Machine m(e.code, mem, cfg);
    EXPECT_DEATH(m.run(0), "intra-group GR RAW on r10");
}

TEST(IpfMachine, OpcodeOutsideTheTablePanics)
{
    Emitter e;
    mem::Memory mem;
    e.code.emit(e.base(IpfOp::NumOps));
    Machine m(e.code, mem);
    EXPECT_DEATH(m.run(0), "bad IPF op");
}

TEST(CodeCachePatch, LinkExitBecomesBranch)
{
    Emitter e;
    mem::Memory mem;
    int64_t stub = e.exit(ExitReason::LinkMiss, 0x8048000);
    int64_t blk = e.movl(10, 42);
    e.exit(ExitReason::Halt);

    Machine m(e.code, mem);
    StopInfo s1 = m.run(0);
    EXPECT_EQ(s1.reason, ExitReason::LinkMiss);
    e.code.patchToBranch(stub, blk);
    StopInfo s2 = m.run(0);
    EXPECT_EQ(s2.reason, ExitReason::Halt);
    EXPECT_EQ(m.gr(10), 42u);
}

TEST(CodeCachePatch, InvalidateEntry)
{
    Emitter e;
    mem::Memory mem;
    int64_t entry = e.movl(10, 42);
    e.exit(ExitReason::Halt);
    e.code.invalidateEntry(entry, ExitReason::SmcDetected, 0x1234);
    Machine m(e.code, mem);
    StopInfo stop = m.run(0);
    EXPECT_EQ(stop.reason, ExitReason::SmcDetected);
    EXPECT_EQ(stop.payload, 0x1234);
}

} // namespace
} // namespace el::ipf
