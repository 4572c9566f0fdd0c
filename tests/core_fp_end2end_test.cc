/**
 * @file
 * End-to-end differential tests for the section-5 machinery: x87 stack
 * speculation (TOS/TAG guards, FXCH elimination), MMX domain switching,
 * SSE format speculation, and the misalignment pipeline — each checked
 * against the reference interpreter, with the relevant ablation modes
 * exercised too.
 */

#include <gtest/gtest.h>

#include "btlib/abi.hh"
#include "guest/image.hh"
#include "harness/exec.hh"
#include "ia32/assembler.hh"

namespace el
{
namespace
{

using btlib::OsAbi;
using guest::Image;
using guest::Layout;
using ia32::Assembler;
using ia32::Cond;
using ia32::Label;
using ia32::Op;
using namespace ia32;

void
emitExitEax(Assembler &as)
{
    as.movRR(RegEbx, RegEax);
    as.movRI(RegEax, btlib::linux_abi::nr_exit);
    as.intN(btlib::linux_abi::int_vector);
}

Image
makeImage(Assembler &as)
{
    Image img;
    img.name = "fptest";
    img.entry = as.base();
    img.addCode(as.base(), as.finish());
    img.addData(Layout::data_base, 0x10000);
    return img;
}

harness::TranslatedRun
diffRun(const Image &img, core::Options opts = {})
{
    harness::Outcome ref = harness::runInterpreter(img, OsAbi::Linux);
    harness::TranslatedRun tr =
        harness::runTranslated(img, OsAbi::Linux, opts);
    EXPECT_EQ(ref.exited, tr.outcome.exited);
    EXPECT_EQ(ref.faulted, tr.outcome.faulted);
    if (ref.exited)
        EXPECT_EQ(ref.exit_code, tr.outcome.exit_code);
    if (ref.faulted) {
        EXPECT_EQ(ref.fault.kind, tr.outcome.fault.kind);
        EXPECT_EQ(ref.fault.eip, tr.outcome.fault.eip);
    }
    std::string why;
    EXPECT_TRUE(ref.final_state.equalsArch(tr.outcome.final_state, &why))
        << "state mismatch: " << why;
    return tr;
}

/** Seed two f64 values at data_base[0], [8]. */
void
seedDoubles(Assembler &as)
{
    as.movRI(RegEbx, Layout::data_base);
    // 3.0 = 0x4008000000000000
    as.movMI(memb(RegEbx, 0), 0);
    as.movMI(memb(RegEbx, 4), 0x40080000);
    // 0.5 = 0x3FE0000000000000
    as.movMI(memb(RegEbx, 8), 0);
    as.movMI(memb(RegEbx, 12), 0x3fe00000);
}

TEST(FpEnd2End, BasicStackArithmetic)
{
    Assembler as(Layout::code_base);
    seedDoubles(as);
    as.fldM64(memb(RegEbx, 0));  // 3.0
    as.fldM64(memb(RegEbx, 8));  // 0.5
    as.farithStiSt0(Op::Fadd, 1, true); // 3.5
    as.farithM64(Op::Fmul, memb(RegEbx, 0)); // 10.5
    as.fstM64(memb(RegEbx, 16), true);
    as.movRM(RegEax, memb(RegEbx, 20)); // high word of 10.5
    emitExitEax(as);
    diffRun(makeImage(as));
}

TEST(FpEnd2End, FpLoopCrossesBlocks)
{
    // The TOS/TAG speculation must hold across block boundaries in a
    // loop (guard-pass fast path).
    Assembler as(Layout::code_base);
    seedDoubles(as);
    as.fldz();                  // accumulator on the stack across blocks
    as.movRI(RegEcx, 100);
    Label top = as.label();
    as.bind(top);
    as.farithM64(Op::Fadd, memb(RegEbx, 8)); // +0.5 each iteration
    as.decR(RegEcx);
    as.jcc(Cond::NE, top);
    as.fstM64(memb(RegEbx, 24), true);       // 50.0
    as.movRM(RegEax, memb(RegEbx, 28));
    emitExitEax(as);
    core::Options hot;
    hot.heat_threshold = 16;
    hot.hot_batch = 1;
    diffRun(makeImage(as), hot);
}

TEST(FpEnd2End, FxchHeavyKernel)
{
    Assembler as(Layout::code_base);
    seedDoubles(as);
    as.movRI(RegEcx, 64);
    Label top = as.label();
    as.bind(top);
    as.fldM64(memb(RegEbx, 0));
    as.farithM64(Op::Fmul, memb(RegEbx, 8));
    as.fldM64(memb(RegEbx, 8));
    as.farithM64(Op::Fadd, memb(RegEbx, 0));
    as.fxch(1);
    as.farithStiSt0(Op::Fadd, 1, true);
    as.fstM64(memb(RegEbx, 32), true);
    as.decR(RegEcx);
    as.jcc(Cond::NE, top);
    as.movRM(RegEax, memb(RegEbx, 36));
    emitExitEax(as);
    Image img = makeImage(as);
    core::Options hot;
    hot.heat_threshold = 8;
    hot.hot_batch = 1;
    diffRun(img, hot);

    core::Options no_fxch = hot;
    no_fxch.enable_fxch_elim = false;
    diffRun(img, no_fxch);
}

TEST(FpEnd2End, MemoryModeFpStackAblation)
{
    Assembler as(Layout::code_base);
    seedDoubles(as);
    as.fldM64(memb(RegEbx, 0));
    as.fldM64(memb(RegEbx, 8));
    as.fxch(1);
    as.farithStiSt0(Op::Fsub, 1, true); // careful direction
    as.fstM64(memb(RegEbx, 16), true);
    as.movRM(RegEax, memb(RegEbx, 20));
    emitExitEax(as);
    core::Options memfp;
    memfp.enable_fp_stack_spec = false;
    diffRun(makeImage(as), memfp);
}

TEST(FpEnd2End, StackFaultIsPrecise)
{
    Assembler as(Layout::code_base);
    as.fninit();
    as.movRI(RegEsi, 7);
    as.farithSt0Sti(Op::Fadd, 1); // empty stack -> #MF
    as.movRI(RegEsi, 9);
    as.movRI(RegEax, 0);
    emitExitEax(as);
    diffRun(makeImage(as));
}

TEST(FpEnd2End, OverflowFaultAfterEightPushes)
{
    Assembler as(Layout::code_base);
    for (int k = 0; k < 9; ++k)
        as.fldz(); // 9th push overflows
    as.movRI(RegEax, 0);
    emitExitEax(as);
    diffRun(makeImage(as));
}

TEST(FpEnd2End, FcomiBranching)
{
    Assembler as(Layout::code_base);
    seedDoubles(as);
    as.fldM64(memb(RegEbx, 0)); // 3.0
    as.fldM64(memb(RegEbx, 8)); // 0.5 (ST0)
    as.fcomi(1, false);         // 0.5 < 3.0 -> CF
    as.movRI(RegEax, 0);
    Label below = as.label();
    as.jcc(Cond::B, below);
    as.movRI(RegEax, 111);
    as.bind(below);
    as.aluRI(Op::Add, RegEax, 55);
    as.fstM64(memb(RegEbx, 40), true);
    as.fstM64(memb(RegEbx, 48), true);
    emitExitEax(as);
    diffRun(makeImage(as));
}

TEST(FpEnd2End, FildFistpRoundTrip)
{
    Assembler as(Layout::code_base);
    as.movRI(RegEbx, Layout::data_base);
    as.movMI(memb(RegEbx, 0), static_cast<uint32_t>(-1234567));
    as.fildM32(memb(RegEbx, 0));
    as.fchs();
    as.fistpM32(memb(RegEbx, 4));
    as.movRM(RegEax, memb(RegEbx, 4));
    emitExitEax(as);
    diffRun(makeImage(as));
}

TEST(FpEnd2End, MmxKernel)
{
    Assembler as(Layout::code_base);
    as.movRI(RegEbx, Layout::data_base);
    as.movMI(memb(RegEbx, 0), 0x01020304);
    as.movMI(memb(RegEbx, 4), 0x05060708);
    as.movMI(memb(RegEbx, 8), 0x10203040);
    as.movMI(memb(RegEbx, 12), 0x50607080);
    as.movRI(RegEcx, 32);
    Label top = as.label();
    as.bind(top);
    as.movqMmM(0, memb(RegEbx, 0));
    as.movqMmM(1, memb(RegEbx, 8));
    as.pArithMmMm(Op::Paddb, 0, 1);
    as.pArithMmMm(Op::Pxor, 0, 1);
    as.movqMMm(memb(RegEbx, 16), 0);
    as.decR(RegEcx);
    as.jcc(Cond::NE, top);
    as.emms();
    as.movRM(RegEax, memb(RegEbx, 16));
    emitExitEax(as);
    core::Options hot;
    hot.heat_threshold = 8;
    hot.hot_batch = 1;
    diffRun(makeImage(as), hot);
}

TEST(FpEnd2End, MmxThenFpDomainSwitch)
{
    // Blocks alternate domains: the Boolean domain speculation must
    // recover correctly (and the final FP state must reflect aliasing).
    Assembler as(Layout::code_base);
    as.movRI(RegEbx, Layout::data_base);
    as.movRI(RegEax, 0x1234);
    as.movdMmR(0, RegEax);
    Label next = as.label();
    as.jmp(next); // block boundary
    as.bind(next);
    as.emms();    // empty tags so FP code can run
    as.fldz();
    as.fld1();
    as.farithStiSt0(Op::Fadd, 1, true);
    as.fstM64(memb(RegEbx, 0), true);
    as.movRM(RegEax, memb(RegEbx, 4));
    emitExitEax(as);
    diffRun(makeImage(as));
}

TEST(FpEnd2End, SsePackedSingleKernel)
{
    Assembler as(Layout::code_base);
    as.movRI(RegEbx, Layout::data_base);
    for (int k = 0; k < 4; ++k) {
        as.movRI(RegEax, 0x3f800000 + (k << 20)); // floats
        as.movMR(memb(RegEbx, k * 4), RegEax);
        as.movRI(RegEax, 0x40000000);
        as.movMR(memb(RegEbx, 16 + k * 4), RegEax);
    }
    as.movRI(RegEcx, 40);
    Label top = as.label();
    as.bind(top);
    as.movapsXM(0, memb(RegEbx, 0));
    as.movapsXM(1, memb(RegEbx, 16));
    as.sseArithXX(Op::Addps, 0, 1);
    as.sseArithXX(Op::Mulps, 0, 1);
    as.movapsMX(memb(RegEbx, 32), 0);
    as.decR(RegEcx);
    as.jcc(Cond::NE, top);
    as.movRM(RegEax, memb(RegEbx, 40));
    emitExitEax(as);
    core::Options hot;
    hot.heat_threshold = 8;
    hot.hot_batch = 1;
    diffRun(makeImage(as), hot);
}

TEST(FpEnd2End, SseFormatSwitching)
{
    // packed-int, packed-single and packed-double in sequence across
    // separate blocks: exercises format guards + conversions.
    Assembler as(Layout::code_base);
    as.movRI(RegEbx, Layout::data_base);
    for (int k = 0; k < 4; ++k)
        as.movMI(memb(RegEbx, k * 4), 0x40400000); // 3.0f
    Label b2 = as.label(), b3 = as.label();
    as.movdqaXM(0, memb(RegEbx, 0)); // packed-int load
    as.sseArithXM(Op::PadddX, 0, memb(RegEbx, 0));
    as.jmp(b2);
    as.bind(b2);
    as.movapsXM(1, memb(RegEbx, 0));
    as.sseArithXX(Op::Addps, 1, 0); // reg 0 converts int->ps
    as.jmp(b3);
    as.bind(b3);
    as.cvtps2pd(2, 1);              // pd from ps
    as.sseArithXX(Op::Addpd, 2, 2);
    as.movapsMX(memb(RegEbx, 48), 2);
    as.movRM(RegEax, memb(RegEbx, 52));
    emitExitEax(as);
    Image img = makeImage(as);
    diffRun(img);

    core::Options no_spec;
    no_spec.enable_sse_format_spec = false;
    diffRun(img, no_spec);
}

TEST(FpEnd2End, ScalarSseAndConversions)
{
    Assembler as(Layout::code_base);
    as.movRI(RegEbx, Layout::data_base);
    as.movRI(RegEax, 41);
    as.cvtsi2ss(0, RegEax);
    as.sseArithXX(Op::Addss, 0, 0); // 82.0f
    as.sseArithXX(Op::Mulss, 0, 0); // 6724.0f
    as.cvttss2si(RegEax, 0);
    emitExitEax(as);
    diffRun(makeImage(as));
}

/**
 * sqrt(16) @p iters times, through x87 fsqrt or SSE sqrtss; the exit
 * leaves the result's bits (the high word of the x87 double) in EBX.
 */
Image
sqrtProgram(bool sse, uint32_t iters)
{
    Assembler as(Layout::code_base);
    as.movRI(RegEbx, Layout::data_base);
    if (sse) {
        as.movMI(memb(RegEbx, 0), 0x41800000); // 16.0f
    } else {
        as.movMI(memb(RegEbx, 0), 0);          // 16.0
        as.movMI(memb(RegEbx, 4), 0x40300000);
    }
    as.movRI(RegEcx, iters);
    Label top = as.label();
    as.bind(top);
    if (sse) {
        as.movssXM(0, memb(RegEbx, 0));
        as.sseArithXX(Op::Sqrtss, 1, 0);
        as.movssMX(memb(RegEbx, 8), 1);
    } else {
        as.fldM64(memb(RegEbx, 0));
        as.fsqrt();
        as.fstM64(memb(RegEbx, 8), true);
    }
    as.decR(RegEcx);
    as.jcc(Cond::NE, top);
    as.movRM(RegEax, memb(RegEbx, sse ? 8 : 12));
    emitExitEax(as);
    return makeImage(as);
}

/** The translated sqrt must compute what the interpreter does (4.0). */
void
diffSqrt(bool sse, bool hot)
{
    Image img = sqrtProgram(sse, hot ? 200 : 1);
    harness::Outcome ref = harness::runInterpreter(img, OsAbi::Linux);
    ASSERT_EQ(ref.final_state.gpr[RegEbx], sse ? 0x40800000u : 0x40100000u);
    core::Options opts;
    if (hot) {
        opts.heat_threshold = 16;
        opts.hot_batch = 1;
    }
    harness::TranslatedRun tr = diffRun(img, opts);
    EXPECT_EQ(tr.outcome.final_state.gpr[RegEbx],
              ref.final_state.gpr[RegEbx]);
    EXPECT_EQ(tr.runtime->translator().stats.get("xlate.hot_blocks") > 0,
              hot);
}

TEST(FpEnd2End, X87SqrtCold) { diffSqrt(false, false); }
TEST(FpEnd2End, X87SqrtHot) { diffSqrt(false, true); }
TEST(FpEnd2End, SseSqrtCold) { diffSqrt(true, false); }
TEST(FpEnd2End, SseSqrtHot) { diffSqrt(true, true); }

TEST(FpEnd2End, UcomissControlFlow)
{
    Assembler as(Layout::code_base);
    as.movRI(RegEbx, Layout::data_base);
    as.movMI(memb(RegEbx, 0), 0x3f800000); // 1.0f
    as.movMI(memb(RegEbx, 4), 0x40000000); // 2.0f
    as.movssXM(0, memb(RegEbx, 0));
    as.movssXM(1, memb(RegEbx, 4));
    as.ucomissXX(0, 1);
    as.movRI(RegEax, 0);
    Label done = as.label();
    as.jcc(Cond::AE, done);
    as.movRI(RegEax, 77);
    as.bind(done);
    emitExitEax(as);
    diffRun(makeImage(as));
}

TEST(FpEnd2End, MisalignmentPipelineStages)
{
    // A block with misaligned accesses: first execution trips stage 1,
    // regeneration avoids, hot promotion uses recorded granularity; the
    // result must stay correct throughout and the run must end with far
    // fewer machine-level misaligned accesses than accesses performed.
    Assembler as(Layout::code_base);
    as.movRI(RegEbx, Layout::data_base + 2); // 2-byte misaligned
    as.movRI(RegEcx, 400);
    as.movRI(RegEax, 0);
    Label top = as.label();
    as.bind(top);
    as.movMR(membi(RegEbx, RegEcx, 4, 0), RegEcx);
    as.aluRM(Op::Add, RegEax, membi(RegEbx, RegEcx, 4, 0));
    as.decR(RegEcx);
    as.jcc(Cond::NE, top);
    as.aluRI(Op::And, RegEax, 0xffff);
    emitExitEax(as);
    Image img = makeImage(as);

    core::Options hot;
    hot.heat_threshold = 16;
    hot.hot_batch = 1;
    diffRun(img, hot);

    harness::TranslatedRun avoid =
        harness::runTranslated(img, OsAbi::Linux, hot);
    core::Options no_avoid = hot;
    no_avoid.enable_misalign_avoidance = false;
    harness::TranslatedRun raw =
        harness::runTranslated(img, OsAbi::Linux, no_avoid);
    // Avoidance must eliminate most machine-level misaligned accesses.
    EXPECT_LT(avoid.runtime->machine().misalignedAccesses() * 5,
              raw.runtime->machine().misalignedAccesses());
    // And it must be dramatically faster on this workload.
    EXPECT_LT(avoid.outcome.cycles * 2, raw.outcome.cycles);
}

} // namespace
} // namespace el
