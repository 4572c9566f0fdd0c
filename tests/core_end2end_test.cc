/**
 * @file
 * End-to-end differential tests: every program is executed both by the
 * reference interpreter and by the IA-32 EL runtime on the IPF machine;
 * exit codes, console output and final architectural state must agree.
 * This is the master correctness property of the whole translator.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "btlib/abi.hh"
#include "guest/image.hh"
#include "guest/workloads.hh"
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
using namespace ia32; // register names

/** Emit "exit(code-in-eax)" for the Linux personality. */
void
emitExitEax(Assembler &as)
{
    as.movRR(RegEbx, RegEax); // code
    as.movRI(RegEax, btlib::linux_abi::nr_exit);
    as.intN(btlib::linux_abi::int_vector);
}

Image
makeImage(Assembler &as, uint32_t data_size = 0x10000)
{
    Image img;
    img.name = "test";
    img.entry = as.base();
    img.addCode(as.base(), as.finish());
    img.addData(Layout::data_base, data_size);
    return img;
}

/** Run both ways and compare everything. */
void
diffRun(const Image &img, OsAbi abi = OsAbi::Linux,
        core::Options opts = {})
{
    harness::Outcome ref = harness::runInterpreter(img, abi);
    harness::TranslatedRun tr = harness::runTranslated(img, abi, opts);
    const harness::Outcome &got = tr.outcome;

    EXPECT_EQ(ref.exited, got.exited);
    EXPECT_EQ(ref.faulted, got.faulted);
    if (ref.exited)
        EXPECT_EQ(ref.exit_code, got.exit_code);
    if (ref.faulted) {
        EXPECT_EQ(ref.fault.kind, got.fault.kind);
        EXPECT_EQ(ref.fault.eip, got.fault.eip);
    }
    EXPECT_EQ(ref.console, got.console);
    std::string why;
    EXPECT_TRUE(ref.final_state.equalsArch(got.final_state, &why))
        << "state mismatch: " << why;
}

TEST(End2End, StraightLineArithmetic)
{
    Assembler as(Layout::code_base);
    as.movRI(RegEax, 100);
    as.movRI(RegEcx, 7);
    as.imulRR(RegEax, RegEcx);
    as.aluRI(Op::Add, RegEax, -58);
    emitExitEax(as); // 642
    diffRun(makeImage(as));
}

TEST(End2End, LoopSum)
{
    Assembler as(Layout::code_base);
    as.movRI(RegEax, 0);
    as.movRI(RegEcx, 1000);
    Label top = as.label();
    as.bind(top);
    as.aluRR(Op::Add, RegEax, RegEcx);
    as.decR(RegEcx);
    as.jcc(Cond::NE, top);
    as.aluRI(Op::And, RegEax, 0xff);
    emitExitEax(as);
    diffRun(makeImage(as));
}

TEST(End2End, MemoryLoadsStores)
{
    Assembler as(Layout::code_base);
    as.movRI(RegEbx, Layout::data_base);
    as.movRI(RegEcx, 64);
    as.movRI(RegEax, 1);
    Label top = as.label();
    as.bind(top);
    as.movMR(membi(RegEbx, RegEcx, 4, -4), RegEax);
    as.aluRR(Op::Add, RegEax, RegEax);
    as.aluRI(Op::And, RegEax, 0xffff);
    as.decR(RegEcx);
    as.jcc(Cond::NE, top);
    // checksum
    as.movRI(RegEcx, 64);
    as.movRI(RegEax, 0);
    Label top2 = as.label();
    as.bind(top2);
    as.aluRM(Op::Add, RegEax, membi(RegEbx, RegEcx, 4, -4));
    as.decR(RegEcx);
    as.jcc(Cond::NE, top2);
    as.aluRI(Op::And, RegEax, 0x7f);
    emitExitEax(as);
    diffRun(makeImage(as));
}

TEST(End2End, CallsAndReturns)
{
    Assembler as(Layout::code_base);
    Label fib = as.label();
    as.movRI(RegEax, 12);
    as.call(fib);
    emitExitEax(as);
    // fib(eax) recursive
    as.bind(fib);
    as.aluRI(Op::Cmp, RegEax, 2);
    Label rec = as.label();
    as.jcc(Cond::AE, rec);
    as.ret();
    as.bind(rec);
    as.pushR(RegEax);
    as.aluRI(Op::Sub, RegEax, 1);
    as.call(fib);
    as.popR(RegEcx);
    as.pushR(RegEax);
    as.lea(RegEax, memb(RegEcx, -2));
    as.call(fib);
    as.popR(RegEcx);
    as.aluRR(Op::Add, RegEax, RegEcx);
    as.ret();
    diffRun(makeImage(as));
}

TEST(End2End, IndirectCallTable)
{
    Assembler as(Layout::code_base);
    Label f1 = as.label(), f2 = as.label(), f3 = as.label();
    Label start = as.label();
    as.jmp(start);
    as.bind(f1);
    as.aluRI(Op::Add, RegEax, 1);
    as.ret();
    as.bind(f2);
    as.aluRI(Op::Add, RegEax, 10);
    as.ret();
    as.bind(f3);
    as.aluRI(Op::Add, RegEax, 100);
    as.ret();
    as.bind(start);
    // Build a function table in data memory, then call through it.
    as.movRI(RegEbx, Layout::data_base);
    // Table entries are patched at run time via code: store addresses.
    // We don't know label addresses here, so compute via call/pop idiom:
    // instead, store function pointers using lea on absolute addrs is
    // impossible pre-link; use three direct calls through registers by
    // loading the table with mov imm32 (assembler resolves labels only
    // for branches). Keep it simple: call each function via register
    // using the return value of a helper that pushes/pops EIP.
    as.movRI(RegEax, 0);
    as.movRI(RegEcx, 30);
    Label loop = as.label();
    as.bind(loop);
    as.call(f1);
    as.call(f2);
    as.call(f3);
    as.decR(RegEcx);
    as.jcc(Cond::NE, loop);
    as.aluRI(Op::And, RegEax, 0xffff);
    emitExitEax(as);
    diffRun(makeImage(as));
}

TEST(End2End, IndirectJumpViaRegister)
{
    Assembler as(Layout::code_base);
    // call next to discover EIP, compute a jump target from it.
    Label here = as.label(), target = as.label(), loop = as.label();
    as.movRI(RegEax, 0);
    as.movRI(RegEcx, 50);
    as.bind(loop);
    as.call(here);
    as.bind(here);
    as.popR(RegEdx); // edx = address of `here`
    // Jump to `target` computed as here + (target - here): encode the
    // delta by scanning at test time is fragile; instead jump to the
    // address stored in memory which we seed with a store of a label
    // offset computed with call/pop at startup. Simplest: jmp edx lands
    // right back at `popR`? That would loop forever. Use ret-style jump:
    as.aluRI(Op::Add, RegEdx, 9); // skip pop(1)+add(3)+jmp(2)+inc... see below
    as.jmpR(RegEdx);
    as.incR(RegEax); // skipped (3 bytes: inc is 1 byte; padding nops)
    as.nop();
    as.nop();
    as.bind(target);
    as.aluRI(Op::Add, RegEax, 2);
    as.decR(RegEcx);
    as.jcc(Cond::NE, loop);
    emitExitEax(as);
    diffRun(makeImage(as));
}

TEST(End2End, FlagsChains)
{
    Assembler as(Layout::code_base);
    // adc/sbb chains + setcc/cmov consumers.
    as.movRI(RegEax, 0xffffffff);
    as.movRI(RegEdx, 1);
    as.aluRI(Op::Add, RegEax, 1);      // CF=1
    as.aluRI(Op::Adc, RegEdx, 0);      // edx=2
    as.movRI(RegEbx, 5);
    as.aluRI(Op::Sub, RegEbx, 7);      // CF=1 (borrow)
    as.aluRI(Op::Sbb, RegEdx, 0);      // edx=1
    as.setcc(Cond::S, RegAl);          // SF from sbb result
    as.movRI(RegEcx, 0);
    as.testRR(RegEdx, RegEdx);
    as.cmovcc(Cond::NE, RegEcx, RegEdx);
    as.shiftRI(Op::Shl, RegEcx, 4);
    as.aluRR(Op::Or, RegEax, RegEcx);
    as.aluRI(Op::And, RegEax, 0xff);
    emitExitEax(as);
    diffRun(makeImage(as));
}

TEST(End2End, ShiftsAndRotates)
{
    Assembler as(Layout::code_base);
    as.movRI(RegEax, 0x12345678);
    as.shiftRI(Op::Rol, RegEax, 8);
    as.shiftRI(Op::Ror, RegEax, 4);
    as.movRI8(RegCl, 3);
    as.shiftRCl(Op::Shr, RegEax);
    as.movRI8(RegCl, 0);
    as.shiftRCl(Op::Shl, RegEax); // count 0: no change
    as.shiftRI(Op::Sar, RegEax, 2);
    as.aluRI(Op::And, RegEax, 0xffff);
    emitExitEax(as);
    diffRun(makeImage(as));
}

TEST(End2End, MulDivMix)
{
    Assembler as(Layout::code_base);
    as.movRI(RegEax, 123456789);
    as.movRI(RegEcx, 10007);
    as.cdq();
    as.idivR(RegEcx);           // eax=quotient edx=rem
    as.imulRR(RegEdx, RegEcx);
    as.aluRR(Op::Add, RegEax, RegEdx);
    as.movRI(RegEcx, 97);
    as.movRI(RegEdx, 0);
    as.divR(RegEcx);
    as.movRR(RegEax, RegEdx);   // remainder
    emitExitEax(as);
    diffRun(makeImage(as));
}

TEST(End2End, ConsoleWrite)
{
    Assembler as(Layout::code_base);
    // Store "Hi!\n" to data memory and write it out.
    as.movRI(RegEbx, Layout::data_base);
    as.movMI(memb(RegEbx, 0), 0x0a216948); // "Hi!\n"
    as.movRI(RegEax, btlib::linux_abi::nr_write);
    as.movRI(RegEbx, Layout::data_base);
    as.movRI(RegEcx, 4);
    as.intN(0x80);
    as.movRI(RegEax, 7);
    emitExitEax(as);
    diffRun(makeImage(as));
}

TEST(End2End, WindowsAbiWorksToo)
{
    Assembler as(Layout::code_base);
    // Argument block at data_base: [code]
    as.movRI(RegEbx, Layout::data_base);
    as.movMI(memb(RegEbx, 0), 42);
    as.movRI(RegEax, btlib::windows_abi::nr_terminate);
    as.movRI(RegEdx, Layout::data_base);
    as.intN(btlib::windows_abi::int_vector);
    Image img = makeImage(as);
    harness::Outcome ref = harness::runInterpreter(img, OsAbi::Windows);
    harness::TranslatedRun tr =
        harness::runTranslated(img, OsAbi::Windows);
    EXPECT_TRUE(ref.exited);
    EXPECT_TRUE(tr.outcome.exited);
    EXPECT_EQ(ref.exit_code, 42);
    EXPECT_EQ(tr.outcome.exit_code, 42);
}

TEST(End2End, PreciseDivideFault)
{
    Assembler as(Layout::code_base);
    as.movRI(RegEax, 5);
    as.movRI(RegEdx, 0);
    as.movRI(RegEcx, 0);
    as.movRI(RegEsi, 0x1234);
    as.divR(RegEcx); // #DE here
    as.movRI(RegEsi, 0x9999); // must not run
    emitExitEax(as);
    diffRun(makeImage(as));
}

TEST(End2End, PrecisePageFault)
{
    Assembler as(Layout::code_base);
    as.movRI(RegEax, 0x11);
    as.movRI(RegEbx, 0x00000040); // unmapped page 0
    as.movRI(RegEdi, 3);
    as.movMR(memb(RegEbx, 0), RegEax); // #PF
    as.movRI(RegEdi, 9);
    emitExitEax(as);
    diffRun(makeImage(as));
}

TEST(End2End, FaultHandlerResume)
{
    Assembler as(Layout::code_base);
    Label handler = as.label(), cont = as.label();
    // Register the handler, then fault, then continue.
    // set_handler(handler): need its absolute address; use call/pop.
    Label gethandler = as.label();
    as.call(gethandler);
    as.bind(gethandler);
    as.popR(RegEbx);           // ebx = address of `gethandler`
    as.aluRI(Op::Add, RegEbx, 64); // handler placed 64 bytes ahead
    as.movRI(RegEax, btlib::linux_abi::nr_set_handler);
    as.intN(0x80);
    as.movRI(RegEbx, 0x00000040);
    as.movRI(RegEdi, 0);
    as.movMR(memb(RegEbx, 0), RegEdi); // faults; handler resumes at cont
    as.bind(cont);
    as.movRI(RegEax, 123);
    emitExitEax(as);
    // Pad so the handler begins exactly 64 bytes after gethandler.
    while (as.pc() < Layout::code_base + 5 + 64)
        as.nop();
    as.bind(handler);
    // eax=fault kind, ebx=addr, ecx=old eip. Resume at `cont`.
    as.jmp(cont);
    diffRun(makeImage(as));
}

TEST(End2End, EightAndSixteenBitOps)
{
    Assembler as(Layout::code_base);
    as.movRI(RegEax, 0x11223344);
    as.movRI8(RegAh, 0x7f);
    as.aluRI8(Op::Add, RegAh, 1);   // overflow in 8-bit
    as.movRI8(RegCl, 0x10);
    as.aluRR8(Op::Add, RegCl, RegAh);
    as.movzxRR8(RegEdx, RegCl);
    as.aluRR(Op::Add, RegEax, RegEdx);
    as.aluRI(Op::And, RegEax, 0xffffff);
    emitExitEax(as);
    diffRun(makeImage(as));
}

TEST(End2End, StringOps)
{
    Assembler as(Layout::code_base);
    as.cld();
    as.movRI(RegEdi, Layout::data_base);
    as.movRI(RegEax, 0x61616161);
    as.movRI(RegEcx, 16);
    as.repStosd();
    as.movRI(RegEsi, Layout::data_base);
    as.movRI(RegEdi, Layout::data_base + 0x100);
    as.movRI(RegEcx, 16);
    as.repMovsd();
    as.movRI(RegEax, 0);
    as.aluRM(Op::Add, RegEax, memabs(Layout::data_base + 0x100 + 60));
    as.aluRI(Op::And, RegEax, 0xff);
    emitExitEax(as);
    diffRun(makeImage(as));
}

TEST(End2End, HotPromotion)
{
    // A tight loop that crosses the heating threshold; results must be
    // identical with hot translation on and off.
    core::Options hot_on;
    hot_on.heat_threshold = 16;
    hot_on.hot_batch = 1;
    core::Options hot_off;
    hot_off.enable_hot_phase = false;

    Assembler as(Layout::code_base);
    as.movRI(RegEax, 0);
    as.movRI(RegEbx, Layout::data_base);
    as.movRI(RegEcx, 5000);
    Label top = as.label();
    as.bind(top);
    as.movRM(RegEdx, memb(RegEbx, 0));
    as.aluRR(Op::Add, RegEdx, RegEcx);
    as.movMR(memb(RegEbx, 0), RegEdx);
    as.aluRR(Op::Add, RegEax, RegEdx);
    as.decR(RegEcx);
    as.jcc(Cond::NE, top);
    as.aluRI(Op::And, RegEax, 0xffff);
    emitExitEax(as);
    Image img = makeImage(as);

    diffRun(img, OsAbi::Linux, hot_on);
    diffRun(img, OsAbi::Linux, hot_off);

    // Confirm hot code actually ran in the hot_on configuration.
    harness::TranslatedRun tr =
        harness::runTranslated(img, OsAbi::Linux, hot_on);
    EXPECT_GT(tr.runtime->translator().stats.get("xlate.hot_blocks"), 0u);
    EXPECT_GT(tr.runtime->machine().stats().cycles[static_cast<size_t>(
                  ipf::Bucket::Hot)],
              0.0);
}

TEST(End2End, HotFaultIsPrecise)
{
    // Fault deep inside a hot loop: reconstruction maps must produce
    // the same precise state the interpreter sees.
    core::Options hot;
    hot.heat_threshold = 8;
    hot.hot_batch = 1;

    Assembler as(Layout::code_base);
    as.movRI(RegEax, 0);
    as.movRI(RegEbx, Layout::data_base);
    as.movRI(RegEcx, 2000);
    Label top = as.label();
    as.bind(top);
    as.aluRR(Op::Add, RegEax, RegEcx);
    as.movMR(memb(RegEbx, 0), RegEax);
    // After enough iterations, ebx walks off the mapped data area.
    as.aluRI(Op::Add, RegEbx, 64);
    as.decR(RegEcx);
    as.jcc(Cond::NE, top);
    emitExitEax(as);
    diffRun(makeImage(as, 0x8000), OsAbi::Linux, hot);
}

TEST(End2End, MisalignedAccessesStillCorrect)
{
    Assembler as(Layout::code_base);
    as.movRI(RegEbx, Layout::data_base + 1); // misaligned base
    as.movRI(RegEcx, 200);
    as.movRI(RegEax, 0);
    Label top = as.label();
    as.bind(top);
    as.movMR(membi(RegEbx, RegEcx, 4, 0), RegEcx);
    as.aluRM(Op::Add, RegEax, membi(RegEbx, RegEcx, 4, 0));
    as.decR(RegEcx);
    as.jcc(Cond::NE, top);
    as.aluRI(Op::And, RegEax, 0xffff);
    emitExitEax(as);
    diffRun(makeImage(as));
}

TEST(End2End, SelfModifyingCode)
{
    // Code on a writable page patches an immediate, then re-executes.
    Assembler as(Layout::code_base);
    Label patch_site = as.label(), loop = as.label();
    as.movRI(RegEdx, 2); // two passes
    as.bind(loop);
    as.bind(patch_site);
    as.movRI(RegEax, 1111); // imm patched to 2222 below
    // Patch the imm32 of the mov above (1 byte opcode + 4 imm).
    as.movRI(RegEbx, Layout::code_base + 6); // address of imm field
    as.movMI(memb(RegEbx, 0), 2222);
    as.decR(RegEdx);
    as.jcc(Cond::NE, loop);
    as.aluRI(Op::And, RegEax, 0xffff);
    emitExitEax(as);

    Image img;
    img.entry = Layout::code_base;
    Assembler as2(Layout::code_base);
    img.name = "smc";
    img.addCode(Layout::code_base, as.finish(), /*writable=*/true);
    img.addData(Layout::data_base, 0x1000);
    diffRun(img);
}

TEST(End2End, SmcRoundTripRetranslates)
{
    // The SMC guard must fire, invalidate the patched block, and the
    // retranslated block must execute the *new* bytes: the final pass
    // loads the patched immediate.
    // Each pass stores the (changing) loop counter into the mov's
    // immediate, so a re-entered translation sees modified bytes.
    Assembler as(Layout::code_base);
    Label loop = as.label();
    as.movRI(RegEdx, 3);
    as.bind(loop);
    as.movRI(RegEax, 1111); // imm rewritten with edx every pass
    as.movRI(RegEbx, Layout::code_base + 6); // imm field of the mov
    as.movMR(memb(RegEbx, 0), RegEdx);
    as.decR(RegEdx);
    as.jcc(Cond::NE, loop);
    as.aluRI(Op::And, RegEax, 0xffff);
    emitExitEax(as);

    Image img;
    img.name = "smc_roundtrip";
    img.entry = Layout::code_base;
    img.addCode(Layout::code_base, as.finish(), /*writable=*/true);
    img.addData(Layout::data_base, 0x1000);

    harness::TranslatedRun tr = harness::runTranslated(img, OsAbi::Linux);
    ASSERT_TRUE(tr.outcome.exited);
    EXPECT_EQ(tr.outcome.exit_code, 2);
    // The round trip actually happened: SMC exit taken, a translation
    // invalidated, and the entry block translated more than once.
    EXPECT_GE(tr.runtime->stats().get("exits.smc"), 1u);
    EXPECT_GE(tr.runtime->translator().stats.get("smc.invalidations"), 1u);
    EXPECT_GE(tr.runtime->translator().stats.get("xlate.cold_blocks"), 2u);
    diffRun(img); // and the interpreter agrees on everything
}

TEST(End2End, SmcInvalidationIsSurgical)
{
    // Two independent blocks on the same writable page: invalidating
    // the guarded window of one must not take down its neighbour (the
    // SMC payload carries the window width, not a whole page).
    Assembler as(Layout::code_base);
    Label fn_a = as.label(), fn_b = as.label(), start = as.label();
    as.jmp(start);
    while (as.pc() < Layout::code_base + 32)
        as.nop();
    as.bind(fn_a);
    as.aluRI(Op::Add, RegEax, 3);
    as.ret();
    while (as.pc() < Layout::code_base + 64)
        as.nop();
    as.bind(fn_b);
    as.aluRI(Op::Add, RegEax, 7);
    as.ret();
    as.bind(start);
    as.movRI(RegEax, 0);
    as.movRI(RegEcx, 4);
    Label loop = as.label();
    as.bind(loop);
    as.call(fn_a);
    as.call(fn_b);
    as.decR(RegEcx);
    as.jcc(Cond::NE, loop);
    emitExitEax(as);

    Image img;
    img.name = "smc_surgical";
    img.entry = Layout::code_base;
    img.addCode(Layout::code_base, as.finish(), /*writable=*/true);
    img.addData(Layout::data_base, 0x1000);

    harness::TranslatedRun tr = harness::runTranslated(img, OsAbi::Linux);
    ASSERT_TRUE(tr.outcome.exited);
    EXPECT_EQ(tr.outcome.exit_code, 40);

    core::Translator &xlate = tr.runtime->translator();
    const uint32_t a_entry = Layout::code_base + 32;
    const uint32_t b_entry = Layout::code_base + 64;
    bool saw_a = false, saw_b = false;
    xlate.invalidateRange(a_entry, 8); // the guarded window of fn_a
    for (int32_t id = 0; core::BlockInfo *b = xlate.blockById(id); ++id) {
        if (b->entry_eip == a_entry && b->kind == core::BlockKind::Cold) {
            saw_a = true;
            EXPECT_TRUE(b->invalidated) << "patched block must die";
        }
        if (b->entry_eip == b_entry && b->kind == core::BlockKind::Cold) {
            saw_b = true;
            EXPECT_FALSE(b->invalidated)
                << "same-page neighbour must survive";
        }
    }
    EXPECT_TRUE(saw_a);
    EXPECT_TRUE(saw_b);
}

TEST(End2End, HotFaultReconstructsPreciseState)
{
    // A fault that lands while hot-trace code is executing must be
    // reconstructed to the exact interpreter state via the recovery
    // maps — registers, EIP and fault coordinates all bit-equal.
    core::Options hot;
    hot.heat_threshold = 8;
    hot.hot_batch = 1;

    Assembler as(Layout::code_base);
    as.movRI(RegEax, 0);
    as.movRI(RegEsi, 0x5a5a0001); // distinctive live values the
    as.movRI(RegEdi, 0x0f0f0002); // reconstruction must preserve
    as.movRI(RegEbx, Layout::data_base);
    as.movRI(RegEcx, 2000);
    Label top = as.label();
    as.bind(top);
    as.aluRR(Op::Add, RegEax, RegEcx);
    as.aluRI(Op::Xor, RegEsi, 0x1111);
    as.movMR(memb(RegEbx, 0), RegEax);
    // ebx eventually walks off the mapped data area -> #PF in hot code.
    as.aluRI(Op::Add, RegEbx, 64);
    as.decR(RegEcx);
    as.jcc(Cond::NE, top);
    emitExitEax(as);
    Image img = makeImage(as, 0x8000);

    harness::Outcome ref = harness::runInterpreter(img, OsAbi::Linux);
    harness::TranslatedRun tr =
        harness::runTranslated(img, OsAbi::Linux, hot);
    ASSERT_TRUE(ref.faulted);
    ASSERT_TRUE(tr.outcome.faulted);
    // The fault really was serviced out of hot code, not a cold block.
    EXPECT_GT(tr.runtime->translator().stats.get("xlate.hot_blocks"), 0u);
    EXPECT_GE(tr.runtime->stats().get("faults.memory"), 1u);
    EXPECT_EQ(ref.fault.kind, tr.outcome.fault.kind);
    EXPECT_EQ(ref.fault.eip, tr.outcome.fault.eip);
    EXPECT_EQ(ref.fault.addr, tr.outcome.fault.addr);
    std::string why;
    EXPECT_TRUE(ref.final_state.equalsArch(tr.outcome.final_state, &why))
        << "hot-fault state mismatch: " << why;
}

TEST(End2End, EflagsEliminationAblationAgrees)
{
    core::Options no_elim;
    no_elim.enable_eflags_elim = false;
    Assembler as(Layout::code_base);
    as.movRI(RegEax, 0);
    as.movRI(RegEcx, 500);
    Label top = as.label();
    as.bind(top);
    as.aluRR(Op::Add, RegEax, RegEcx);
    as.aluRI(Op::Xor, RegEax, 0x5a5a);
    as.decR(RegEcx);
    as.jcc(Cond::NE, top);
    as.aluRI(Op::And, RegEax, 0xffff);
    emitExitEax(as);
    diffRun(makeImage(as), OsAbi::Linux, no_elim);
}

// ----- issue-group legality over real traces ----------------------------

/**
 * Run @p w translated with the machine's group checker on or off and
 * return the simulated cycles. The checker panics on a read of a
 * register written earlier in the same issue group, so it exercises
 * the opcode table's register classes on every retired instruction.
 */
double
translatedCycles(const guest::Workload &w, bool verify_groups)
{
    mem::Memory memory;
    uint32_t esp = guest::load(w.image, memory);
    std::unique_ptr<btlib::SimOsBase> os =
        harness::makeOs(w.params.abi, memory);
    core::Runtime rt(memory, os->vtable(), core::Options{});
    EXPECT_TRUE(rt.initOk()) << rt.initError();
    rt.machine().config().verify_groups = verify_groups;
    os->setCycleSink([&rt](ipf::Bucket b, double c) {
        rt.machine().chargeCycles(b, c);
    });
    ia32::State state;
    state.eip = w.image.entry;
    state.gpr[RegEsp] = esp;
    core::RunResult rr = rt.run(state);
    rt.quiesce();
    EXPECT_EQ(rr.kind, core::RunResult::Kind::Exit) << w.name;
    return rt.machine().totalCycles();
}

class GroupLegality : public ::testing::TestWithParam<const char *>
{
};

TEST_P(GroupLegality, VerifiedRunMatchesPlainRun)
{
    std::vector<guest::Workload> all = guest::specIntSuite();
    for (guest::Workload &w : guest::specFpSuite())
        all.push_back(std::move(w));
    for (guest::Workload &w : guest::sysmarkSuite())
        all.push_back(std::move(w));
    auto it = std::find_if(all.begin(), all.end(),
                           [](const guest::Workload &w) {
                               return w.name == GetParam();
                           });
    ASSERT_NE(it, all.end()) << GetParam();
    EXPECT_EQ(translatedCycles(*it, true), translatedCycles(*it, false));
}

// Cold and hot x87, SSE and MMX code on both OS ABIs.
INSTANTIATE_TEST_SUITE_P(Suites, GroupLegality,
                         ::testing::Values("gzip", "crafty", "gcc",
                                           "wupwise", "swim", "art",
                                           "wordproc"));

} // namespace
} // namespace el
