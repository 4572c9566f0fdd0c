/**
 * @file
 * Ablations of the design choices the paper calls out: the second
 * (hot) phase, EFlags elimination, FXCH elimination, the register FP
 * stack vs the FX!32-style in-memory stack, address CSE, loop
 * unrolling, load speculation, block chaining and misalignment
 * avoidance. Each row is the slowdown of turning one feature off,
 * measured on a workload that stresses it, next to the change in code
 * size (code-cache high-water) and in retired IPF instructions: a
 * feature can pay in code without moving cycles, when the instructions
 * it saves sat in otherwise free issue slots.
 */

#include "bench/bench_common.hh"

using namespace el;

namespace
{

/** The simulated results one configuration is compared on. */
struct Result
{
    double cycles = 0;
    double code = 0;    //!< Code-cache high-water, IPF instructions.
    double retired = 0; //!< Retired IPF instructions.
};

Result
resultOf(const harness::TranslatedRun &tr)
{
    return {tr.outcome.cycles,
            static_cast<double>(tr.runtime->codeCache().highWater()),
            static_cast<double>(tr.runtime->machine().retired())};
}

Result
resultWith(const guest::Workload &w, const core::Options &o)
{
    return resultOf(harness::runTranslated(w.image, w.params.abi, o));
}

/** Relative change of @p v against @p base, as "+1.5%". */
std::string
delta(double v, double base)
{
    return strfmt("%+.1f%%", 100.0 * (v / base - 1.0));
}

} // namespace

int
main(int argc, char **argv)
{
    if (int rc = bench::handleArgs(argc, argv); rc >= 0)
        return rc;
    bench::banner("Design-choice ablations", "sections 2, 4, 5");

    guest::WorkloadParams ip;
    ip.outer_iters = 30;
    ip.size = 16000;
    guest::Workload intw = guest::buildStream("int-kernel", ip);

    guest::WorkloadParams fp;
    fp.outer_iters = 25;
    fp.size = 4000;
    guest::Workload fpw = guest::buildFpKernel("fp-kernel", fp);

    guest::WorkloadParams mp = ip;
    mp.misaligned = 2;
    mp.size = 8000;
    guest::Workload misw = guest::buildMatrix("mis-kernel", mp);

    core::Options base;
    Result int_base = resultWith(intw, base);
    Result fp_base = resultWith(fpw, base);
    Result mis_base = resultWith(misw, base);

    bench::Report rep("ablation_design_choices");
    rep.scalar("baseline_int_cycles", int_base.cycles);
    rep.scalar("baseline_fp_cycles", fp_base.cycles);
    rep.scalar("baseline_mis_cycles", mis_base.cycles);

    Table t({"feature disabled", "workload", "slowdown", "code",
             "retired IPF"});
    auto row = [&](const char *name, const guest::Workload &w,
                   const Result &b, core::Options o) {
        harness::TranslatedRun tr =
            harness::runTranslated(w.image, w.params.abi, o);
        Result r = resultOf(tr);
        t.addRow({name, w.name, strfmt("%.2fx", r.cycles / b.cycles),
                  delta(r.code, b.code), delta(r.retired, b.retired)});
        rep.row(name)
            .metric("cycles", r.cycles)
            .metric("slowdown", r.cycles / b.cycles)
            .metric("code_insns", r.code)
            .metric("code_ratio", r.code / b.code)
            .metric("retired_ipf", r.retired)
            .metric("retired_ratio", r.retired / b.retired)
            .attribution(*tr.runtime);
    };

    {
        core::Options o;
        o.enable_hot_phase = false;
        row("hot phase (cold only)", intw, int_base, o);
    }
    {
        core::Options o;
        o.enable_eflags_elim = false;
        row("EFlags elimination", intw, int_base, o);
    }
    {
        core::Options o;
        o.enable_addr_cse = false;
        row("address CSE", intw, int_base, o);
    }
    {
        core::Options o;
        o.enable_unroll = false;
        row("loop unrolling", intw, int_base, o);
    }
    {
        core::Options o;
        o.enable_load_speculation = false;
        row("load speculation (ld.s/chk.s)", intw, int_base, o);
    }
    {
        core::Options o;
        o.enable_chaining = false;
        row("block chaining", intw, int_base, o);
    }
    {
        core::Options o;
        o.enable_fxch_elim = false;
        row("FXCH elimination", fpw, fp_base, o);
    }
    {
        core::Options o;
        o.enable_fp_stack_spec = false;
        row("register FP stack (use memory stack)", fpw, fp_base, o);
    }
    {
        core::Options o;
        o.enable_misalign_avoidance = false;
        o.max_run_cycles = 8ULL * 1000 * 1000 * 1000;
        row("misalignment avoidance", misw, mis_base, o);
    }
    rep.write();
    std::printf("%s\n", t.render().c_str());
    std::printf("Interpretation: >1.00x means the feature pays off on\n"
                "its stress workload; code and retired IPF are the change\n"
                "with the feature off (positive: the feature saves them).\n"
                "The FP-stack-in-memory row is the FX!32 alternative the\n"
                "paper rejects in section 5.\n");
    return 0;
}
