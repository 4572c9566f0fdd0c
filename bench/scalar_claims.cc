/**
 * @file
 * The evaluation section's scalar claims, measured across the SPEC-like
 * suite:
 *  - hot translation overhead per IA-32 instruction ~ 20x cold (sec. 2)
 *  - cold blocks ~4-5 IA-32 insns, hot traces ~20 (sec. 2)
 *  - 5-10% of cold blocks reach the heating threshold (sec. 2)
 *  - ~1 commit point per 10 native instructions (sec. 4)
 *  - hot code ~3x faster than cold code per instruction (sec. 6)
 */

#include "bench/bench_common.hh"

using namespace el;

int
main(int argc, char **argv)
{
    if (int rc = bench::handleArgs(argc, argv); rc >= 0)
        return rc;
    bench::banner("Scalar claims of sections 2/4/6", "sections 2, 4, 6");

    double cold_blocks = 0, cold_insns = 0, hot_blocks = 0, hot_insns = 0;
    double hot_ipf = 0, commit_points = 0, registrations = 0;
    double hot_cycles = 0, cold_cycles = 0, hot_ret = 0, cold_ret = 0;
    bench::Report rep("scalar_claims");

    for (guest::Workload &w : guest::specIntSuite()) {
        harness::TranslatedRun tr =
            harness::runTranslated(w.image, w.params.abi);
        StatGroup &st = tr.runtime->translator().stats;
        rep.row(w.name)
            .metric("cycles", tr.outcome.cycles)
            .metric("cold_blocks", st.get("xlate.cold_blocks"))
            .metric("hot_blocks", st.get("xlate.hot_blocks"))
            .metric("commit_points", st.get("hot.commit_points"))
            .attribution(*tr.runtime);
        cold_blocks += st.get("xlate.cold_blocks");
        cold_insns += st.get("xlate.cold_insns");
        hot_blocks += st.get("xlate.hot_blocks");
        hot_insns += st.get("xlate.hot_insns");
        hot_ipf += st.get("xlate.hot_ipf_insns");
        commit_points += st.get("hot.commit_points");
        registrations += tr.runtime->stats().get("hot.registrations");
        const auto &ms = tr.runtime->machine().stats();
        hot_cycles += ms.cycles[0];
        cold_cycles += ms.cycles[1];
        hot_ret += static_cast<double>(ms.insns[0]);
        cold_ret += static_cast<double>(ms.insns[1]);
    }

    core::Options opts; // defaults: the cost model used for translation
    double cold_cost = core::cold_xlate_cost_per_insn;
    double hot_cost = opts.hot_xlate_cost_per_insn;

    Table t({"claim", "ours", "paper"});
    t.addRow({"hot/cold translation overhead per insn",
              strfmt("%.1fx", hot_cost / cold_cost), "~20x"});
    t.addRow({"avg IA-32 insns per cold block",
              strfmt("%.1f", cold_insns / cold_blocks), "4-5"});
    t.addRow({"avg IA-32 insns per hot trace",
              strfmt("%.1f", hot_insns / hot_blocks), "~20"});
    t.addRow({"cold blocks reaching heat threshold",
              strfmt("%.1f%%", 100.0 * hot_blocks / cold_blocks),
              "5-10%"});
    t.addRow({"commit points per 10 hot IPF insns",
              strfmt("%.1f", 10.0 * commit_points / hot_ipf), "~1"});
    double hot_cpi = hot_cycles / hot_ret;
    double cold_cpi = cold_cycles / cold_ret;
    t.addRow({"hot vs cold speed (cycles/IPF insn)",
              strfmt("%.2f vs %.2f", hot_cpi, cold_cpi), ""});
    // Per-guest-instruction comparison needs the IA-32 expansion rates.
    std::printf("%s\n", t.render().c_str());

    // Hot-vs-cold per guest instruction: run one loop kernel twice.
    {
        core::Options cold_only;
        cold_only.enable_hot_phase = false;
        guest::WorkloadParams p;
        p.outer_iters = 40;
        p.size = 20000;
        guest::Workload w = guest::buildStream("probe", p);
        harness::TranslatedRun hot =
            harness::runTranslated(w.image, w.params.abi);
        harness::TranslatedRun cold =
            harness::runTranslated(w.image, w.params.abi, cold_only);
        std::printf("hot-vs-cold end to end (stream kernel): "
                    "%.0f vs %.0f cycles -> hot is %.2fx faster "
                    "(paper: ~3x)\n",
                    hot.outcome.cycles, cold.outcome.cycles,
                    cold.outcome.cycles / hot.outcome.cycles);
        rep.scalar("hot_vs_cold_speedup",
                   cold.outcome.cycles / hot.outcome.cycles);
    }
    rep.scalar("hot_cold_xlate_cost_ratio", hot_cost / cold_cost);
    rep.scalar("avg_insns_per_cold_block", cold_insns / cold_blocks);
    rep.scalar("avg_insns_per_hot_trace", hot_insns / hot_blocks);
    rep.scalar("pct_cold_blocks_hot", 100.0 * hot_blocks / cold_blocks);
    rep.scalar("commit_points_per_10_hot_insns",
               10.0 * commit_points / hot_ipf);
    rep.scalar("hot_cpi", hot_cpi);
    rep.scalar("cold_cpi", cold_cpi);
    rep.write();
    return 0;
}
