/**
 * @file
 * Differential tests for the adversarial guest personalities: the
 * signal storm (dense mid-block faults into a registered handler, both
 * OS personalities), the JIT-style self-rewriting guest, and the
 * threaded guest whose two cooperative contexts share writable code
 * pages. Each runs under the reference interpreter and under the
 * translator — synchronously and with pipeline workers — and must
 * agree on exit code, console output and final architectural state.
 */

#include <gtest/gtest.h>

#include "guest/workloads.hh"
#include "harness/exec.hh"

namespace el
{
namespace
{

using btlib::OsAbi;
using guest::Workload;

void
diffWorkload(const Workload &w, core::Options opts = {})
{
    harness::Outcome ref = harness::runInterpreter(w.image, w.params.abi);
    harness::TranslatedRun tr =
        harness::runTranslated(w.image, w.params.abi, opts);
    const harness::Outcome &got = tr.outcome;

    ASSERT_FALSE(got.internal_error) << got.internal_reason;
    EXPECT_EQ(ref.exited, got.exited) << w.name;
    EXPECT_EQ(ref.faulted, got.faulted) << w.name;
    if (ref.exited)
        EXPECT_EQ(ref.exit_code, got.exit_code) << w.name;
    EXPECT_EQ(ref.console, got.console) << w.name;
    std::string why;
    EXPECT_TRUE(ref.final_state.equalsArch(got.final_state, &why))
        << w.name << " state mismatch: " << why;
    EXPECT_EQ(ref.final_state.eip, got.final_state.eip) << w.name;
}

const Workload &
byName(const std::vector<Workload> &suite, const std::string &name)
{
    for (const Workload &w : suite)
        if (w.name == name)
            return w;
    ADD_FAILURE() << "no workload " << name;
    return suite.front();
}

class AdversarialDiff : public ::testing::TestWithParam<const char *>
{
};

TEST_P(AdversarialDiff, MatchesInterpreterSync)
{
    std::vector<Workload> suite = guest::adversarialSuite();
    diffWorkload(byName(suite, GetParam()));
}

TEST_P(AdversarialDiff, MatchesInterpreterPipelined)
{
    std::vector<Workload> suite = guest::adversarialSuite();
    core::Options opts;
    opts.translation_threads = 4;
    diffWorkload(byName(suite, GetParam()), opts);
}

INSTANTIATE_TEST_SUITE_P(Personalities, AdversarialDiff,
                         ::testing::Values("sigstorm", "sigstorm_win",
                                           "jit_rewriter",
                                           "threaded_smc"));

TEST(AdversarialWorkloads, SignalStormActuallyStorms)
{
    std::vector<Workload> suite = guest::adversarialSuite();
    const Workload &w = byName(suite, "sigstorm");
    harness::TranslatedRun tr =
        harness::runTranslated(w.image, w.params.abi);
    ASSERT_TRUE(tr.outcome.exited);
    // The storm delivered a dense stream of guest faults.
    EXPECT_GE(tr.runtime->stats().get("faults.memory"), 100u);
}

TEST(AdversarialWorkloads, RewritersActuallyTriggerSmc)
{
    std::vector<Workload> suite = guest::adversarialSuite();
    for (const char *name : {"jit_rewriter", "threaded_smc"}) {
        const Workload &w = byName(suite, name);
        harness::TranslatedRun tr =
            harness::runTranslated(w.image, w.params.abi);
        ASSERT_TRUE(tr.outcome.exited) << name;
        EXPECT_GE(tr.runtime->translator().stats.get("smc.invalidations"),
                  1u)
            << name;
    }
}

} // namespace
} // namespace el
