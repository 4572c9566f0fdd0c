/**
 * @file
 * Exit-code hygiene for the el_run CLI: scripts and CI must be able to
 * tell *whose fault* a failed run was from the exit code alone —
 * 0 success, 1 usage, 10 the guest's own fault, 20 a translator
 * internal error, 30 a sentinel-detected divergence, 40 an accounting
 * audit violation on an otherwise-clean run. The binary under
 * test comes from the EL_RUN_BIN environment variable, which the CMake
 * test registration points at the just-built el_run.
 *
 * Every abnormal exit must also leave a postmortem bundle behind: the
 * second half of this file runs each failure class with an explicit
 * --postmortem-out and asserts the bundle is schema-valid and names
 * the exit class it was written for.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

#include "guest/image.hh"
#include "ia32/fault.hh"
#include "support/json.hh"

namespace
{

int
runCli(const std::string &args)
{
    const char *bin = std::getenv("EL_RUN_BIN");
    EXPECT_NE(bin, nullptr)
        << "EL_RUN_BIN must point at the el_run binary";
    if (!bin)
        return -1;
    std::string cmd =
        std::string(bin) + " " + args + " > /dev/null 2>&1";
    int rc = std::system(cmd.c_str());
    if (rc < 0 || !WIFEXITED(rc))
        return -1;
    return WEXITSTATUS(rc);
}

std::string
tmpBundlePath(const std::string &tag)
{
    return testing::TempDir() + "el_postmortem_" + tag + ".json";
}

/** Run el_run writing a postmortem to @p path; parse it into @p root. */
int
runCliWithBundle(const std::string &args, const std::string &path,
                 el::json::Value *root)
{
    std::remove(path.c_str());
    int code = runCli(args + " --postmortem-out=" + path);
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "no postmortem bundle at " << path;
    if (!in.good())
        return code;
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    EXPECT_TRUE(el::json::Parser::parse(text.str(), root, &error))
        << "postmortem is not valid JSON: " << error;
    return code;
}

/** The invariants every bundle must satisfy, per DESIGN.md §12. */
void
expectBundleSchema(const el::json::Value &root,
                   const std::string &exit_class, int exit_code)
{
    using el::json::Value;
    ASSERT_TRUE(root.isObject());
    EXPECT_EQ(root.strOr("kind", ""), "el-postmortem");
    EXPECT_EQ(root.numberOr("version", 0), 1.0);
    const Value *exit = root.find("exit");
    ASSERT_NE(exit, nullptr);
    EXPECT_EQ(exit->strOr("class", ""), exit_class);
    EXPECT_EQ(exit->numberOr("code", -1),
              static_cast<double>(exit_code));
}

TEST(CliExitCodes, CleanRunIsZero)
{
    EXPECT_EQ(runCli("--workload=jit_rewriter"), 0);
}

TEST(CliExitCodes, UsageErrorIsOne)
{
    EXPECT_EQ(runCli("--no-such-flag"), 1);
    EXPECT_EQ(runCli("--workload="), 1);
    EXPECT_EQ(runCli("--workload=no_such_personality"), 1);
    EXPECT_EQ(runCli("--workload=jit_rewriter --log-level=verbose"), 1);
    // Numeric flags parse strictly: no sign, no trailing junk.
    EXPECT_EQ(runCli("--workload=jit_rewriter --threads=-1"), 1);
    EXPECT_EQ(runCli("--workload=jit_rewriter --threads=abc"), 1);
    EXPECT_EQ(runCli("--workload=jit_rewriter --heat-threshold=4x"), 1);
}

TEST(CliExitCodes, IoErrorIsTwo)
{
    EXPECT_EQ(runCli("--workload=jit_rewriter "
                     "--report-json=/no/such/dir/report.json"),
              2);
    EXPECT_EQ(runCli("--workload=jit_rewriter "
                     "--metrics-out=/no/such/dir/metrics.ndjson"),
              2);
}

TEST(CliExitCodes, UnhandledGuestFaultIsTen)
{
    // The faulter diagnostic dereferences an unmapped page with no
    // handler registered: the guest's own fault, not the translator's.
    EXPECT_EQ(runCli("--workload=faulter"), 10);
}

TEST(CliExitCodes, TranslatorInternalErrorIsTwenty)
{
    // Injected BTOS allocation failure on every attempt: the runtime
    // cannot initialize. That is our failure, not the guest's.
    EXPECT_EQ(runCli("--workload=jit_rewriter --fault=btos_alloc:1024"),
              20);
}

TEST(CliExitCodes, SentinelDivergenceIsThirty)
{
    // Seeded miscompile + full shadow-checking: the sentinel detects
    // the corrupted translation and el_run reports the divergence class
    // even though the run completes with the correct answer.
    EXPECT_EQ(runCli("--workload=jit_rewriter --fault=miscompile:128 "
                     "--fault-seed=1 --selfcheck=1"),
              30);
}

TEST(CliExitCodes, AuditViolationIsForty)
{
    // The acct_skew site corrupts only the books — it adds phantom
    // Overhead cycles and a phantom cold-translation count without
    // touching guest execution — so the run itself succeeds and the
    // only witness is the auditor's closure check.
    EXPECT_EQ(runCli("--workload=jit_rewriter --audit "
                     "--fault=acct_skew:1024"),
              40);
    // Same corruption without --audit: nobody is checking the books,
    // the run exits clean. This is exactly why CI turns the audit on.
    EXPECT_EQ(runCli("--workload=jit_rewriter --no-audit "
                     "--fault=acct_skew:1024"),
              0);
}

TEST(CliExitCodes, AuditPassesCleanRuns)
{
    EXPECT_EQ(runCli("--workload=jit_rewriter --audit"), 0);
    EXPECT_EQ(runCli("--workload=jit_rewriter --audit --threads=2"), 0);
}

// ----- postmortem bundles on abnormal exit ------------------------------

TEST(CliPostmortem, CleanRunWritesNoBundle)
{
    std::string path = tmpBundlePath("clean");
    std::remove(path.c_str());
    EXPECT_EQ(runCli("--workload=jit_rewriter --postmortem-out=" + path),
              0);
    std::ifstream in(path);
    EXPECT_FALSE(in.good())
        << "a clean, uninjected run must not write a postmortem";
}

TEST(CliPostmortem, DumpOnExitForcesABundle)
{
    using el::json::Value;
    Value root;
    std::string path = tmpBundlePath("forced");
    int code = runCliWithBundle(
        "--workload=jit_rewriter --dump-on-exit", path, &root);
    EXPECT_EQ(code, 0);
    expectBundleSchema(root, "ok", 0);
    // A healthy run still carries the full observability payload.
    const Value *fl = root.find("flight");
    ASSERT_NE(fl, nullptr);
    const Value *events = fl->find("events");
    ASSERT_NE(events, nullptr);
    EXPECT_TRUE(events->isArray());
    EXPECT_FALSE(events->arr.empty());
}

TEST(CliPostmortem, GuestFaultBundleNamesTheFault)
{
    using el::json::Value;
    Value root;
    std::string path = tmpBundlePath("guest_fault");
    int code =
        runCliWithBundle("--workload=faulter", path, &root);
    EXPECT_EQ(code, 10);
    expectBundleSchema(root, "guest_fault", 10);
    // The flight tail must contain the delivered fault event, and the
    // ledger must have a provenance chain for the code that ran.
    const Value *events = root.find("flight")
                              ? root.find("flight")->find("events")
                              : nullptr;
    ASSERT_NE(events, nullptr);
    const Value *fault_event = nullptr;
    for (const Value &e : events->arr)
        if (e.strOr("kind", "") == "guest_fault")
            fault_event = &e;
    ASSERT_NE(fault_event, nullptr) << "no guest_fault flight event in bundle";
    // Like every kind, a = the eip: the faulter's load, after one
    // 5-byte mov. b = the fault kind.
    EXPECT_EQ(fault_event->numberOr("a", 0),
              static_cast<double>(el::guest::Layout::code_base + 5));
    EXPECT_EQ(fault_event->numberOr("b", 0),
              static_cast<double>(el::ia32::FaultKind::PageFault));
    const Value *prov = root.find("provenance");
    ASSERT_NE(prov, nullptr);
    EXPECT_TRUE(prov->isArray());
    EXPECT_FALSE(prov->arr.empty())
        << "faulting run must carry provenance for its blocks";
}

TEST(CliPostmortem, InternalErrorBundleRecordsInitFailure)
{
    using el::json::Value;
    Value root;
    std::string path = tmpBundlePath("internal");
    int code = runCliWithBundle(
        "--workload=jit_rewriter --fault=btos_alloc:1024", path, &root);
    EXPECT_EQ(code, 20);
    expectBundleSchema(root, "internal", 20);
    // The runtime never initialized: the bundle must say why, and must
    // name the injected site that killed it.
    const Value *exit = root.find("exit");
    ASSERT_NE(exit, nullptr);
    EXPECT_NE(exit->strOr("init_error", ""), "");
    const Value *fi = root.find("fault_injection");
    ASSERT_NE(fi, nullptr);
    bool named = false;
    const Value *sites = fi->find("sites");
    ASSERT_NE(sites, nullptr);
    for (const Value &s : sites->arr)
        if (s.strOr("site", "") == "btos_alloc" &&
            s.numberOr("fires", 0) > 0)
            named = true;
    EXPECT_TRUE(named) << "bundle does not name the btos_alloc site";
}

TEST(CliPostmortem, AuditViolationBundleIsClassAudit)
{
    using el::json::Value;
    Value root;
    std::string path = tmpBundlePath("audit");
    int code = runCliWithBundle(
        "--workload=jit_rewriter --audit --fault=acct_skew:1024", path,
        &root);
    EXPECT_EQ(code, 40);
    expectBundleSchema(root, "audit", 40);
    // The stamp satellite: every bundle names its producer so readers
    // (el_prof --provenance, el_diff) can refuse mismatched inputs.
    const Value *producer = root.find("producer");
    ASSERT_NE(producer, nullptr);
    EXPECT_EQ(producer->strOr("tool", ""), "el_run");
    EXPECT_NE(producer->strOr("build", ""), "");
    EXPECT_EQ(producer->numberOr("schema", 0), 1.0);
}

TEST(CliPostmortem, DivergenceBundleCarriesTheSentinelLedger)
{
    using el::json::Value;
    Value root;
    std::string path = tmpBundlePath("divergence");
    int code = runCliWithBundle(
        "--workload=jit_rewriter --fault=miscompile:128 "
        "--fault-seed=1 --selfcheck=1",
        path, &root);
    EXPECT_EQ(code, 30);
    expectBundleSchema(root, "divergence", 30);
    const Value *sent = root.find("sentinel");
    ASSERT_NE(sent, nullptr);
    EXPECT_GE(sent->numberOr("total_divergences", 0), 1.0);
    const Value *divs = sent->find("divergences");
    ASSERT_NE(divs, nullptr);
    EXPECT_FALSE(divs->arr.empty());
    // The convicted translation's provenance chain is in the bundle.
    const Value *prov = root.find("provenance");
    ASSERT_NE(prov, nullptr);
    EXPECT_FALSE(prov->arr.empty());
}

} // namespace
