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
 * Every abnormal exit must also leave its run report behind: the
 * second half of this file runs each exit class with --report-json and
 * asserts the report is schema-valid and names the exit class it was
 * written for, and that without --report-json an abnormal run (and
 * only an abnormal one) writes ./postmortem.json.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "guest/image.hh"
#include "ia32/fault.hh"
#include "support/faultinject.hh"
#include "support/json.hh"

namespace
{

namespace fs = std::filesystem;

/**
 * Run el_run with @p args, from @p cwd when it is not empty. With
 * @p out (which needs a @p cwd), its stdout is kept there in
 * stdout.txt and returned in *out.
 */
int
runCli(const std::string &args, const std::string &cwd = "",
       std::string *out = nullptr)
{
    const char *bin = std::getenv("EL_RUN_BIN");
    EXPECT_NE(bin, nullptr)
        << "EL_RUN_BIN must point at the el_run binary";
    if (!bin)
        return -1;
    std::string cmd = std::string(bin) + " " + args +
                      (out ? " > stdout.txt 2> /dev/null"
                           : " > /dev/null 2>&1");
    if (!cwd.empty())
        cmd = "cd '" + cwd + "' && " + cmd;
    int rc = std::system(cmd.c_str());
    if (out) {
        std::ifstream f(fs::path(cwd) / "stdout.txt");
        std::ostringstream ss;
        ss << f.rdbuf();
        *out = ss.str();
    }
    if (rc < 0 || !WIFEXITED(rc))
        return -1;
    return WEXITSTATUS(rc);
}

/** A fresh, empty working directory of its own for one test (ctest
 *  runs the tests in parallel, and el_run's default report path is
 *  relative to the working directory). */
std::string
freshDir(const std::string &tag)
{
    fs::path dir = fs::path(testing::TempDir()) / ("el_cli_" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** The names of the files in @p dir, sorted. */
std::vector<std::string>
filesIn(const std::string &dir)
{
    std::vector<std::string> names;
    for (const fs::directory_entry &e : fs::directory_iterator(dir))
        names.push_back(e.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
}

/** Parse the JSON document at @p path into @p root. */
bool
readReport(const std::string &path, el::json::Value *root)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "no run report at " << path;
    if (!in.good())
        return false;
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    bool ok = el::json::Parser::parse(text.str(), root, &error);
    EXPECT_TRUE(ok) << path << " is not valid JSON: " << error;
    return ok;
}

/** Run el_run with --report-json in a fresh directory; parse the
 *  report into @p root. */
int
runCliWithReport(const std::string &args, const std::string &tag,
                 el::json::Value *root)
{
    std::string dir = freshDir(tag);
    std::string path = dir + "/report.json";
    int code = runCli(args + " --report-json=" + path, dir);
    readReport(path, root);
    return code;
}

/** The invariants every report must satisfy, per DESIGN.md §12. */
void
expectReportSchema(const el::json::Value &root,
                   const std::string &exit_class, int exit_code)
{
    using el::json::Value;
    ASSERT_TRUE(root.isObject());
    EXPECT_EQ(root.strOr("kind", ""), "el-report");
    EXPECT_EQ(root.numberOr("version", 0), 2.0);
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
    // The worker count is capped (core::max_translation_threads).
    EXPECT_EQ(runCli("--workload=jit_rewriter --threads=65"), 1);
    EXPECT_EQ(runCli("--workload=jit_rewriter --threads=4294967295"), 1);
    EXPECT_EQ(runCli("--workload=jit_rewriter --heat-threshold=4x"), 1);
    // A fault probability is parts per 1024: more than 1024 is out of
    // range, not "always".
    EXPECT_EQ(runCli("--workload=jit_rewriter --fault=hot_xlate_abort:1025"),
              1);
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
    // cannot initialize. That is our failure, not the guest's. No
    // machine ran, so the summary names the init error instead of an
    // exit code and a cycle count.
    std::string out;
    EXPECT_EQ(runCli("--workload=jit_rewriter --fault=btos_alloc:1024",
                     freshDir("internal_init"), &out),
              20);
    EXPECT_EQ(out.find("cycles="), std::string::npos) << out;
    EXPECT_NE(out.find("init failed"), std::string::npos) << out;
    // Likewise with the artifact store and the sentinel attached: their
    // summary lines must not reach for a translator that never existed.
    std::string dir = freshDir("internal_attached");
    EXPECT_EQ(runCli("--workload=jit_rewriter --fault=btos_alloc:1024 "
                     "--selfcheck=4 --cache-dir=cache",
                     dir),
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

// ----- the run report on abnormal exit ---------------------------------

TEST(CliPostmortem, CleanRunWritesNoBundle)
{
    // Without --report-json a clean, uninjected run writes nothing.
    std::string dir = freshDir("clean");
    EXPECT_EQ(runCli("--workload=jit_rewriter", dir), 0);
    EXPECT_TRUE(filesIn(dir).empty())
        << "a clean, uninjected run must not write a postmortem";
}

TEST(CliPostmortem, AbnormalExitWritesTheReportToPostmortemJson)
{
    // Nobody asked for a report, but the guest faulted: the run
    // explains itself in ./postmortem.json.
    using el::json::Value;
    std::string dir = freshDir("default_path");
    EXPECT_EQ(runCli("--workload=faulter", dir), 10);
    EXPECT_EQ(filesIn(dir), std::vector<std::string>{"postmortem.json"});
    Value root;
    ASSERT_TRUE(readReport(dir + "/postmortem.json", &root));
    expectReportSchema(root, "guest_fault", 10);
}

TEST(CliPostmortem, RequestedReportIsTheOnlyFileOnAbnormalExit)
{
    // With --report-json the abnormal run writes that one file, not a
    // second document in the working directory.
    std::string dir = freshDir("requested");
    EXPECT_EQ(runCli("--workload=faulter --report-json=mine.json", dir),
              10);
    EXPECT_EQ(filesIn(dir), std::vector<std::string>{"mine.json"});
}

TEST(CliPostmortem, ReportJsonOnCleanRunCarriesTheFlight)
{
    using el::json::Value;
    Value root;
    int code = runCliWithReport("--workload=jit_rewriter", "forced", &root);
    EXPECT_EQ(code, 0);
    expectReportSchema(root, "ok", 0);
    // A healthy run still carries the full observability payload.
    const Value *fl = root.find("flight");
    ASSERT_NE(fl, nullptr);
    const Value *events = fl->find("events");
    ASSERT_NE(events, nullptr);
    EXPECT_TRUE(events->isArray());
    EXPECT_FALSE(events->arr.empty());
    EXPECT_NE(root.find("attribution"), nullptr);
    EXPECT_NE(root.find("guest"), nullptr);
}

TEST(CliPostmortem, GuestFaultBundleNamesTheFault)
{
    using el::json::Value;
    Value root;
    int code = runCliWithReport("--workload=faulter", "guest_fault", &root);
    EXPECT_EQ(code, 10);
    expectReportSchema(root, "guest_fault", 10);
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
    ASSERT_NE(fault_event, nullptr) << "no guest_fault flight event in report";
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
    int code = runCliWithReport(
        "--workload=jit_rewriter --fault=btos_alloc:1024", "internal",
        &root);
    EXPECT_EQ(code, 20);
    expectReportSchema(root, "internal", 20);
    // The runtime never initialized: the report must say why, and must
    // name the injected site that killed it.
    const Value *exit = root.find("exit");
    ASSERT_NE(exit, nullptr);
    EXPECT_NE(exit->strOr("init_error", "").find(
                  "runtime area allocation failed"),
              std::string::npos)
        << exit->strOr("init_error", "");
    // No machine ran, so there are no cycles to report.
    EXPECT_EQ(root.find("cycles"), nullptr);
    EXPECT_EQ(root.find("attribution"), nullptr);
    const Value *fi = root.find("fault_injection");
    ASSERT_NE(fi, nullptr);
    bool named = false;
    const Value *sites = fi->find("sites");
    ASSERT_NE(sites, nullptr);
    for (const Value &s : sites->arr)
        if (s.strOr("site", "") == "btos_alloc" &&
            s.numberOr("fires", 0) > 0)
            named = true;
    EXPECT_TRUE(named) << "report does not name the btos_alloc site";
    // The black box saw every failed allocation attempt.
    const Value *fl = root.find("flight");
    ASSERT_NE(fl, nullptr);
    const Value *events = fl->find("events");
    ASSERT_NE(events, nullptr);
    int fires = 0;
    for (const Value &e : events->arr)
        if (e.strOr("kind", "") == "fault_inject" &&
            e.numberOr("a", -1) ==
                static_cast<double>(el::FaultSite::BtosAlloc))
            ++fires;
    EXPECT_GT(fires, 0) << "no btos_alloc fault_inject event in flight";
}

TEST(CliPostmortem, AuditViolationBundleIsClassAudit)
{
    using el::json::Value;
    Value root;
    int code = runCliWithReport(
        "--workload=jit_rewriter --audit --fault=acct_skew:1024", "audit",
        &root);
    EXPECT_EQ(code, 40);
    expectReportSchema(root, "audit", 40);
    // Every report names its producer so readers (el_prof
    // --provenance, el_diff) can refuse mismatched inputs.
    const Value *producer = root.find("producer");
    ASSERT_NE(producer, nullptr);
    EXPECT_EQ(producer->strOr("tool", ""), "el_run");
    EXPECT_NE(producer->strOr("build", ""), "");
    EXPECT_NE(producer->strOr("fingerprint", ""), "");
}

TEST(CliPostmortem, DivergenceBundleCarriesTheSentinelLedger)
{
    using el::json::Value;
    Value root;
    int code = runCliWithReport(
        "--workload=jit_rewriter --fault=miscompile:128 "
        "--fault-seed=1 --selfcheck=1",
        "divergence", &root);
    EXPECT_EQ(code, 30);
    expectReportSchema(root, "divergence", 30);
    const Value *sent = root.find("sentinel");
    ASSERT_NE(sent, nullptr);
    EXPECT_GE(sent->numberOr("total_divergences", 0), 1.0);
    const Value *divs = sent->find("divergences");
    ASSERT_NE(divs, nullptr);
    EXPECT_FALSE(divs->arr.empty());
    // The convicted translation's provenance chain is in the report.
    const Value *prov = root.find("provenance");
    ASSERT_NE(prov, nullptr);
    EXPECT_FALSE(prov->arr.empty());
}

} // namespace
