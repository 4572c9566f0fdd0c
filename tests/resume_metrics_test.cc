/**
 * @file
 * Telemetry continuity across an interrupted run: a kill mid-run plus
 * a `--resume` relaunch produces a *merged* metrics stream (the
 * interrupted run's NDJSON followed by the resumed run's) in which
 * every snapshot is schema-valid, every snapshot names the same
 * producer fingerprint (one guest, one options profile — that is what
 * makes concatenating the two files legitimate), cycles are strictly
 * increasing within each segment, and the resumed run's final
 * counters equal its own run report's stats, key for key. Raw counter
 * equality with an uninterrupted run is deliberately NOT asserted:
 * a resumed runtime starts a fresh simulated clock and retranslates
 * nothing it can adopt, so its totals legitimately differ — the
 * architectural outcome is what must be bit-exact.
 *
 * Shells out to el_run via EL_RUN_BIN like the other CLI suites.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "support/json.hh"

namespace
{

namespace fs = std::filesystem;
using el::json::Parser;
using el::json::Value;

constexpr int exit_ok = 0;
constexpr int exit_crash = 43;

const char *const kRunFlags =
    "--workload=gzip --heat-threshold=16 --hot-batch=1 "
    "--checkpoint-period=200000 --metrics-period=100000";

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

bool
readJson(const std::string &path, Value *root)
{
    std::ifstream in(path);
    if (!in.good())
        return false;
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    return Parser::parse(text.str(), root, &error);
}

/** Parse an NDJSON metrics file into snapshot documents. */
std::vector<Value>
readMetrics(const std::string &path)
{
    std::vector<Value> out;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "no metrics stream at " << path;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        Value v;
        std::string error;
        EXPECT_TRUE(Parser::parse(line, &v, &error))
            << path << ": unparseable snapshot line: " << error;
        out.push_back(std::move(v));
    }
    return out;
}

/** Schema + producer invariants for one snapshot; returns its
 *  fingerprint so the caller can assert stream-wide agreement. */
std::string
expectSnapshotSchema(const Value &s)
{
    EXPECT_EQ(s.strOr("kind", ""), "el-metrics");
    EXPECT_EQ(s.numberOr("version", 0), 3.0);
    const Value *producer = s.find("producer");
    EXPECT_NE(producer, nullptr) << "snapshot has no producer stamp";
    if (!producer)
        return "";
    EXPECT_EQ(producer->strOr("tool", ""), "el_run");
    EXPECT_NE(producer->strOr("build", ""), "");
    for (const char *obj : {"gauges", "counters"}) {
        const Value *v = s.find(obj);
        EXPECT_NE(v, nullptr) << "snapshot missing " << obj;
        if (v)
            EXPECT_TRUE(v->isObject());
    }
    return producer->strOr("fingerprint", "");
}

} // namespace

TEST(ResumeMetrics, MergedStreamIsSchemaValidAndCrossConsistent)
{
    fs::path root =
        fs::path(::testing::TempDir()) / "el_resume_metrics";
    fs::remove_all(root);
    fs::create_directories(root);
    std::string cache = (root / "cache").string();
    std::string ck = (root / "ck").string();
    std::string shared = std::string(kRunFlags) +
                         " --cache-dir=" + cache +
                         " --checkpoint-dir=" + ck;

    // ----- uninterrupted reference ----------------------------------
    std::string ref_report = (root / "ref_report.json").string();
    ASSERT_EQ(runCli(std::string(kRunFlags) +
                     " --report-json=" + ref_report),
              exit_ok);
    Value ref;
    ASSERT_TRUE(readJson(ref_report, &ref));

    // ----- interrupted run (seeded kill mid-checkpoint) -------------
    std::string part1 = (root / "part1.ndjson").string();
    ASSERT_EQ(runCli(shared + " --fault=crash_checkpoint:512 "
                              "--fault-seed=3 --metrics-out=" + part1),
              exit_crash)
        << "the seeded kill must land for this test to mean anything";

    // ----- resumed run ----------------------------------------------
    std::string part2 = (root / "part2.ndjson").string();
    std::string res_report = (root / "resume_report.json").string();
    ASSERT_EQ(runCli(shared + " --resume --metrics-out=" + part2 +
                     " --report-json=" + res_report),
              exit_ok);
    Value resumed;
    ASSERT_TRUE(readJson(res_report, &resumed));

    // ----- the merged stream ----------------------------------------
    std::vector<Value> merged = readMetrics(part1);
    size_t part1_lines = merged.size();
    ASSERT_GT(part1_lines, 0u)
        << "interrupted run left no snapshots (per-line flush broken?)";
    for (const Value &s : readMetrics(part2))
        merged.push_back(s);
    ASSERT_GT(merged.size(), part1_lines)
        << "resumed run emitted no snapshots";

    std::string fingerprint;
    double prev_cycle = -1;
    for (size_t i = 0; i < merged.size(); ++i) {
        SCOPED_TRACE("snapshot " + std::to_string(i));
        std::string fp = expectSnapshotSchema(merged[i]);
        EXPECT_FALSE(fp.empty());
        if (fingerprint.empty())
            fingerprint = fp;
        // One fingerprint across the whole merged stream: the resumed
        // process ran the same guest under the same options profile,
        // which is the precondition for reading the concatenation as
        // one logical run.
        EXPECT_EQ(fp, fingerprint);
        // Cycles restart at the segment boundary (fresh runtime, by
        // design) but must be strictly increasing within a segment.
        double cycle = merged[i].numberOr("cycle", -1);
        if (i != 0 && i != part1_lines)
            EXPECT_GT(cycle, prev_cycle);
        prev_cycle = cycle;
    }

    // The report carries the same stamp the stream does.
    const Value *rp = resumed.find("producer");
    ASSERT_NE(rp, nullptr);
    EXPECT_EQ(rp->strOr("fingerprint", ""), fingerprint);

    // ----- final-snapshot ↔ report cross-consistency ----------------
    // el_run emits one last snapshot at the terminal cycle, after the
    // run quiesced; the stream and the report read the one counter
    // namespace, so its counters equal the report's stats key for key.
    const Value &last = merged.back();
    const Value *counters = last.find("counters");
    const Value *stats = resumed.find("stats");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(stats, nullptr);
    EXPECT_GT(counters->obj.size(), 5u);
    EXPECT_EQ(counters->obj.size(), stats->obj.size());
    for (const auto &[name, v] : counters->obj) {
        const Value *rv = stats->find(name);
        EXPECT_NE(rv, nullptr) << name << " is missing from the report";
        if (rv)
            EXPECT_EQ(v.num, rv->num)
                << "final snapshot disagrees with the report on " << name;
    }
    for (const auto &[name, v] : stats->obj)
        EXPECT_NE(counters->find(name), nullptr)
            << name << " is missing from the final snapshot";

    // The resumed run's cycles gauge at the last snapshot equals the
    // report's cycle total (the final emit happens at outcome.cycles).
    const Value *gauges = last.find("gauges");
    ASSERT_NE(gauges, nullptr);
    EXPECT_EQ(gauges->numberOr("cycles", -1),
              resumed.numberOr("cycles", -2));

    // ----- architectural outcome is bit-exact vs uninterrupted ------
    const Value *rg = ref.find("guest");
    const Value *gg = resumed.find("guest");
    ASSERT_NE(rg, nullptr);
    ASSERT_NE(gg, nullptr);
    EXPECT_EQ(gg->strOr("state_hash", "x"), rg->strOr("state_hash", "y"));
    EXPECT_EQ(gg->strOr("console_hash", "x"),
              rg->strOr("console_hash", "y"));
    EXPECT_EQ(gg->numberOr("exit_code", -1),
              rg->numberOr("exit_code", -2));
}

TEST(ResumeMetrics, AuditStaysGreenAcrossResume)
{
    // The closure books of a resumed runtime start fresh; the auditor
    // must not confuse "resumed" with "corrupted".
    fs::path root =
        fs::path(::testing::TempDir()) / "el_resume_audit";
    fs::remove_all(root);
    fs::create_directories(root);
    std::string shared = std::string(kRunFlags) +
                         " --cache-dir=" + (root / "cache").string() +
                         " --checkpoint-dir=" + (root / "ck").string();
    ASSERT_EQ(runCli(shared + " --audit --fault=crash_checkpoint:512 "
                              "--fault-seed=3"),
              exit_crash);
    EXPECT_EQ(runCli(shared + " --audit --resume"), exit_ok);
}
