/**
 * @file
 * Process-kill chaos matrix for crash consistency: fork `el_run`
 * children with seeded `crash_*` fault sites that `_exit(43)` in the
 * middle of every durability window — mid-append to the store file,
 * mid-rename, mid-checkpoint, and between in-memory adoption and the
 * append's flush — then relaunch each killed run with `--resume
 * --cache-dir` and assert the recovered run is bit-exact against an
 * uninterrupted baseline (state hash, console hash, exit code), that
 * recovery adopts zero torn records (a torn final frame is discarded,
 * never replayed), and that in aggregate the relaunches reuse at least
 * half of the hot artifacts that the interrupted runs appended (the
 * store file's journal).
 *
 * The binary under test comes from the EL_RUN_BIN environment variable,
 * which the CMake test registration points at the just-built el_run.
 * Everything is seeded: the same matrix kills at the same points on
 * every run of this test.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <cstring>
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
constexpr int exit_crash = 43; // support/faultinject.hh crash_exit_code

// The shared workload flags: small heat threshold so several traces go
// hot (and get appended to the store) early, and a checkpoint period
// short enough that captures land inside the adoption-active phase of
// the run.
const char *const kRunFlags =
    "--workload=gzip --heat-threshold=16 --hot-batch=1 "
    "--checkpoint-period=200000";

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

double
statOr(const Value &report, const std::string &name, double fallback)
{
    const Value *stats = report.find("stats");
    return stats ? stats->numberOr(name, fallback) : fallback;
}

/** The report's guest object: the architectural outcome a recovered
 *  run must reproduce exactly (null when the report has none). */
Value
guestOf(const Value &report)
{
    const Value *guest = report.find("guest");
    return guest ? *guest : Value{};
}

/**
 * True when the store file at @p path is a compaction with nothing
 * appended: its frames (u32 magic | u8 kind | u32 len | u32 crc |
 * payload) end exactly at the end of the file, and there are exactly
 * as many as the header's compacted count (its last u32, at byte 32).
 */
bool
holdsNoTail(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::string b{std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>()};
    constexpr size_t header = 36, frame_header = 13;
    if (b.size() < header)
        return false;
    uint32_t compacted = 0;
    std::memcpy(&compacted, b.data() + header - 4, 4);
    size_t off = header, frames = 0;
    while (off < b.size()) {
        uint32_t len = 0;
        if (b.size() - off < frame_header)
            return false;
        std::memcpy(&len, b.data() + off + 5, 4);
        if (b.size() - off - frame_header < len)
            return false;
        off += frame_header + len;
        ++frames;
    }
    return frames == compacted;
}

struct MatrixRow
{
    const char *site;   // crash_* fault site name
    int prob;           // per-consult probability out of 1024
    int seed_lo, seed_hi;
};

} // namespace

TEST(CrashMatrix, KillResumeIsBitExactWithArtifactReuse)
{
    fs::path root =
        fs::path(::testing::TempDir()) / "el_crash_matrix";
    fs::remove_all(root);
    fs::create_directories(root);

    // ----- uninterrupted baseline -----------------------------------
    fs::path base_dir = root / "baseline";
    std::string base_report = (base_dir / "report.json").string();
    ASSERT_EQ(runCli(std::string(kRunFlags) +
                     " --cache-dir=" + (base_dir / "cache").string() +
                     " --checkpoint-dir=" + (base_dir / "ck").string() +
                     " --report-json=" + base_report),
              exit_ok);
    Value base;
    ASSERT_TRUE(readJson(base_report, &base));
    Value want = guestOf(base);
    ASSERT_TRUE(want.isObject());
    ASSERT_FALSE(want.strOr("state_hash", "").empty());

    // ----- the kill matrix ------------------------------------------
    // prob=1024 fires at a window's first consult (the earliest, most
    // hostile kill); lower probabilities walk the kill point deeper
    // into the run, seed by seed. Expected crash count is deterministic
    // for a given el_run build; the floor below (20) is the contract.
    const MatrixRow rows[] = {
        {"crash_journal_append", 1024, 1, 1},
        {"crash_journal_append", 512, 2, 7},
        {"crash_adopt", 1024, 1, 1},
        {"crash_adopt", 512, 2, 7},
        {"crash_checkpoint", 1024, 1, 2},
        {"crash_checkpoint", 512, 3, 5},
        {"crash_store_rename", 1024, 1, 4},
    };

    int crashes = 0, clean = 0;
    std::vector<std::string> crashed_sites;
    double hits = 0, misses = 0, replayed = 0;

    for (const MatrixRow &row : rows) {
        for (int seed = row.seed_lo; seed <= row.seed_hi; ++seed) {
            std::string tag = std::string(row.site) + "_p" +
                              std::to_string(row.prob) + "_s" +
                              std::to_string(seed);
            SCOPED_TRACE(tag);
            fs::path dir = root / tag;
            std::string cache = (dir / "cache").string();
            std::string ck = (dir / "ck").string();
            std::string shared = std::string(kRunFlags) +
                                 " --cache-dir=" + cache +
                                 " --checkpoint-dir=" + ck;

            int rc = runCli(shared + " --fault=" + row.site + ":" +
                            std::to_string(row.prob) +
                            " --fault-seed=" + std::to_string(seed));
            if (rc == exit_ok) {
                ++clean; // seeded dice never fired: not a kill point
                continue;
            }
            ASSERT_EQ(rc, exit_crash)
                << "crash run died some way other than the injected "
                   "kill";
            ++crashes;
            crashed_sites.push_back(row.site);

            // ----- relaunch over the wreckage -----------------------
            std::string report = (dir / "resume.json").string();
            ASSERT_EQ(runCli(shared + " --resume --report-json=" +
                             report),
                      exit_ok)
                << "recovery run failed";
            Value resumed;
            ASSERT_TRUE(readJson(report, &resumed));
            EXPECT_TRUE(guestOf(resumed) == want)
                << "recovered run diverges from the uninterrupted "
                   "baseline";

            // Zero torn records adopted: a cut final frame may cost
            // exactly one rejected_truncated, but nothing that fails
            // its CRC or decode may reach the replay path's insert.
            EXPECT_EQ(statOr(resumed, "persist.rejected_crc", 0), 0);
            EXPECT_EQ(statOr(resumed, "persist.rejected_invalid", 0),
                      0);
            EXPECT_LE(statOr(resumed, "persist.rejected_truncated", 0),
                      1);

            hits += statOr(resumed, "persist.hits", 0);
            misses += statOr(resumed, "persist.misses", 0);
            replayed += statOr(resumed, "persist.journal_replayed", 0);

            // Recovery leaves no wreckage of its own: the cache
            // directory holds exactly one store file, which the exit
            // compaction rewrote without an appended tail, and the
            // rename protocol leaves no temp file behind.
            std::vector<std::string> files;
            for (const fs::directory_entry &de :
                 fs::directory_iterator(cache))
                files.push_back(de.path().filename().string());
            ASSERT_EQ(files.size(), 1u)
                << "cache holds more than the store after a clean "
                   "recovery exit";
            EXPECT_EQ(fs::path(files[0]).extension(), ".elstore");
            EXPECT_TRUE(holdsNoTail((fs::path(cache) / files[0]).string()))
                << "appended tail survived a clean recovery exit";
        }
    }

    // ----- matrix-wide contracts ------------------------------------
    EXPECT_GE(crashes, 20)
        << "matrix too small: " << crashes << " kills landed, "
        << clean << " runs completed before their dice fired";
    for (const char *site :
         {"crash_journal_append", "crash_adopt", "crash_checkpoint",
          "crash_store_rename"}) {
        int n = 0;
        for (const std::string &s : crashed_sites)
            if (s == site)
                ++n;
        EXPECT_GE(n, 1) << "no kill landed in window " << site;
    }
    // Aggregate hot-artifact reuse across all recoveries: at least
    // half of the adoption lookups the relaunches made were served by
    // artifacts the killed runs appended.
    ASSERT_GT(hits + misses, 0);
    EXPECT_GE(hits / (hits + misses), 0.5)
        << "recovered runs reused " << hits << "/" << (hits + misses)
        << " artifacts";
    EXPECT_GT(replayed, 0)
        << "no appended frame was ever replayed: the matrix is not "
           "exercising recovery";
}

TEST(CrashMatrix, ResumeAfterCleanExitStartsWarm)
{
    // Not a crash: a checkpoint directory surviving a *clean* exit is
    // also a valid resume source, and the relaunch must still match.
    fs::path root =
        fs::path(::testing::TempDir()) / "el_crash_matrix_clean";
    fs::remove_all(root);
    fs::create_directories(root);
    std::string shared =
        std::string(kRunFlags) +
        " --cache-dir=" + (root / "cache").string() +
        " --checkpoint-dir=" + (root / "ck").string();

    std::string first_report = (root / "first.json").string();
    ASSERT_EQ(runCli(shared + " --report-json=" + first_report),
              exit_ok);
    Value first;
    ASSERT_TRUE(readJson(first_report, &first));

    std::string again_report = (root / "again.json").string();
    ASSERT_EQ(runCli(shared + " --resume --report-json=" +
                     again_report),
              exit_ok);
    Value again;
    ASSERT_TRUE(readJson(again_report, &again));
    EXPECT_TRUE(guestOf(again) == guestOf(first));
    // The first run's compacted store serves the rerun warm.
    EXPECT_GT(statOr(again, "persist.hits", 0), 0);
}
