/**
 * @file
 * The checkpoint loader against damaged files. A kill cannot damage a
 * published checkpoint (captures are renamed into place whole), but
 * bit rot, a cut copy or a file from another build can: every such
 * case must make Checkpointer::load refuse with its own message, and
 * `el_run --resume` over it must warn, start cold and still match the
 * uninterrupted run. The in-process cases sweep a real `.elckpt` the
 * way PersistCorruption sweeps a store file; the CLI case shells out
 * to el_run via EL_RUN_BIN like the other CLI suites.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include <sys/wait.h>

#include "core/checkpoint.hh"
#include "guest/workloads.hh"
#include "harness/exec.hh"
#include "persist/store.hh"
#include "support/json.hh"

namespace el
{
namespace
{

namespace fs = std::filesystem;

std::string
readBytes(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(f),
            std::istreambuf_iterator<char>()};
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** A scratch directory private to the running test, wiped on exit. */
fs::path
testDir()
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    fs::path dir = fs::path(::testing::TempDir()) /
                   (std::string("el_ckpt_") + info->name());
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** The messages Checkpointer::load refuses a present file with. */
const std::set<std::string> kRefusals = {
    "bad checkpoint header",       "checkpoint fingerprint mismatch",
    "truncated checkpoint",        "corrupt checkpoint frame",
    "checkpoint CRC mismatch",     "not a checkpoint file",
    "corrupt checkpoint state",    "corrupt checkpoint page table",
    "corrupt checkpoint page",     "truncated checkpoint page data",
    "trailing garbage in checkpoint",
};

class PersistCheckpoint : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        guest::WorkloadParams p;
        p.outer_iters = 6;
        p.size = 150;
        guest::Workload w = guest::buildMatrix("ckpt_victim", p);
        dir_ = testDir();
        core::Options o;
        fp_ = persist::fingerprintOf(w.image, o);
        core::CheckpointConfig cfg;
        cfg.dir = dir_.string();
        cfg.period_cycles = 100000;
        cfg.fp = fp_;
        core::Checkpointer ck(cfg);
        o.checkpointer = &ck;
        harness::TranslatedRun run =
            harness::runTranslated(w.image, w.params.abi, o);
        ASSERT_TRUE(run.outcome.exited);
        ASSERT_GE(ck.captures(), 1u);
        path_ = ck.path();
        bytes_ = readBytes(path_);
        ASSERT_GT(bytes_.size(), persist::header_bytes);
        std::string err;
        ASSERT_TRUE(loads(&err)) << err;
    }

    void TearDown() override { fs::remove_all(dir_); }

    bool
    loads(std::string *err)
    {
        core::CheckpointImage img;
        return core::Checkpointer::load(dir_.string(), fp_, &img, err);
    }

    /** Load @p bytes as the checkpoint; it must be refused. Returns
     *  the refusal message. */
    std::string
    refusalOf(const std::string &bytes)
    {
        writeBytes(path_, bytes);
        std::string err;
        EXPECT_FALSE(loads(&err));
        EXPECT_TRUE(kRefusals.count(err)) << "message: " << err;
        return err;
    }

    fs::path dir_;
    persist::Fingerprint fp_;
    std::string path_;
    std::string bytes_;
};

TEST_F(PersistCheckpoint, CutAtEveryFrameBoundary)
{
    // The file is a header and one frame: boundaries at 0, the end of
    // the header and the end of the frame. Every cut short of the end
    // is refused — inside the header as a bad header, after it as a
    // truncation — and the uncut file loads.
    const size_t header = persist::header_bytes;
    for (size_t boundary : {size_t(0), header, bytes_.size()}) {
        for (int delta : {-1, 0, 1}) {
            if ((boundary == 0 && delta < 0) ||
                boundary + delta > bytes_.size())
                continue;
            size_t cut = boundary + static_cast<size_t>(delta);
            SCOPED_TRACE("cut=" + std::to_string(cut));
            if (cut == bytes_.size()) {
                writeBytes(path_, bytes_);
                std::string err;
                EXPECT_TRUE(loads(&err)) << err;
                continue;
            }
            EXPECT_EQ(refusalOf(bytes_.substr(0, cut)),
                      cut < header ? "bad checkpoint header"
                                   : "truncated checkpoint");
        }
    }
}

TEST_F(PersistCheckpoint, ByteFlipSweep)
{
    // Deterministic sweep over positions: every flipped byte is
    // refused. The header fields are not CRC-covered but fully
    // validated; everything after the frame header fails its CRC.
    const size_t header = persist::header_bytes;
    const size_t frame_header = 13;
    for (size_t pos = 0; pos < bytes_.size();
         pos += 1 + bytes_.size() / 97) {
        SCOPED_TRACE("pos=" + std::to_string(pos));
        std::string mutated = bytes_;
        mutated[pos] ^= 0x5a;
        std::string err = refusalOf(mutated);
        if (pos < 12) { // Magic, version, flags.
            EXPECT_EQ(err, "bad checkpoint header");
        } else if (pos < header - 4) {
            EXPECT_EQ(err, "checkpoint fingerprint mismatch");
        } else if (pos >= header + frame_header) {
            EXPECT_EQ(err, "checkpoint CRC mismatch");
        }
    }
}

TEST_F(PersistCheckpoint, BadMagicVersionAndFingerprint)
{
    std::string mutated = bytes_;
    mutated[0] = 'X';
    EXPECT_EQ(refusalOf(mutated), "bad checkpoint header");

    mutated = bytes_;
    mutated[4] = char(0x7f); // Version, little-endian low byte.
    EXPECT_EQ(refusalOf(mutated), "bad checkpoint header");

    // Another build's checkpoint under this fingerprint's name: the
    // header's own fingerprint is what refuses it.
    persist::Fingerprint other = fp_;
    other.opts_hash ^= 1;
    writeBytes(path_, bytes_);
    fs::rename(path_, dir_ / (other.hex() + ".elckpt"));
    core::CheckpointImage img;
    std::string err;
    EXPECT_FALSE(core::Checkpointer::load(dir_.string(), other, &img, &err));
    EXPECT_EQ(err, "checkpoint fingerprint mismatch");
    EXPECT_FALSE(loads(&err));
    EXPECT_EQ(err, "no checkpoint file");
}

// ----- el_run --resume over a damaged checkpoint -------------------------

constexpr int exit_ok = 0;

// The shortest suite personality (about 1.2 M simulated cycles, so
// several captures at this period): every case here runs it cold.
const char *const kRunFlags =
    "--workload=sigstorm --checkpoint-period=100000";

/** Run el_run with @p args, stderr to @p err_path; the exit code. */
int
runCli(const std::string &args, const std::string &err_path)
{
    const char *bin = std::getenv("EL_RUN_BIN");
    EXPECT_NE(bin, nullptr)
        << "EL_RUN_BIN must point at the el_run binary";
    if (!bin)
        return -1;
    std::string cmd = std::string(bin) + " " + args + " > /dev/null 2> " +
                      err_path;
    int rc = std::system(cmd.c_str());
    if (rc < 0 || !WIFEXITED(rc))
        return -1;
    return WEXITSTATUS(rc);
}

/** The report's guest object (null when the report has none). */
json::Value
guestOf(const std::string &report_path)
{
    json::Value root;
    std::string error;
    EXPECT_TRUE(json::Parser::parse(readBytes(report_path), &root, &error))
        << report_path << ": " << error;
    const json::Value *g = root.find("guest");
    return g ? *g : json::Value{};
}

TEST(PersistCheckpointCli, DamagedCheckpointResumesCold)
{
    fs::path root = testDir();
    std::string err = (root / "stderr.txt").string();

    // An uninterrupted run: the reference answer, and a real
    // checkpoint (a clean exit's last capture is a valid resume
    // source).
    fs::path ck = root / "ck";
    std::string base = (root / "base.json").string();
    ASSERT_EQ(runCli(std::string(kRunFlags) + " --checkpoint-dir=" +
                         ck.string() + " --report-json=" + base,
                     err),
              exit_ok);
    json::Value want = guestOf(base);
    ASSERT_TRUE(want.isObject());
    std::string file;
    for (const fs::directory_entry &de : fs::directory_iterator(ck))
        if (de.path().extension() == ".elckpt")
            file = de.path().filename().string();
    ASSERT_FALSE(file.empty()) << "the run left no checkpoint";
    std::string bytes = readBytes((ck / file).string());

    struct Damage
    {
        const char *what;
        std::string bytes;
        const char *message;
    };
    std::string flipped = bytes;
    flipped[bytes.size() / 2] ^= 0x5a;
    std::string bad_magic = bytes;
    bad_magic[0] = 'X';
    const Damage damages[] = {
        {"cut", bytes.substr(0, bytes.size() / 2), "truncated checkpoint"},
        {"flip", flipped, "checkpoint CRC mismatch"},
        {"magic", bad_magic, "bad checkpoint header"},
    };
    for (const Damage &d : damages) {
        SCOPED_TRACE(d.what);
        fs::path dir = root / d.what;
        fs::create_directories(dir);
        writeBytes((dir / file).string(), d.bytes);
        std::string report = (root / (std::string(d.what) + ".json")).string();
        ASSERT_EQ(runCli(std::string(kRunFlags) + " --checkpoint-dir=" +
                             dir.string() + " --resume --report-json=" +
                             report,
                         err),
                  exit_ok);
        std::string warning = std::string("el_run: no usable checkpoint (") +
                              d.message + "); starting cold";
        EXPECT_NE(readBytes(err).find(warning), std::string::npos)
            << "stderr: " << readBytes(err);
        EXPECT_TRUE(guestOf(report) == want);
    }
    fs::remove_all(root);
}

} // namespace
} // namespace el
