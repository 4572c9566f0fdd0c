/**
 * @file
 * Tests for the persistent translation-artifact store: fingerprint
 * sensitivity, save/load round trips, warm-start determinism against a
 * cold run across pipeline thread counts, SMC invalidation of loaded
 * artifacts, the hardened loader's corruption matrix (truncation, bit
 * flips, bad magic, bad version — always a clean cold fallback, never
 * a crash or silently wrong code), and `el_aot`-style validation
 * scrubbing a store poisoned by an injected miscompile.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "guest/workloads.hh"
#include "harness/exec.hh"
#include "persist/store.hh"
#include "support/faultinject.hh"
#include "support/profile.hh"
#include "support/sentinel.hh"
#include "support/strfmt.hh"

namespace el
{
namespace
{

namespace fs = std::filesystem;
using guest::Workload;

/** Small integer kernel: a few hot traces, quick to replay. */
Workload
victim()
{
    guest::WorkloadParams p;
    p.outer_iters = 6;
    p.size = 150;
    return guest::buildMatrix("persist_victim", p);
}

core::Options
baseOpts(unsigned threads = 0)
{
    core::Options o;
    o.heat_threshold = 16;
    o.hot_batch = 1;
    o.translation_threads = threads;
    o.deterministic_adoption = threads > 0;
    return o;
}

/** A scratch directory under the gtest temp root, wiped on scope exit. */
struct TempDir
{
    fs::path path;
    explicit TempDir(const std::string &tag)
        : path(fs::path(::testing::TempDir()) / ("el_persist_" + tag))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
    std::string str() const { return path.string(); }
};

/** Cold run with a recording store attached; returns the run. */
harness::TranslatedRun
coldRunInto(persist::ArtifactStore &store, const Workload &w,
            core::Options opts = baseOpts())
{
    store.resetFingerprint(persist::fingerprintOf(w.image, opts));
    opts.persist = &store;
    return harness::runTranslated(w.image, w.params.abi, opts);
}

/**
 * The architectural subset of the profiler's counters: block
 * executions, conditional edges, indirect target counts. Warm and cold
 * runs must agree on these exactly; lookup hit/miss ratios and the
 * via_link/via_dispatch split reflect translation phase and are
 * legitimately different.
 */
std::string
archProfSignature(const prof::Profiler &p)
{
    std::string s;
    for (const auto &[entry, execs] : p.blockExecs())
        s += strfmt("B %08x %llu\n", entry,
                    static_cast<unsigned long long>(execs));
    for (const auto &[ip, cs] : p.condSites())
        s += strfmt("C %08x %llu %llu\n", ip,
                    static_cast<unsigned long long>(cs.taken),
                    static_cast<unsigned long long>(cs.fall));
    for (const auto &[ip, site] : p.indirectSites())
        for (const prof::TargetCount &t : site.targets)
            s += strfmt("I %08x -> %08x %llu\n", ip, t.target,
                        static_cast<unsigned long long>(t.count));
    return s;
}

bool
sameGuestOutcome(const harness::Outcome &a, const harness::Outcome &b,
                 std::string *why = nullptr)
{
    if (a.exited != b.exited || a.exit_code != b.exit_code ||
        a.console != b.console) {
        if (why)
            *why = "exit/console mismatch";
        return false;
    }
    return a.final_state.equalsArch(b.final_state, why);
}

// ----- fingerprint -------------------------------------------------------

TEST(PersistFingerprint, SensitiveToImageAndEmissionOptions)
{
    Workload w = victim();
    core::Options opts;
    persist::Fingerprint base = persist::fingerprintOf(w.image, opts);

    // Same inputs → same fingerprint (it keys the store file).
    EXPECT_TRUE(base == persist::fingerprintOf(w.image, opts));

    // A different guest program must miss.
    guest::WorkloadParams p;
    p.outer_iters = 7;
    p.size = 151;
    Workload other = guest::buildMatrix("persist_other", p);
    EXPECT_NE(base.image_hash,
              persist::fingerprintOf(other.image, opts).image_hash);

    // An emission-relevant toggle changes the options hash...
    core::Options reshaped = opts;
    reshaped.enable_unroll = !opts.enable_unroll;
    EXPECT_NE(base.opts_hash,
              persist::fingerprintOf(w.image, reshaped).opts_hash);

    // ...but thresholds, thread counts and capacities must NOT: an
    // `el_aot`-built store (aggressive heating) serves a default run.
    core::Options retimed = opts;
    retimed.heat_threshold = 4;
    retimed.hot_batch = 1;
    retimed.translation_threads = 4;
    retimed.code_cache_capacity = opts.code_cache_capacity / 2;
    EXPECT_TRUE(base == persist::fingerprintOf(w.image, retimed));
}

// ----- round trip --------------------------------------------------------

TEST(PersistStore, SaveLoadRoundTrip)
{
    TempDir dir("roundtrip");
    Workload w = victim();
    persist::ArtifactStore store;
    coldRunInto(store, w);
    ASSERT_GT(store.recordCount(), 0u);
    ASSERT_TRUE(store.save(dir.str()));

    persist::ArtifactStore loaded(store.fingerprint());
    ASSERT_TRUE(loaded.load(dir.str()));
    EXPECT_EQ(store.recordCount(), loaded.recordCount());
    EXPECT_EQ(loaded.stats.get("persist.rejected_crc"), 0u);
    EXPECT_EQ(loaded.stats.get("persist.rejected_invalid"), 0u);

    // Byte-exact content check: save→load→save must be a fixed point.
    TempDir dir2("roundtrip2");
    ASSERT_TRUE(loaded.save(dir2.str()));
    std::ifstream a(store.pathIn(dir.str()), std::ios::binary);
    std::ifstream b(loaded.pathIn(dir2.str()), std::ios::binary);
    std::string abytes((std::istreambuf_iterator<char>(a)),
                       std::istreambuf_iterator<char>());
    std::string bbytes((std::istreambuf_iterator<char>(b)),
                       std::istreambuf_iterator<char>());
    ASSERT_FALSE(abytes.empty());
    EXPECT_EQ(abytes, bbytes);
}

TEST(PersistStore, FingerprintMismatchLoadsNothing)
{
    TempDir dir("fpmiss");
    Workload w = victim();
    persist::ArtifactStore store;
    coldRunInto(store, w);
    ASSERT_TRUE(store.save(dir.str()));

    // A store keyed differently must not see the file at all.
    persist::Fingerprint other = store.fingerprint();
    other.opts_hash ^= 1;
    persist::ArtifactStore wrong(other);
    EXPECT_FALSE(wrong.load(dir.str()));
    EXPECT_EQ(wrong.recordCount(), 0u);

    // Same path, forced: the header check still rejects it.
    persist::ArtifactStore forced(other);
    EXPECT_FALSE(forced.loadFile(store.pathIn(dir.str())));
    EXPECT_EQ(forced.recordCount(), 0u);
    EXPECT_GE(forced.stats.get("persist.rejected_fingerprint"), 1u);
}

// ----- warm-start determinism -------------------------------------------

TEST(PersistWarmStart, BitExactAcrossThreadCounts)
{
    TempDir dir("warm");
    Workload w = victim();

    // Cold reference run (no store) — the answer everything must match.
    prof::Profiler cold_prof;
    core::Options cold_opts = baseOpts();
    cold_opts.profiler = &cold_prof;
    harness::TranslatedRun cold =
        harness::runTranslated(w.image, w.params.abi, cold_opts);
    ASSERT_TRUE(cold.outcome.exited);
    std::string cold_sig = archProfSignature(cold_prof);
    ASSERT_FALSE(cold_sig.empty());

    // Populate the store once.
    persist::ArtifactStore writer;
    coldRunInto(writer, w);
    ASSERT_GT(writer.recordCount(), 0u);
    ASSERT_TRUE(writer.save(dir.str()));

    for (unsigned threads : {0u, 1u, 4u}) {
        core::Options opts = baseOpts(threads);
        persist::ArtifactStore store(
            persist::fingerprintOf(w.image, opts));
        ASSERT_TRUE(store.load(dir.str())) << "threads=" << threads;
        opts.persist = &store;
        prof::Profiler warm_prof;
        opts.profiler = &warm_prof;
        harness::TranslatedRun warm =
            harness::runTranslated(w.image, w.params.abi, opts);

        std::string why;
        EXPECT_TRUE(sameGuestOutcome(cold.outcome, warm.outcome, &why))
            << "threads=" << threads << ": " << why;

        // The warm run must actually be warm: artifacts adopted, and
        // no hot translation left for the covered entries.
        EXPECT_GT(store.stats.get("persist.hits"), 0u)
            << "threads=" << threads;
        uint64_t hits = store.stats.get("persist.hits");
        uint64_t local =
            warm.runtime->translator().stats.get("xlate.hot_blocks");
        EXPECT_GE(hits * 10, (hits + local) * 9)
            << "threads=" << threads << ": warm reuse below 90% ("
            << hits << " adopted vs " << local << " local)";

        // Architectural profiler counters match the cold run: adopted
        // traces execute exactly like locally built ones.
        // (outcome.guest_insns counts translated-source instructions,
        // which a warm run legitimately avoids — not compared.)
        EXPECT_EQ(cold_sig, archProfSignature(warm_prof))
            << "threads=" << threads;
    }
}

// ----- SMC invalidation of loaded artifacts -----------------------------

TEST(PersistWarmStart, SmcGuardsApplyToLoadedArtifacts)
{
    // jit_rewriter patches its own code mid-run. A warm run adopting
    // pre-SMC artifacts must invalidate them exactly like live ones and
    // still produce the interpreter's answer.
    Workload w;
    for (Workload &cand : guest::adversarialSuite())
        if (cand.name == "jit_rewriter")
            w = std::move(cand);
    ASSERT_FALSE(w.name.empty());

    harness::Outcome oracle =
        harness::runInterpreter(w.image, w.params.abi);
    ASSERT_TRUE(oracle.exited);

    TempDir dir("smc");
    persist::ArtifactStore writer;
    harness::TranslatedRun cold = coldRunInto(writer, w);
    std::string why;
    ASSERT_TRUE(sameGuestOutcome(oracle, cold.outcome,
                                 &why))
        << why;
    ASSERT_TRUE(writer.save(dir.str()));

    core::Options opts = baseOpts();
    persist::ArtifactStore store(persist::fingerprintOf(w.image, opts));
    ASSERT_TRUE(store.load(dir.str()));
    opts.persist = &store;
    harness::TranslatedRun warm =
        harness::runTranslated(w.image, w.params.abi, opts);
    EXPECT_TRUE(sameGuestOutcome(oracle, warm.outcome,
                                 &why))
        << why;
    // The guards must have actually fired on the warm side too: either
    // stale records were rejected at adoption or invalidated after.
    EXPECT_GT(store.stats.get("persist.smc_rejected") +
                  warm.runtime->translator().stats.get(
                      "smc.invalidations"),
              0u);
}

// ----- corruption matrix ------------------------------------------------

class PersistCorruption : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        w_ = victim();
        dir_ = std::make_unique<TempDir>("corrupt");
        persist::ArtifactStore store;
        coldRunInto(store, w_);
        ASSERT_GT(store.recordCount(), 0u);
        ASSERT_TRUE(store.save(dir_->str()));
        fp_ = store.fingerprint();
        path_ = store.pathIn(dir_->str());
        std::ifstream f(path_, std::ios::binary);
        bytes_.assign((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
        ASSERT_GT(bytes_.size(), 64u);
    }

    void
    rewrite(const std::string &bytes)
    {
        std::ofstream f(path_, std::ios::binary | std::ios::trunc);
        f.write(bytes.data(),
                static_cast<std::streamsize>(bytes.size()));
    }

    /** Load must survive, and a warm run over whatever loaded must
     *  still match a cold run — corrupt stores degrade, never lie. */
    void
    expectGracefulFallback(const char *what)
    {
        persist::ArtifactStore store(fp_);
        (void)store.load(dir_->str()); // may load 0..n records
        core::Options opts = baseOpts();
        opts.persist = &store;
        harness::TranslatedRun warm =
            harness::runTranslated(w_.image, w_.params.abi, opts);
        harness::TranslatedRun cold =
            harness::runTranslated(w_.image, w_.params.abi, baseOpts());
        std::string why;
        EXPECT_TRUE(sameGuestOutcome(cold.outcome, warm.outcome, &why))
            << what << ": " << why;
    }

    Workload w_;
    std::unique_ptr<TempDir> dir_;
    persist::Fingerprint fp_;
    std::string path_;
    std::string bytes_;
};

TEST_F(PersistCorruption, TruncatedFile)
{
    for (size_t keep :
         {size_t(0), size_t(10), size_t(36), bytes_.size() / 2,
          bytes_.size() - 3}) {
        rewrite(bytes_.substr(0, keep));
        persist::ArtifactStore store(fp_);
        (void)store.load(dir_->str());
        EXPECT_LT(store.recordCount(), 100000u); // merely: no crash
    }
    rewrite(bytes_.substr(0, bytes_.size() / 2));
    expectGracefulFallback("truncated");
}

TEST_F(PersistCorruption, FlippedPayloadByteFailsCrc)
{
    std::string mutated = bytes_;
    mutated[mutated.size() / 2] ^= 0x40;
    rewrite(mutated);
    persist::ArtifactStore store(fp_);
    (void)store.load(dir_->str());
    EXPECT_GE(store.stats.get("persist.rejected_crc") +
                  store.stats.get("persist.rejected_magic") +
                  store.stats.get("persist.rejected_truncated") +
                  store.stats.get("persist.rejected_invalid"),
              1u);
    expectGracefulFallback("bit flip");
}

TEST_F(PersistCorruption, BadMagicRejectsFile)
{
    std::string mutated = bytes_;
    mutated[0] = 'X';
    rewrite(mutated);
    persist::ArtifactStore store(fp_);
    EXPECT_FALSE(store.load(dir_->str()));
    EXPECT_EQ(store.recordCount(), 0u);
    EXPECT_GE(store.stats.get("persist.rejected_header"), 1u);
    expectGracefulFallback("bad magic");
}

TEST_F(PersistCorruption, BadVersionRejectsFile)
{
    std::string mutated = bytes_;
    mutated[4] = char(0x7f); // version field, little-endian low byte
    rewrite(mutated);
    persist::ArtifactStore store(fp_);
    EXPECT_FALSE(store.load(dir_->str()));
    EXPECT_EQ(store.recordCount(), 0u);
    EXPECT_GE(store.stats.get("persist.rejected_header"), 1u);
    expectGracefulFallback("bad version");
}

TEST_F(PersistCorruption, RandomByteFlipsNeverCrash)
{
    // Deterministic sweep over positions; every mutation must load
    // without crashing and never exceed the original record count.
    persist::ArtifactStore clean(fp_);
    ASSERT_TRUE(clean.loadFile(path_));
    size_t n_clean = clean.recordCount();
    for (size_t pos = 0; pos < bytes_.size();
         pos += 1 + bytes_.size() / 97) {
        std::string mutated = bytes_;
        mutated[pos] ^= 0x5a;
        rewrite(mutated);
        persist::ArtifactStore store(fp_);
        (void)store.load(dir_->str());
        EXPECT_LE(store.recordCount(), n_clean) << "pos=" << pos;
    }
}

// ----- fault-injection site ---------------------------------------------

TEST(PersistFaults, StoreCorruptSiteIsCaughtOnReload)
{
    TempDir dir("faultsite");
    Workload w = victim();
    core::Options opts = baseOpts();
    opts.fault.seed = 7;
    opts.fault.site(FaultSite::StoreCorrupt, 1024);
    persist::ArtifactStore store;
    coldRunInto(store, w, opts);
    ASSERT_GT(store.recordCount(), 0u);
    // save() runs while the runtime's injector is still installed in
    // real CLI flows; install one explicitly here.
    FaultInjectorScope scope(opts.fault);
    ASSERT_TRUE(store.save(dir.str()));
    ASSERT_GE(scope.get()->fires(FaultSite::StoreCorrupt), 1u);

    persist::ArtifactStore reload(store.fingerprint());
    (void)reload.load(dir.str());
    EXPECT_LT(reload.recordCount(), store.recordCount());
    EXPECT_GE(reload.stats.get("persist.rejected_crc") +
                  reload.stats.get("persist.rejected_magic") +
                  reload.stats.get("persist.rejected_truncated") +
                  reload.stats.get("persist.rejected_invalid"),
              1u);
}

// ----- el_aot-style validation scrubs poisoned stores -------------------

TEST(PersistValidation, MiscompiledArtifactsNeverSealed)
{
    TempDir dir("scrub");
    Workload w = victim();
    harness::Outcome oracle =
        harness::runInterpreter(w.image, w.params.abi);
    ASSERT_TRUE(oracle.exited);

    // Discovery run with worker-side miscompile injection: corrupted
    // staging is recorded into the store before publication.
    core::Options poison = baseOpts(1);
    poison.fault.seed = 3;
    poison.fault.site(FaultSite::Miscompile, 128);
    persist::ArtifactStore store;
    coldRunInto(store, w, poison);
    if (store.recordCount() == 0)
        GTEST_SKIP() << "no artifacts survived discovery";

    // Validation run: adopt everything under a shadow-check-everything
    // sentinel; convicted artifacts leave the store via quarantine.
    core::Options vopts = baseOpts();
    vopts.max_run_cycles *= 10;
    sentinel::Config scfg;
    scfg.selfcheck_rate = 1;
    sentinel::Sentinel sent(scfg);
    vopts.sentinel = &sent;
    vopts.persist = &store;
    harness::TranslatedRun validation =
        harness::runTranslated(w.image, w.params.abi, vopts);
    std::string why;
    ASSERT_TRUE(sameGuestOutcome(oracle,
                                 validation.outcome, &why))
        << "validation run must repair to the oracle answer: " << why;
    store.seal();
    ASSERT_TRUE(store.save(dir.str()));

    // Whatever was sealed must reproduce the oracle bit-for-bit.
    core::Options wopts = baseOpts();
    persist::ArtifactStore sealed(
        persist::fingerprintOf(w.image, wopts));
    (void)sealed.load(dir.str());
    wopts.persist = &sealed;
    harness::TranslatedRun warm =
        harness::runTranslated(w.image, w.params.abi, wopts);
    EXPECT_TRUE(
        sameGuestOutcome(oracle, warm.outcome, &why))
        << why;
}

// ----- crash consistency: the hot-artifact journal ----------------------

/** Cold run with an open journal attached; the runtime flushes at
 *  adoption boundaries and closeJournal() flushes the tail. */
harness::TranslatedRun
journaledRunInto(persist::ArtifactStore &store, const TempDir &dir,
                 const Workload &w)
{
    store.resetFingerprint(persist::fingerprintOf(w.image, baseOpts()));
    EXPECT_TRUE(store.openJournal(dir.str()));
    core::Options opts = baseOpts();
    opts.persist = &store;
    harness::TranslatedRun run =
        harness::runTranslated(w.image, w.params.abi, opts);
    store.closeJournal();
    return run;
}

TEST(PersistJournal, ReplayRoundTrip)
{
    TempDir dir("journal_rt");
    Workload w = victim();
    persist::ArtifactStore writer;
    journaledRunInto(writer, dir, w);
    ASSERT_GT(writer.recordCount(), 0u);
    // Nothing but the journal is on disk: the run never called save().
    ASSERT_FALSE(fs::exists(writer.pathIn(dir.str())));
    ASSERT_TRUE(fs::exists(writer.journalPathIn(dir.str())));

    // A fresh store recovers every journaled record by replay alone.
    persist::ArtifactStore replayed(writer.fingerprint());
    ASSERT_TRUE(replayed.load(dir.str()));
    EXPECT_EQ(replayed.recordCount(), writer.recordCount());
    EXPECT_EQ(replayed.journalReplayed(), writer.recordCount());
    EXPECT_EQ(replayed.stats.get("persist.rejected_truncated"), 0u);
    EXPECT_EQ(replayed.stats.get("persist.rejected_crc"), 0u);

    // Compaction folds the journal into the .elstore and removes it;
    // a third store then loads the same record set from the file.
    ASSERT_TRUE(replayed.compact(dir.str()));
    EXPECT_TRUE(fs::exists(replayed.pathIn(dir.str())));
    EXPECT_FALSE(fs::exists(replayed.journalPathIn(dir.str())));
    persist::ArtifactStore compacted(writer.fingerprint());
    ASSERT_TRUE(compacted.load(dir.str()));
    EXPECT_EQ(compacted.recordCount(), writer.recordCount());

    // And the recovered artifacts behave: warm run matches cold.
    core::Options wopts = baseOpts();
    wopts.persist = &compacted;
    harness::TranslatedRun warm =
        harness::runTranslated(w.image, w.params.abi, wopts);
    harness::TranslatedRun cold =
        harness::runTranslated(w.image, w.params.abi, baseOpts());
    std::string why;
    EXPECT_TRUE(sameGuestOutcome(cold.outcome, warm.outcome, &why))
        << why;
    EXPECT_GT(compacted.stats.get("persist.hits"), 0u);
}

TEST(PersistJournal, DropFramesReplayAsDeletions)
{
    TempDir dir("journal_drop");
    Workload w = victim();
    persist::ArtifactStore writer;
    harness::TranslatedRun run = journaledRunInto(writer, dir, w);
    ASSERT_GT(writer.recordCount(), 1u);

    // Quarantine-style drop of one hot entry, journaled like any other
    // mutation (reopen: closeJournal already folded the run's frames —
    // openJournal truncates, so compact first to keep them).
    ASSERT_TRUE(writer.compact(dir.str()));
    ASSERT_TRUE(writer.openJournal(dir.str()));
    uint32_t victim_eip = 0;
    for (const auto &bi : run.runtime->translator().allBlocks())
        if (bi && bi->kind == core::BlockKind::Hot &&
            writer.hasRecordsAt(bi->entry_eip)) {
            victim_eip = bi->entry_eip;
            break;
        }
    ASSERT_NE(victim_eip, 0u);
    size_t before = writer.recordCount();
    writer.dropAt(victim_eip);
    writer.closeJournal();

    // Replay = store file + journal: the drop wins over the compacted
    // record, exactly as it won in memory.
    persist::ArtifactStore replayed(writer.fingerprint());
    ASSERT_TRUE(replayed.load(dir.str()));
    EXPECT_EQ(replayed.recordCount(), writer.recordCount());
    EXPECT_LT(replayed.recordCount(), before);
    EXPECT_FALSE(replayed.hasRecordsAt(victim_eip));
}

TEST(PersistJournal, TruncationSweepRecoversEveryIntactPrefix)
{
    TempDir dir("journal_trunc");
    Workload w = victim();
    persist::ArtifactStore writer;
    journaledRunInto(writer, dir, w);
    ASSERT_GT(writer.recordCount(), 0u);

    std::string jpath = writer.journalPathIn(dir.str());
    std::ifstream f(jpath, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 28u); // journal header

    // Walk the frame layout: boundaries[i] = offset just after frame i.
    // u32 magic | u8 kind | u32 len | u32 crc | payload[len]
    std::vector<size_t> boundaries{28};
    std::vector<size_t> adds_before{0}; // add-frames before boundary i
    size_t off = 28, adds = 0;
    while (off < bytes.size()) {
        ASSERT_GE(bytes.size() - off, 13u) << "writer left a torn tail";
        uint8_t kind = static_cast<uint8_t>(bytes[off + 4]);
        uint32_t len;
        std::memcpy(&len, bytes.data() + off + 5, 4);
        ASSERT_EQ(kind, 0u) << "unexpected drop frame in a pure run";
        off += 13 + len;
        ASSERT_LE(off, bytes.size());
        ++adds;
        boundaries.push_back(off);
        adds_before.push_back(adds);
    }
    ASSERT_EQ(adds, writer.recordCount());

    auto truncateTo = [&](size_t keep) {
        std::ofstream out(jpath, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(keep));
    };

    // Every frame boundary, and one byte either side of it: the intact
    // prefix always recovers, a cut tail costs exactly one
    // rejected_truncated, and a clean cut costs none.
    for (size_t i = 0; i < boundaries.size(); ++i) {
        for (int delta : {-1, 0, 1}) {
            size_t cut = boundaries[i] + static_cast<size_t>(delta);
            if (cut > bytes.size())
                continue;
            truncateTo(cut);
            persist::ArtifactStore store(writer.fingerprint());
            (void)store.load(dir.str());
            SCOPED_TRACE("cut=" + std::to_string(cut));
            if (cut < 28) {
                // Inside the journal header: the whole file is
                // rejected, nothing loads.
                EXPECT_EQ(store.recordCount(), 0u);
                EXPECT_GE(store.stats.get(
                              "persist.journal_rejected_header"),
                          1u);
                continue;
            }
            // Complete frames fully below the cut all recover...
            size_t complete = 0;
            for (size_t k = 0; k < boundaries.size(); ++k)
                if (boundaries[k] <= cut)
                    complete = adds_before[k];
            EXPECT_EQ(store.recordCount(), complete);
            // ...and the tail costs exactly one truncation rejection
            // when (and only when) the cut is not a frame boundary.
            bool exact = delta == 0;
            EXPECT_EQ(store.stats.get("persist.rejected_truncated"),
                      exact ? 0u : 1u);
            EXPECT_EQ(store.stats.get("persist.rejected_crc"), 0u);
            EXPECT_EQ(store.stats.get("persist.rejected_invalid"), 0u);
        }
    }
}

// ----- seal semantics ---------------------------------------------------

TEST(PersistStore, SealedStoreRefusesNewRecords)
{
    Workload w = victim();
    persist::ArtifactStore store;
    coldRunInto(store, w);
    size_t n = store.recordCount();
    ASSERT_GT(n, 0u);
    store.seal();
    // A further recording run must not grow the sealed store.
    core::Options opts = baseOpts();
    opts.persist = &store;
    harness::runTranslated(w.image, w.params.abi, opts);
    EXPECT_EQ(store.recordCount(), n);
}

} // namespace
} // namespace el
