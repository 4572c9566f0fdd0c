/**
 * @file
 * Unit tests for the divergence sentinel's bookkeeping: deterministic
 * sampling, the health ledger, and the quarantine state machine
 * (healthy -> quarantined -> retranslated, with bounded retries
 * pinning an EIP to the interpreter).
 */

#include <gtest/gtest.h>

#include "support/sentinel.hh"

namespace el::sentinel
{
namespace
{

TEST(SentinelSampling, RateZeroNeverChecks)
{
    Sentinel s; // default config: selfcheck_rate = 0
    for (int k = 0; k < 100; ++k)
        EXPECT_FALSE(s.shouldCheck());
    EXPECT_EQ(s.regionsSeen(), 100u); // the counter still advances
}

TEST(SentinelSampling, EveryNthRegionDeterministically)
{
    Config cfg;
    cfg.selfcheck_rate = 4;
    Sentinel s(cfg);
    int checked = 0;
    for (int k = 0; k < 16; ++k) {
        bool c = s.shouldCheck();
        EXPECT_EQ(c, k % 4 == 0) << "region " << k;
        checked += c;
    }
    EXPECT_EQ(checked, 4);

    // A second sentinel over the same region stream makes identical
    // decisions: sampling is a pure function of the counter.
    Sentinel s2(cfg);
    for (int k = 0; k < 16; ++k)
        EXPECT_EQ(s2.shouldCheck(), k % 4 == 0);
}

TEST(SentinelSampling, RateOneChecksEverything)
{
    Config cfg;
    cfg.selfcheck_rate = 1;
    Sentinel s(cfg);
    for (int k = 0; k < 8; ++k)
        EXPECT_TRUE(s.shouldCheck());
}

TEST(SentinelLedger, DivergenceIsDecisive)
{
    Sentinel s;
    EXPECT_EQ(s.record(0x1000), nullptr);
    EXPECT_FALSE(s.isQuarantined(0x1000));
    EXPECT_FALSE(s.interpretGate(0x1000));

    s.noteDivergence(0x1000);
    const HealthRecord *r = s.record(0x1000);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->state, Health::Quarantined);
    EXPECT_EQ(r->divergences, 1u);
    EXPECT_TRUE(s.isQuarantined(0x1000));
    EXPECT_TRUE(s.interpretGate(0x1000));
    EXPECT_EQ(s.totalDivergences(), 1u);
    // Unrelated EIPs are untouched.
    EXPECT_FALSE(s.isQuarantined(0x2000));
}

TEST(SentinelQuarantine, CooldownServesThenRetranslates)
{
    Config cfg;
    cfg.quarantine_cooldown = 3;
    Sentinel s(cfg);
    s.noteDivergence(0x77);
    EXPECT_TRUE(s.interpretGate(0x77));
    EXPECT_EQ(s.record(0x77)->cooldown_left, 3u);

    s.tickCooldown(0x77);
    s.tickCooldown(0x77);
    EXPECT_TRUE(s.interpretGate(0x77)); // still cooling down
    s.tickCooldown(0x77);
    // Cooldown served: retranslation allowed, gate lifted.
    EXPECT_EQ(s.record(0x77)->state, Health::Retranslated);
    EXPECT_EQ(s.record(0x77)->retries, 1u);
    EXPECT_FALSE(s.interpretGate(0x77));
    EXPECT_FALSE(s.isQuarantined(0x77));
}

TEST(SentinelQuarantine, RelapsePinsAfterBoundedRetries)
{
    Config cfg;
    cfg.quarantine_cooldown = 1;
    cfg.retranslate_limit = 2;
    Sentinel s(cfg);

    // Two full quarantine -> retranslate -> relapse cycles...
    for (int cycle = 0; cycle < 2; ++cycle) {
        s.noteDivergence(0xabc);
        EXPECT_FALSE(s.record(0xabc)->pinned) << "cycle " << cycle;
        s.tickCooldown(0xabc);
        EXPECT_EQ(s.record(0xabc)->state, Health::Retranslated);
    }
    // ...and the third divergence exhausts the retry budget: pinned.
    s.noteDivergence(0xabc);
    EXPECT_TRUE(s.record(0xabc)->pinned);
    EXPECT_TRUE(s.interpretGate(0xabc));
    EXPECT_TRUE(s.isQuarantined(0xabc));
    // Ticks no longer lift the gate.
    for (int k = 0; k < 10; ++k)
        s.tickCooldown(0xabc);
    EXPECT_TRUE(s.interpretGate(0xabc));
}

TEST(SentinelQuarantine, TickOnUnknownOrHealthyIsNoop)
{
    Sentinel s;
    s.tickCooldown(0x5); // unknown EIP: nothing happens
    EXPECT_EQ(s.record(0x5), nullptr);
}

TEST(SentinelLog, DivergenceLogIsBoundedKeepingEarliest)
{
    Config cfg;
    cfg.divergence_log_capacity = 2;
    Sentinel s(cfg);
    for (uint32_t k = 0; k < 5; ++k) {
        DivergenceInfo d;
        d.checkpoint_eip = 0x100 + k;
        d.region_index = k;
        s.logDivergence(d);
    }
    ASSERT_EQ(s.divergences().size(), 2u);
    // Drop-newest: the first divergences explain the rest of the run.
    EXPECT_EQ(s.divergences()[0].checkpoint_eip, 0x100u);
    EXPECT_EQ(s.divergences()[1].checkpoint_eip, 0x101u);
    EXPECT_EQ(s.divergences().dropped(), 3u);
}

TEST(SentinelLog, HealthNames)
{
    EXPECT_STREQ(healthName(Health::Healthy), "healthy");
    EXPECT_STREQ(healthName(Health::Quarantined), "quarantined");
    EXPECT_STREQ(healthName(Health::Retranslated), "retranslated");
}

} // namespace
} // namespace el::sentinel
