/**
 * @file
 * Unit tests for the support library: bit utilities, RNG determinism,
 * statistics containers, and the string formatter.
 */

#include <gtest/gtest.h>

#include "support/bitfield.hh"
#include "support/random.hh"
#include "support/stats.hh"
#include "support/strfmt.hh"

namespace el
{
namespace
{

TEST(Bitfield, BitsExtraction)
{
    EXPECT_EQ(bits(0xdeadbeefULL, 0, 8), 0xefu);
    EXPECT_EQ(bits(0xdeadbeefULL, 8, 8), 0xbeu);
    EXPECT_EQ(bits(0xdeadbeefULL, 0, 64), 0xdeadbeefULL);
    EXPECT_EQ(bit(0x8, 3), 1u);
    EXPECT_EQ(bit(0x8, 2), 0u);
}

TEST(Bitfield, InsertBits)
{
    EXPECT_EQ(insertBits(0, 8, 8, 0xab), 0xab00ULL);
    EXPECT_EQ(insertBits(0xffffULL, 4, 4, 0), 0xff0fULL);
    EXPECT_EQ(insertBits(0, 0, 64, 0x1234), 0x1234ULL);
}

TEST(Bitfield, SignExtension)
{
    EXPECT_EQ(sext(0xff, 8), -1);
    EXPECT_EQ(sext(0x7f, 8), 127);
    EXPECT_EQ(sext(0x80, 8), -128);
    EXPECT_EQ(sext(0xffffffffULL, 32), -1);
    EXPECT_EQ(sext(0x7fffffffULL, 32), 0x7fffffff);
}

TEST(Bitfield, Alignment)
{
    EXPECT_TRUE(isAligned(0x1000, 16));
    EXPECT_FALSE(isAligned(0x1001, 2));
    EXPECT_EQ(alignDown(0x1234, 0x100), 0x1200ULL);
    EXPECT_EQ(alignUp(0x1234, 0x100), 0x1300ULL);
    EXPECT_EQ(alignUp(0x1200, 0x100), 0x1200ULL);
}

TEST(Bitfield, TruncToSize)
{
    EXPECT_EQ(truncToSize(0x123456789abcdef0ULL, 1), 0xf0ULL);
    EXPECT_EQ(truncToSize(0x123456789abcdef0ULL, 2), 0xdef0ULL);
    EXPECT_EQ(truncToSize(0x123456789abcdef0ULL, 4), 0x9abcdef0ULL);
    EXPECT_EQ(truncToSize(0x123456789abcdef0ULL, 8),
              0x123456789abcdef0ULL);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, RangeBounds)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = r.range(10);
        EXPECT_LT(v, 10u);
        int64_t w = r.between(-5, 5);
        EXPECT_GE(w, -5);
        EXPECT_LE(w, 5);
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(3);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Strfmt, Basic)
{
    EXPECT_EQ(strfmt("x=%d", 42), "x=42");
    EXPECT_EQ(strfmt("%s-%04x", "ab", 0x1f), "ab-001f");
    EXPECT_EQ(strfmt("%s", ""), "");
}

TEST(StatGroup, AddAndRatio)
{
    StatGroup g;
    g.add("a", 10);
    g.add("a", 5);
    g.set("b", 30);
    EXPECT_EQ(g.get("a"), 15u);
    EXPECT_EQ(g.get("missing"), 0u);
    EXPECT_DOUBLE_EQ(g.ratio("a", "b"), 0.5);
    EXPECT_DOUBLE_EQ(g.ratio("a", "missing"), 0.0);
    g.clear();
    EXPECT_EQ(g.get("a"), 0u);
}

TEST(StatGroup, MergeAccumulates)
{
    StatGroup a;
    a.add("shared", 5);
    a.add("only_a", 3);
    StatGroup b;
    b.add("shared", 2);
    b.add("only_b", 7);
    a.merge(b);
    EXPECT_EQ(a.get("shared"), 7u);
    EXPECT_EQ(a.get("only_a"), 3u);
    EXPECT_EQ(a.get("only_b"), 7u);
    // Merging an empty group changes nothing.
    a.merge(StatGroup());
    EXPECT_EQ(a.get("shared"), 7u);
}

TEST(Table, Renders)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22222"});
    std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Geomean, Values)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

} // namespace
} // namespace el
