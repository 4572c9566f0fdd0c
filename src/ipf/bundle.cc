#include "ipf/bundle.hh"

#include "ipf/code_cache.hh"

namespace el::ipf
{

namespace
{

/** The slot patterns of the supported bundle templates. */
struct Template
{
    Slot s0, s1, s2;
};

const Template templates[] = {
    {Slot::M, Slot::I, Slot::I}, // MII
    {Slot::M, Slot::M, Slot::I}, // MMI
    {Slot::M, Slot::F, Slot::I}, // MFI
    {Slot::M, Slot::M, Slot::F}, // MMF
    {Slot::M, Slot::I, Slot::B}, // MIB
    {Slot::M, Slot::B, Slot::B}, // MBB
    {Slot::B, Slot::B, Slot::B}, // BBB
    {Slot::M, Slot::M, Slot::B}, // MMB
    {Slot::M, Slot::F, Slot::B}, // MFB
};

/** Can an instruction of kind @p want occupy a template slot @p have? */
bool
fits(Slot want, Slot have)
{
    if (want == Slot::A)
        return have == Slot::M || have == Slot::I;
    return want == have;
}

/**
 * Greedily choose the template that places the most of the next
 * instructions. Returns the number of instructions consumed (>= 1 is
 * guaranteed progress: every slot kind appears in some template).
 */
unsigned
packOne(const std::vector<Slot> &kinds, size_t at, BundleStats *stats)
{
    unsigned best_used = 0;
    for (const Template &t : templates) {
        const Slot slots[3] = {t.s0, t.s1, t.s2};
        unsigned used = 0;
        unsigned si = 0;
        while (si < 3 && at + used < kinds.size()) {
            if (fits(kinds[at + used], slots[si])) {
                ++used;
                ++si;
            } else {
                ++si; // this template slot becomes a nop
            }
        }
        if (used > best_used)
            best_used = used;
    }
    if (best_used == 0)
        best_used = 1; // degenerate; count it as its own bundle
    ++stats->bundles;
    stats->real_slots += best_used;
    stats->nop_slots += 3 - (best_used > 3 ? 3 : best_used);
    return best_used;
}

} // namespace

BundleStats
packBundles(const CodeCache &code, int64_t begin, int64_t end)
{
    BundleStats stats;
    // Split into groups at stop bits; pack each group independently.
    int64_t g_start = begin;
    while (g_start < end) {
        int64_t g_end = g_start;
        while (g_end < end && !code.at(g_end).stop)
            ++g_end;
        if (g_end < end)
            ++g_end; // include the stopped instruction

        std::vector<Slot> kinds;
        for (int64_t k = g_start; k < g_end; ++k) {
            const OpInfo &info = opInfo(code.at(k).op);
            kinds.push_back(info.slot);
            if (info.width == 2)
                kinds.push_back(Slot::I); // the X half of movl's L+X pair
        }
        size_t at = 0;
        while (at < kinds.size())
            at += packOne(kinds, at, &stats);
        g_start = g_end;
    }
    return stats;
}

} // namespace el::ipf
