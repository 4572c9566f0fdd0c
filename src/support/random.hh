/**
 * @file
 * Deterministic pseudo-random number generator (SplitMix64).
 *
 * All stochastic choices in workload generation flow through this type so
 * that every test and benchmark run is reproducible from a fixed seed.
 */

#ifndef EL_SUPPORT_RANDOM_HH
#define EL_SUPPORT_RANDOM_HH

#include <cstdint>

namespace el
{

/** Small, fast, seedable PRNG (SplitMix64). */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) : state_(seed) {}

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform integer in [0, n). @p n must be nonzero. */
    uint64_t range(uint64_t n) { return next() % n; }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    between(int64_t lo, int64_t hi)
    {
        return lo + static_cast<int64_t>(range(
            static_cast<uint64_t>(hi - lo + 1)));
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

  private:
    uint64_t state_;
};

} // namespace el

#endif // EL_SUPPORT_RANDOM_HH
