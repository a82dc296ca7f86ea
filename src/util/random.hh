/**
 * @file
 * Deterministic random-number generation for simulations.
 *
 * All stochastic components take an explicit Rng so experiments are
 * reproducible and independent streams can be split per subsystem.
 */

#ifndef WSC_UTIL_RANDOM_HH
#define WSC_UTIL_RANDOM_HH

#include <math.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>

#include "util/hash.hh"

namespace wsc {

/** A bound on raw 64-bit draws, from 0 to 2^64 inclusive: "every
 * draw is below it" needs the 65th bit. */
using DrawBound = unsigned __int128;

/**
 * MT19937-64 (Matsumoto and Nishimura): the engine std::mt19937_64
 * specifies, with the same seeding, twist and tempering, so every seed
 * yields the same output sequence (tests pin it against libstdc++).
 *
 * Written out because libstdc++'s twist selects the matrix term with a
 * branch on the low bit of each state word, which is a coin flip the
 * predictor misses about half the time; here the term is masked in
 * without a branch. A UniformRandomBitGenerator, so std::
 * distributions can draw from it.
 */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    explicit Mt19937_64(result_type seed)
    {
        x[0] = seed;
        for (std::size_t i = 1; i < kN; ++i)
            x[i] = 6364136223846793005ULL * (x[i - 1] ^ (x[i - 1] >> 62)) +
                   i;
    }

    result_type
    operator()()
    {
        if (p >= kN)
            twist();
        return temper(x[p++]);
    }

    /**
     * The length of the run of draws below @p t, capped at @p cap:
     * what `len = 0; while (engine() < t && len < cap) ++len;` leaves
     * in len, consuming the same draws. That is the first draw not
     * below t, or cap + 1 draws when the first cap + 1 all are.
     * Scans the state array in place, a word per draw, rather than
     * going through operator() for each.
     */
    std::uint64_t
    runBelow(DrawBound t, std::uint64_t cap)
    {
        if (t > max()) { // every draw is below t: the loop hits cap
            discard(cap + 1);
            return cap;
        }
        auto below = result_type(t);
        std::uint64_t len = 0;
        for (;;) {
            if (p >= kN)
                twist();
            std::size_t end =
                p + std::size_t(std::min<std::uint64_t>(kN - p,
                                                        cap + 1 - len));
            for (std::size_t i = p; i < end; ++i) {
                if (temper(x[i]) >= below) {
                    len += i - p;
                    p = i + 1;
                    return len;
                }
            }
            len += end - p;
            p = end;
            if (len > cap)
                return cap;
        }
    }

    /** Same state, so the same outputs from here on. */
    friend bool
    operator==(const Mt19937_64 &a, const Mt19937_64 &b)
    {
        return a.p == b.p && std::equal(a.x, a.x + kN, b.x);
    }

  private:
    static constexpr std::size_t kN = 312;
    static constexpr std::size_t kM = 156;

    /** Skip @p n draws. */
    void
    discard(std::uint64_t n)
    {
        while (n > 0) {
            if (p >= kN)
                twist();
            auto step = std::size_t(std::min<std::uint64_t>(kN - p, n));
            p += step;
            n -= step;
        }
    }

    static result_type
    temper(result_type z)
    {
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
        z ^= (z << 37) & 0xFFF7EEE000000000ULL;
        return z ^ (z >> 43);
    }

    /** One twisted state word from the upper bit of @p hi, the lower
     * 31 bits of @p lo (the next word) and @p far, the word kM places
     * ahead (mod kN). */
    static result_type
    mix(result_type hi, result_type lo, result_type far)
    {
        constexpr result_type upper = ~result_type(0) << 31;
        result_type y = (hi & upper) | (lo & ~upper);
        return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xB5026F5AA96619E9ULL);
    }

    /** Regenerate all kN words, in libstdc++'s order. */
    void
    twist()
    {
        std::size_t k = 0;
        for (; k < kN - kM; ++k)
            x[k] = mix(x[k], x[k + 1], x[k + kM]);
        for (; k < kN - 1; ++k)
            x[k] = mix(x[k], x[k + 1], x[k + kM - kN]);
        x[kN - 1] = mix(x[kN - 1], x[0], x[kM - 1]);
        p = 0;
    }

    result_type x[kN];
    std::size_t p = kN;
};

/**
 * A seedable pseudo-random source over MT19937-64 with the
 * convenience draws the simulators need.
 */
class Rng
{
  public:
    /** Construct with an explicit seed (default fixed for reproducibility). */
    explicit Rng(std::uint64_t seed = 0x5DEECE66DULL)
        : engine(seed), seed_(seed)
    {
    }

    /**
     * libstdc++'s generate_canonical<double, 53> of one 64-bit draw:
     * double(bits) / 2^64 (a power-of-two scale, so exact), with a
     * result rounded up to 1 clamped to nextafter(1, 0).
     *
     * double(bits) is formed as double(hi32) * 2^32 + double(lo32):
     * both terms are exact and the sum is rounded once, so it is the
     * same correctly rounded value, without the branch on the top bit
     * that converting an unsigned 64-bit integer compiles to on x86-64.
     */
    static double
    canonical(std::uint64_t bits)
    {
        double whole = double(std::uint32_t(bits >> 32)) * 0x1.0p32 +
                       double(std::uint32_t(bits));
        double u = whole * 0x1.0p-64;
        return u < 1.0 ? u : 0x1.fffffffffffffp-1;
    }

    /**
     * Uniform double in [0, 1): canonical() of one engine draw.
     *
     * Bit-equal to libstdc++'s std::uniform_real_distribution<double>
     * (0, 1) on the same engine, spelled out inline because the
     * library routine is an out-of-line loop with a long-double setup
     * on every call. Written here, the draws are also the same under
     * any other standard library.
     */
    double
    uniform()
    {
        return canonical(engine());
    }

    /** Uniform double in [lo, hi); the libstdc++ affine map of
     * uniform(), so bit-equal to uniform_real_distribution(lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return uniform() * (hi - lo) + lo;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    uniformInt(std::uint64_t lo, std::uint64_t hi)
    {
        return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine);
    }

    /** Exponentially distributed double with the given mean; bit-equal
     * to exponential_distribution(1 / mean), whose libstdc++ body is
     * -log(1 - u) / lambda over the same canonical uniform. */
    double
    exponential(double mean)
    {
        return -std::log(1.0 - uniform()) / (1.0 / mean);
    }

    /**
     * Normally distributed double; bit-equal to a fresh
     * normal_distribution(mean, stddev), whose libstdc++ body is the
     * Marsaglia polar method over uniform(). A fresh distribution
     * discards the pair's second variate, and so does this.
     */
    double
    normal(double mean, double stddev)
    {
        double x, y, r2;
        do {
            x = 2.0 * uniform() - 1.0;
            y = 2.0 * uniform() - 1.0;
            r2 = x * x + y * y;
        } while (r2 > 1.0 || r2 == 0.0);
        double mult = std::sqrt(-2 * std::log(r2) / r2);
        return y * mult * stddev + mean;
    }

    /** Lognormal draw parameterized by the underlying normal's
     * mu/sigma; bit-equal to lognormal_distribution(mu, sigma), which
     * libstdc++ computes as exp(sigma * N(0, 1) + mu). */
    double
    lognormal(double mu, double sigma)
    {
        return std::exp(sigma * normal(0.0, 1.0) + mu);
    }

    /** Bernoulli draw. */
    bool
    bernoulli(double p)
    {
        return uniform() < p;
    }

    /**
     * T(p): how many 64-bit patterns b have canonical(b) < p. As b
     * grows canonical(b) never decreases, so bernoulli(p) is true
     * exactly when its raw draw is below T(p), which lets a caller
     * test the raw bits without converting them. 0 for p <= 0 or
     * NaN, 2^64 for p >= 1; otherwise found by binary search.
     */
    static DrawBound
    bernoulliBound(double p)
    {
        if (!(p > 0.0))
            return 0;
        std::uint64_t lo = 0, hi = ~std::uint64_t(0);
        if (canonical(hi) < p)
            return DrawBound(hi) + 1;
        // canonical(lo) < p <= canonical(hi): find the first b with
        // canonical(b) >= p.
        while (hi - lo > 1) {
            std::uint64_t mid = lo + (hi - lo) / 2;
            if (canonical(mid) < p)
                lo = mid;
            else
                hi = mid;
        }
        return hi;
    }

    /**
     * Derive an independent child stream. Splitting from a parent keeps
     * experiment-level determinism while decorrelating subsystems.
     *
     * NOTE: split() consumes one draw from the parent engine, so the
     * child's seed depends on how many draws preceded the split. That
     * is fine inside one strictly sequential simulation, but any code
     * whose draw order can vary (parallel fan-outs, optional model
     * features, fault/repair processes interleaving with load) must
     * use stream() instead, which hangs the child off the construction
     * seed plus an explicit identity and never touches the engine.
     */
    Rng
    split()
    {
        return Rng(engine() ^ 0x9E3779B97F4A7C15ULL);
    }

    /**
     * Derive an independent child stream from this Rng's construction
     * seed plus an identity (integers and/or strings), without
     * consuming parent state. Two streams with different identities
     * are decorrelated; the same identity always yields the same
     * stream no matter how many draws the parent has made. This is
     * the required derivation for logically concurrent processes
     * (per-component fault clocks, per-task sweeps).
     */
    template <typename... Parts>
    Rng
    stream(Parts &&...parts) const
    {
        return Rng(seedFor(seed_, std::forward<Parts>(parts)...));
    }

    /** The seed this Rng was constructed with. */
    std::uint64_t seed() const { return seed_; }

    /** Access the raw engine (for std:: distributions). */
    Mt19937_64 &raw() { return engine; }
    const Mt19937_64 &raw() const { return engine; }

  private:
    Mt19937_64 engine;
    std::uint64_t seed_;
};

/**
 * Counter-based splitmix64 generator for bulk uniform draws on
 * fast-mode paths (sim/fast_mode.hh): one add plus three shift-xor-
 * multiply rounds per draw, several times cheaper than the
 * MT19937-64-backed Rng, and statistically solid (it is the standard
 * mixer used to seed xoshiro-family generators). State is a single
 * 64-bit counter, so a stream derived from a seed is trivially
 * reproducible and never aliases a differently-seeded stream.
 *
 * Not a drop-in for Rng: uniforms land on the 53-bit grid via
 * multiplication, so draws are same-law but not bit-identical to
 * Rng::uniform. That is exactly the relaxation fast mode's
 * statistical-equivalence gate (stats/equivalence.hh) covers; exact
 * paths must keep using Rng.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : x(seed) {}

    std::uint64_t
    nextU64()
    {
        std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }

    /** Uniform double in [0, 1) on the 53-bit grid. */
    double
    uniform()
    {
        return double(nextU64() >> 11) * 0x1.0p-53;
    }

    /**
     * Uniform integer in [0, n), n >= 1, via Lemire's multiply-shift
     * reduction: one 64x64->128 multiply instead of the division (or
     * rejection loop) std::uniform_int_distribution performs. The
     * modulo bias is bounded by n / 2^64 -- immaterial against the
     * list sizes simulations index with -- which is the same
     * same-law-not-bit-identical trade the class contract states.
     */
    std::uint64_t
    pick(std::uint64_t n)
    {
        using u128 = unsigned __int128;
        return std::uint64_t((u128(nextU64()) * u128(n)) >> 64);
    }

    /** Exponentially distributed double with the given mean, by
     * inversion. log1p(-u) keeps precision for small draws and never
     * sees log(0) since uniform() < 1. */
    double
    exponential(double mean)
    {
        return -std::log1p(-uniform()) * mean;
    }

    /**
     * Exact Poisson(mean) draw. Small means use Knuth's product-of-
     * uniforms loop (O(mean) uniforms); large means use Hormann's PTRS
     * transformed-rejection sampler (O(1) expected uniforms, exact for
     * mean >= 10). Both are exact samplers — the macro-event fast path
     * (fast-mode/2) leans on this so window arrival *counts* follow
     * the pinned Poisson law with zero distributional error; only the
     * draw order relative to exact mode changes.
     */
    std::uint64_t
    poisson(double mean)
    {
        if (!(mean > 0.0))
            return 0;
        if (mean < 10.0) {
            double limit = std::exp(-mean);
            double prod = 1.0;
            std::uint64_t k = 0;
            for (;;) {
                prod *= uniform();
                if (prod <= limit)
                    return k;
                ++k;
            }
        }
        // PTRS (Hormann 1993): transformed rejection with squeeze.
        double b = 0.931 + 2.53 * std::sqrt(mean);
        double a = -0.059 + 0.02483 * b;
        double invAlpha = 1.1239 + 1.1328 / (b - 3.4);
        double vr = 0.9277 - 3.6224 / (b - 2.0);
        double logMean = std::log(mean);
        for (;;) {
            double u = uniform() - 0.5;
            double v = uniform();
            double us = 0.5 - std::abs(u);
            double kf = std::floor((2.0 * a / us + b) * u + mean + 0.43);
            if (us >= 0.07 && v <= vr)
                return std::uint64_t(kf);
            if (kf < 0.0 || (us < 0.013 && v > us))
                continue;
            if (std::log(v) + std::log(invAlpha) -
                    std::log(a / (us * us) + b) <=
                kf * logMean - mean - logGamma(kf + 1.0))
                return std::uint64_t(kf);
        }
    }

  private:
    /**
     * ln Γ(x) for x > 0. std::lgamma writes the process-global
     * `signgam`, a write-write data race when worker threads draw
     * Poisson counts concurrently; lgamma_r computes the identical
     * value into a local sign instead.
     */
    static double
    logGamma(double v)
    {
#if defined(__unix__) || defined(__APPLE__)
        int sign = 0;
        return ::lgamma_r(v, &sign);
#else
        return std::lgamma(v);
#endif
    }

    std::uint64_t x;
};

} // namespace wsc

#endif // WSC_UTIL_RANDOM_HH
