#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "extmem/counting_storage.h"
#include "extmem/storage.h"
#include "fingerprint/collision.h"
#include "fingerprint/fingerprint.h"
#include "fingerprint/montgomery.h"
#include "fingerprint/prime.h"
#include "fingerprint/prime_pool.h"
#include "obs/ring_sink.h"
#include "obs/trace.h"
#include "parallel/trial_runner.h"
#include "problems/generators.h"
#include "problems/reference.h"
#include "stmodel/internal_arena.h"
#include "stmodel/st_context.h"
#include "tape/tape.h"
#include "util/random.h"

namespace rstlab::fingerprint {
namespace {

// ---------------------------------------------------------------------
// Modular arithmetic and primes
// ---------------------------------------------------------------------

TEST(PrimeTest, MulModLargeOperands) {
  const std::uint64_t p = 0xffffffffffffffc5ULL;  // largest 64-bit prime
  EXPECT_EQ(MulMod(p - 1, p - 1, p), 1u);
  EXPECT_EQ(MulMod(123456789, 987654321, 1000000007),
            (123456789ULL * 987654321ULL) % 1000000007ULL);
}

TEST(PrimeTest, PowModKnownValues) {
  EXPECT_EQ(PowMod(2, 10, 1000000007), 1024u);
  EXPECT_EQ(PowMod(5, 0, 7), 1u);
  EXPECT_EQ(PowMod(7, 1, 7), 0u);
  // Fermat: a^(p-1) = 1 mod p.
  EXPECT_EQ(PowMod(3, 1000000006, 1000000007), 1u);
  EXPECT_EQ(PowMod(2, 100, 1), 0u);
}

TEST(PrimeTest, IsPrimeMatchesTrialDivisionBelow10000) {
  auto trial = [](std::uint64_t n) {
    if (n < 2) return false;
    for (std::uint64_t d = 2; d * d <= n; ++d) {
      if (n % d == 0) return false;
    }
    return true;
  };
  for (std::uint64_t n = 0; n < 10000; ++n) {
    ASSERT_EQ(IsPrime(n), trial(n)) << n;
  }
}

TEST(PrimeTest, IsPrimeLargeKnownValues) {
  EXPECT_TRUE(IsPrime(1000000007ULL));
  EXPECT_TRUE(IsPrime(0xffffffffffffffc5ULL));
  EXPECT_FALSE(IsPrime(1000000007ULL * 3));
  // Carmichael numbers are composite.
  EXPECT_FALSE(IsPrime(561));
  EXPECT_FALSE(IsPrime(41041));
}

TEST(PrimeTest, IsPrimeMatchesTheSieveBelowOneMillion) {
  // The {2, 7, 61} witness set below 4,759,123,141 against an
  // independent enumeration; the range holds the strong pseudoprimes
  // to base 2 (2047, 3277, 4033, ...) and to bases 2 and 7.
  const PrimePool pool(1000000);
  std::vector<bool> sieved(1000001, false);
  for (const std::uint64_t p : pool.primes()) sieved[p] = true;
  for (std::uint64_t n = 0; n <= 1000000; ++n) {
    ASSERT_EQ(IsPrime(n), sieved[n]) << n;
  }
}

TEST(PrimeTest, IsPrimeWitnessSetBoundaries) {
  // A base equal to n is skipped, not taken as a witness.
  EXPECT_TRUE(IsPrime(61));
  // Strong pseudoprime to bases 2, 3, 5 and 7; base 61 exposes it.
  EXPECT_FALSE(IsPrime(3215031751ULL));
  // The smallest strong pseudoprime to 2, 7 and 61 (48781 * 97561):
  // the first n that needs the 12-base set.
  EXPECT_FALSE(IsPrime(4759123141ULL));
  EXPECT_TRUE(IsPrime(4294967291ULL));   // largest prime < 2^32
  EXPECT_TRUE(IsPrime(4759123129ULL));   // largest prime < 4759123141
  EXPECT_TRUE(IsPrime(4759123151ULL));   // smallest prime > 4759123141
}

TEST(PrimeTest, RandomPrimeAtMostIsPrimeAndBounded) {
  Rng rng(5);
  for (std::uint64_t k : {2ULL, 10ULL, 1000ULL, 1000000ULL}) {
    for (int i = 0; i < 20; ++i) {
      Result<std::uint64_t> p = RandomPrimeAtMost(k, rng);
      ASSERT_TRUE(p.ok());
      EXPECT_LE(p.value(), k);
      EXPECT_TRUE(IsPrime(p.value()));
    }
  }
  EXPECT_FALSE(RandomPrimeAtMost(1, rng).ok());
}

TEST(PrimeTest, RandomPrimeIsRoughlyUniform) {
  // Sanity: both halves of [2, k] are hit.
  Rng rng(6);
  const std::uint64_t k = 10000;
  int low = 0;
  int high = 0;
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t p = RandomPrimeAtMost(k, rng).value();
    (p <= k / 2 ? low : high)++;
  }
  EXPECT_GT(low, 50);
  EXPECT_GT(high, 50);
}

TEST(PrimeTest, BertrandIntervalPrime) {
  for (std::uint64_t k : {1ULL, 2ULL, 7ULL, 100ULL, 12345ULL, 1000000ULL}) {
    Result<std::uint64_t> p = PrimeInBertrandInterval(k);
    ASSERT_TRUE(p.ok());
    EXPECT_GT(p.value(), 3 * k);
    EXPECT_LE(p.value(), 6 * k);
    EXPECT_TRUE(IsPrime(p.value()));
  }
  EXPECT_FALSE(PrimeInBertrandInterval(~std::uint64_t{0} / 2).ok());
}

TEST(PrimeTest, CountPrimesUpTo) {
  EXPECT_EQ(CountPrimesUpTo(10), 4u);
  EXPECT_EQ(CountPrimesUpTo(100), 25u);
  EXPECT_EQ(CountPrimesUpTo(1), 0u);
}

// ---------------------------------------------------------------------
// Montgomery arithmetic, held against the __int128 MulMod/PowMod of
// prime.h, which share no code with it
// ---------------------------------------------------------------------

/// The largest 64-bit prime, 2^64 - 59.
constexpr std::uint64_t kTopPrime = 0xffffffffffffffc5ULL;

/// Operands at the edges of the 64-bit and modular ranges.
std::vector<std::uint64_t> EdgeOperands(std::uint64_t m) {
  return {0, 1, 2, m - 2, m - 1, m, m + 1, 2 * m - 1, ~std::uint64_t{0},
          ~std::uint64_t{0} - 1, std::uint64_t{1} << 63};
}

TEST(MontgomeryTest, MatchesInt128AtBoundaryModuli) {
  const std::uint64_t two31 = std::uint64_t{1} << 31;
  const std::uint64_t two62 = std::uint64_t{1} << 62;
  const std::uint64_t two63 = std::uint64_t{1} << 63;
  const std::uint64_t moduli[] = {
      3,          5,          7,          two31 - 1,  two31 + 1,
      two31 + 11, two31 - 19, two62 - 57, two62 - 1,  two62 + 1,
      two62 + 3,  two63 - 25, two63 - 1,  two63 + 1,  kTopPrime,
      ~std::uint64_t{0}};
  Rng rng(0x3047);
  for (const std::uint64_t m : moduli) {
    const Montgomery mont(m);
    ASSERT_EQ(mont.modulus(), m);
    std::vector<std::uint64_t> operands = EdgeOperands(m);
    for (int i = 0; i < 16; ++i) operands.push_back(rng.Next64());
    for (const std::uint64_t a : operands) {
      for (const std::uint64_t b : operands) {
        ASSERT_EQ(mont.MulMod(a, b), MulMod(a, b, m))
            << "a=" << a << " b=" << b << " m=" << m;
      }
      ASSERT_EQ(mont.Reduce(mont.ToMont(a)), a % m) << "a=" << a;
    }
    for (const std::uint64_t e :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2}, m - 1, m,
          ~std::uint64_t{0}, rng.Next64() >> 17}) {
      for (const std::uint64_t base : operands) {
        ASSERT_EQ(mont.PowMod(base, e), PowMod(base, e, m))
            << "base=" << base << " e=" << e << " m=" << m;
      }
    }
  }
}

TEST(MontgomeryTest, MatchesInt128OverRandomOddModuli) {
  Rng rng(0xBA77);
  for (int i = 0; i < 5000; ++i) {
    // Any odd modulus >= 3, a third of them below 2^32; operands
    // arbitrary 64-bit.
    std::uint64_t m = rng.Next64() >> (i % 3 == 0 ? 32 : 0);
    m = std::max<std::uint64_t>(3, m | 1);
    const Montgomery mont(m);
    const std::uint64_t a = rng.Next64();
    const std::uint64_t b = rng.Next64();
    ASSERT_EQ(mont.MulMod(a, b), MulMod(a, b, m))
        << "a=" << a << " b=" << b << " m=" << m;
    // A 47-bit exponent, the shape of the tape tester's x^e mod p2.
    const std::uint64_t e = rng.Next64() >> 17;
    ASSERT_EQ(mont.PowMod(a, e), PowMod(a, e, m))
        << "a=" << a << " e=" << e << " m=" << m;
  }
}

TEST(MontgomeryTest, MontgomeryFormRowsGiveNormalFormProducts) {
  // The batch engine's wide path keeps x^(2^j) rows as ToMont(row) and
  // multiplies a normal-form power by them; Reduce of a raw word labels
  // its residue class (the Claim 1 estimator's key).
  Rng rng(0xBA78);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t m =
        std::max<std::uint64_t>(3, (rng.Next64() >> 2) | 1);
    const Montgomery mont(m);
    const std::uint64_t power = rng.Next64() % m;
    const std::uint64_t row = rng.Next64();
    ASSERT_EQ(mont.Mul(power, mont.ToMont(row)), MulMod(power, row, m))
        << "power=" << power << " row=" << row << " m=" << m;
    const std::uint64_t w = rng.Next64();
    const std::uint64_t same_class = w % m + (rng.Next64() % 4) * m;
    ASSERT_EQ(mont.Reduce(w), mont.Reduce(same_class)) << "m=" << m;
    ASSERT_LT(mont.Reduce(w), m);
    if (w % m != (w + 1) % m) {
      ASSERT_NE(mont.Reduce(w), mont.Reduce(w + 1)) << "m=" << m;
    }
  }
}

TEST(MontgomeryTest, SmallestModuliExhaustive) {
  // m = 3 and 5: every residue class is reachable; sweep a dense small
  // range and products around the 64-bit extremes.
  for (const std::uint64_t m : {std::uint64_t{3}, std::uint64_t{5}}) {
    const Montgomery mont(m);
    for (std::uint64_t a = 0; a < 64; ++a) {
      for (std::uint64_t b = 0; b < 64; ++b) {
        ASSERT_EQ(mont.MulMod(a, b), (a * b) % m);
      }
      ASSERT_EQ(mont.PowMod(a, a), PowMod(a, a, m));
    }
    const std::uint64_t top = ~std::uint64_t{0};
    for (std::uint64_t a = top - 8; a != 0; ++a) {
      EXPECT_EQ(mont.MulMod(a, top), MulMod(a, top, m));
    }
    EXPECT_EQ(mont.PowMod(2, 64), PowMod(2, 64, m));
  }
}

TEST(MontgomeryDeathTest, RejectsEvenAndTinyModuliInEveryBuildMode) {
  // The precondition (odd, >= 3) is enforced with an abort even in
  // release builds: an even modulus has no inverse mod 2^64 and would
  // corrupt every product silently.
  EXPECT_DEATH(Montgomery(0), "odd");
  EXPECT_DEATH(Montgomery(1), "odd");
  EXPECT_DEATH(Montgomery(2), "odd");
  EXPECT_DEATH(Montgomery(1024), "odd");
  EXPECT_DEATH(Montgomery(std::uint64_t{1} << 63), "odd");
  EXPECT_DEATH(Montgomery(~std::uint64_t{0} - 1), "odd");
}

// ---------------------------------------------------------------------
// PrimePool
// ---------------------------------------------------------------------

TEST(PrimePoolTest, SieveMatchesMillerRabin) {
  const PrimePool pool(1000);
  ASSERT_TRUE(pool.sieved());
  EXPECT_EQ(pool.Count(), CountPrimesUpTo(1000));
  std::size_t index = 0;
  for (std::uint64_t p = 2; p <= 1000; ++p) {
    if (!IsPrime(p)) continue;
    ASSERT_LT(index, pool.primes().size());
    EXPECT_EQ(pool.primes()[index], p);
    ++index;
  }
}

TEST(PrimePoolTest, StaysEmptyAboveSieveLimit) {
  // A pool whose k exceeds the sieve limit allocates no sieve.
  const PrimePool pool(1 << 20, /*sieve_limit=*/1 << 10);
  EXPECT_EQ(pool.k(), std::uint64_t{1} << 20);
  EXPECT_FALSE(pool.sieved());
  EXPECT_TRUE(pool.primes().empty());
  EXPECT_EQ(pool.Count(), 0u);
}

// ---------------------------------------------------------------------
// Fingerprinting (Theorem 8(a))
// ---------------------------------------------------------------------

TEST(FingerprintTest, ParamsSatisfyPaperConstraints) {
  Rng rng(7);
  Result<FingerprintParams> params = SampleFingerprintParams(64, 32, rng);
  ASSERT_TRUE(params.ok());
  const FingerprintParams& p = params.value();
  EXPECT_LE(p.p1, p.k);
  EXPECT_TRUE(IsPrime(p.p1));
  EXPECT_GT(p.p2, 3 * p.k);
  EXPECT_LE(p.p2, 6 * p.k);
  EXPECT_GE(p.x, 1u);
  EXPECT_LT(p.x, p.p2);
}

TEST(FingerprintTest, OverflowGuard) {
  Rng rng(8);
  // m^3 * n around 2^63 must be rejected, not wrapped.
  EXPECT_FALSE(SampleFingerprintParams(1 << 21, 1 << 10, rng).ok());
}

TEST(FingerprintTest, SampledXReachesEveryValueInDomain) {
  // ExactAcceptProbability enumerates x over {1..p2-1}; the sampler
  // must cover the same domain or sampled and exact acceptance
  // probabilities disagree. Rng::UniformInRange is inclusive on both
  // ends, so UniformInRange(1, p2 - 1) is exactly that set — pin it.
  // m = n = 1 gives k = 2 and p2 = 7, small enough that 512 draws hit
  // all six values with probability 1 - ~6e-36.
  Rng rng(41);
  std::set<std::uint64_t> seen;
  std::uint64_t p2 = 0;
  for (int draw = 0; draw < 512; ++draw) {
    Result<FingerprintParams> params = SampleFingerprintParams(1, 1, rng);
    ASSERT_TRUE(params.ok());
    p2 = params.value().p2;
    ASSERT_GE(params.value().x, 1u);
    ASSERT_LT(params.value().x, p2);
    seen.insert(params.value().x);
  }
  EXPECT_EQ(p2, 7u);  // k = 2 -> smallest Bertrand prime in (6, 12]
  EXPECT_EQ(seen.size(), p2 - 1);  // every value in {1..p2-1} reached
}

// Completeness (no false negatives): equal multisets are ALWAYS
// accepted, for every parameter draw.
class FingerprintCompletenessTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FingerprintCompletenessTest, EqualMultisetsAlwaysAccepted) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    problems::Instance inst = problems::EqualMultisets(16, 24, rng);
    FingerprintOutcome outcome = TestMultisetEquality(inst, rng);
    EXPECT_TRUE(outcome.accepted);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FingerprintCompletenessTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// Soundness: unequal multisets are accepted with probability well below
// 1/2 (the paper's bound is 1/3 + O(1/m); measured rates are far
// smaller).
TEST(FingerprintTest, UnequalMultisetsRarelyAccepted) {
  Rng rng(11);
  int false_accepts = 0;
  const int trials = 400;
  for (int trial = 0; trial < trials; ++trial) {
    problems::Instance inst = problems::PerturbedMultisets(16, 24, 1, rng);
    false_accepts += TestMultisetEquality(inst, rng).accepted;
  }
  EXPECT_LE(false_accepts, trials / 2);  // the Theorem 8(a) guarantee
  EXPECT_LE(false_accepts, trials / 10);  // and in practice much better
}

TEST(FingerprintTest, DetectsMultiplicityChanges) {
  // Multiset {a, a, b} vs {a, b, b}: set-equal but multiset-different.
  Rng rng(13);
  problems::Instance inst;
  const BitString a = BitString::Random(24, rng);
  const BitString b = BitString::Random(24, rng);
  inst.first = {a, a, b};
  inst.second = {a, b, b};
  int accepts = 0;
  for (int trial = 0; trial < 100; ++trial) {
    accepts += TestMultisetEquality(inst, rng).accepted;
  }
  EXPECT_LE(accepts, 50);
}

TEST(FingerprintTest, AcceptsEmptyInstance) {
  Rng rng(17);
  problems::Instance inst;
  EXPECT_TRUE(TestMultisetEquality(inst, rng).accepted);
}

TEST(FingerprintTest, OrderInsensitive) {
  Rng rng(19);
  problems::Instance inst = problems::EqualMultisets(32, 16, rng);
  // AcceptsWithParams must agree for any fixed params regardless of
  // order (the fingerprint is a multiset invariant).
  Result<FingerprintParams> params = SampleFingerprintParams(32, 16, rng);
  ASSERT_TRUE(params.ok());
  EXPECT_TRUE(AcceptsWithParams(inst, params.value()));
  rng.Shuffle(inst.second);
  EXPECT_TRUE(AcceptsWithParams(inst, params.value()));
}


// ---------------------------------------------------------------------
// Exact error probabilities (full enumeration of the random choices)
// ---------------------------------------------------------------------

TEST(ExactProbabilityTest, EqualMultisetsHaveProbabilityOne) {
  problems::Instance inst;
  inst.first = {BitString::FromString("01"), BitString::FromString("10")};
  inst.second = {BitString::FromString("10"),
                 BitString::FromString("01")};
  Result<double> p = ExactAcceptProbability(inst);
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_DOUBLE_EQ(p.value(), 1.0);
}

TEST(ExactProbabilityTest, UnequalMultisetsBelowPaperBound) {
  // Exhaust all m = 2, n = 2 unequal instances and verify the exact
  // false-positive probability never reaches the paper's 1/2 bound.
  double worst = 0.0;
  for (std::uint64_t code = 0; code < 256; ++code) {
    problems::Instance inst;
    inst.first = {BitString::FromUint64((code >> 0) & 3, 2),
                  BitString::FromUint64((code >> 2) & 3, 2)};
    inst.second = {BitString::FromUint64((code >> 4) & 3, 2),
                   BitString::FromUint64((code >> 6) & 3, 2)};
    if (problems::RefMultisetEquality(inst)) continue;
    Result<double> p = ExactAcceptProbability(inst);
    ASSERT_TRUE(p.ok()) << p.status();
    worst = std::max(worst, p.value());
  }
  EXPECT_LT(worst, 0.5);
  // At these tiny parameters the exact worst case is far below the
  // bound (the polynomial test leaves little room with p2 >> degree).
  EXPECT_LT(worst, 0.1);
}

TEST(ExactProbabilityTest, RejectsLargeParameters) {
  Rng rng(1);
  problems::Instance inst = problems::EqualMultisets(64, 32, rng);
  EXPECT_FALSE(ExactAcceptProbability(inst, 5000).ok());
}

// ---------------------------------------------------------------------
// Tape-level implementation: the co-RST(2, O(log N), 1) profile
// ---------------------------------------------------------------------

class FingerprintTapeTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FingerprintTapeTest, MatchesHostSemanticsAndBudget) {
  Rng rng(GetParam());
  for (bool equal : {true, false}) {
    problems::Instance inst =
        equal ? problems::EqualMultisets(8, 16, rng)
              : problems::PerturbedMultisets(8, 16, 1, rng);
    stmodel::StContext ctx(1);
    ctx.LoadInput(inst.Encode());
    Rng run_rng(GetParam() * 1000 + equal);
    Result<FingerprintOutcome> outcome =
        TestMultisetEqualityOnTapes(ctx, run_rng);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    if (equal) {
      EXPECT_TRUE(outcome.value().accepted);  // no false negatives, ever
    }
    // Exactly 2 scans (1 reversal), never writing external memory.
    tape::ResourceReport report = ctx.Report();
    EXPECT_EQ(report.scan_bound, 2u);
    EXPECT_EQ(report.num_external_tapes, 1u);
    // O(log N) internal bits: generous constant.
    EXPECT_LE(report.internal_space,
              64 * stmodel::BitsFor(ctx.input_size()));

    // The tape decision must replay exactly on the host with the same
    // parameters.
    EXPECT_EQ(outcome.value().accepted,
              AcceptsWithParams(inst, outcome.value().params));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FingerprintTapeTest,
                         ::testing::Values(3, 6, 9, 12, 15));

TEST(FingerprintTapeTest, RejectsMalformedInput) {
  stmodel::StContext ctx(1);
  Rng rng(1);
  ctx.LoadInput("01#2#");
  EXPECT_FALSE(TestMultisetEqualityOnTapes(ctx, rng).ok());
  ctx.LoadInput("01#1");
  EXPECT_FALSE(TestMultisetEqualityOnTapes(ctx, rng).ok());
  ctx.LoadInput("01#1#0#");
  EXPECT_FALSE(TestMultisetEqualityOnTapes(ctx, rng).ok());
}

TEST(FingerprintTapeTest, MalformedInputsGetNamedStatuses) {
  stmodel::StContext ctx(1);
  Rng rng(1);
  const auto message = [&ctx, &rng](const std::string& input) {
    ctx.LoadInput(input);
    const Result<FingerprintOutcome> outcome =
        TestMultisetEqualityOnTapes(ctx, rng);
    return outcome.ok() ? std::string("ok") : outcome.status().message();
  };
  // Each malformed edge maps to a distinct named InvalidArgument, so a
  // caller (and the conform differential suite) can pin which scan-1
  // precondition failed instead of getting a misaligned scan 2.
  EXPECT_EQ(message(""), "empty input tape");
  EXPECT_EQ(message("#"), "odd field count: instance must have 2m fields");
  EXPECT_EQ(message("0#1#0#"),
            "odd field count: instance must have 2m fields");
  EXPECT_EQ(message("01#1"),
            "unterminated field: instance must end with '#'");
  EXPECT_EQ(message("01#2#"), "non-binary character in field");
  EXPECT_EQ(message("01#_#"), "blank cell inside input");
  // Trailing blanks after the final separator are inside the declared
  // input region, so they are malformed too (the head must cross them).
  EXPECT_EQ(message("0#0#__"), "blank cell inside input");
  // The well-formed empty-value instance "##" stays accepted.
  EXPECT_EQ(message("##"), "ok");
}

using extmem::CountingStorage;

TEST(FingerprintTapeTest, ReadsEachCellExactlyOncePerScan) {
  Rng rng(17);
  problems::Instance inst = problems::EqualMultisets(4, 8, rng);
  const std::string encoded = inst.Encode();
  const std::uint64_t n = encoded.size();

  stmodel::StContext ctx(1);
  ctx.LoadInput(encoded);
  auto storage = std::make_unique<CountingStorage>(encoded);
  CountingStorage* counter = storage.get();
  ctx.tape(0) = tape::Tape(std::move(storage));

  Rng run_rng(18);
  ASSERT_TRUE(TestMultisetEqualityOnTapes(ctx, run_rng).ok());
  // Scan 1 reads each of the N cells once plus the terminating blank
  // probe; scan 2 reads each cell once on the way back. Reading any
  // cell more often would misreport the model's per-scan cost in the
  // obs trace and the extmem cache statistics.
  EXPECT_EQ(counter->reads, 2 * n + 1);
  EXPECT_EQ(counter->writes, 0u);
}

TEST(FingerprintTapeTest, ObsEventStreamPinsScanEnvelope) {
  Rng rng(21);
  problems::Instance inst = problems::EqualMultisets(3, 6, rng);
  const std::string encoded = inst.Encode();
  const std::uint64_t n = encoded.size();

  stmodel::StContext ctx(1);
  ctx.LoadInput(encoded);
  obs::RingSink ring;
  ctx.AttachTrace(&ring);
  Rng run_rng(22);
  ASSERT_TRUE(TestMultisetEqualityOnTapes(ctx, run_rng).ok());
  ctx.FlushTrace();

  std::size_t reversal_count = 0;
  std::vector<obs::TraceEvent> scan_ends;
  for (const obs::TraceEvent& event : ring.Snapshot()) {
    if (event.kind == obs::EventKind::kReversal) ++reversal_count;
    if (event.kind == obs::EventKind::kScanEnd) scan_ends.push_back(event);
  }
  // The read-once scan preserves the certified two-scan envelope:
  // segment 0 covers [0, n] forward, segment 1 covers it backward.
  EXPECT_EQ(reversal_count, 1u);
  ASSERT_EQ(scan_ends.size(), 2u);
  EXPECT_EQ(scan_ends[0].lo, 0u);
  EXPECT_EQ(scan_ends[0].hi, n);
  EXPECT_EQ(scan_ends[1].lo, 0u);
  EXPECT_EQ(scan_ends[1].hi, n);
}

// ---------------------------------------------------------------------
// Claim 1
// ---------------------------------------------------------------------

TEST(Claim1Test, CollisionRateSmall) {
  Rng rng(23);
  problems::Instance inst = problems::PerturbedMultisets(16, 24, 4, rng);
  const double rate = EstimateClaim1CollisionRate(inst, 100, rng);
  // Claim 1: O(1/m); with m = 16 and the large k, collisions are rare.
  EXPECT_LE(rate, 0.25);
}

/// The Claim 1 event by definition: some pair of unequal values with
/// equal residues.
bool BruteForceCollision(const problems::Instance& inst, std::uint64_t p) {
  for (const BitString& v : inst.first) {
    for (const BitString& w : inst.second) {
      if (v != w && v.ModUint64(p) == w.ModUint64(p)) return true;
    }
  }
  return false;
}

/// A short random value, or the same value behind enough leading zeros
/// to need two or three 64-bit words: equal numbers, different values.
BitString MixedLengthValue(Rng& rng) {
  const BitString short_value =
      BitString::Random(1 + static_cast<std::size_t>(rng.UniformBelow(5)),
                        rng);
  switch (rng.UniformBelow(4)) {
    case 0:
      return BitString::FromString(std::string(66, '0') +
                                   short_value.ToString());
    case 1:
      return BitString::FromString("0" + short_value.ToString());
    default:
      return short_value;
  }
}

TEST(Claim1Test, CollisionTableMatchesPairwiseDefinition) {
  // Tiny primes force shared residues; duplicate values and equal
  // numbers written at different lengths ("1", "01", 66 zeros then "1")
  // must count exactly as the pairwise definition says. One scratch is
  // reused across instances of changing sizes.
  Rng rng(41);
  Claim1Collisions::Scratch scratch;
  for (int round = 0; round < 300; ++round) {
    problems::Instance inst;
    const std::size_t m1 = rng.UniformBelow(7);
    const std::size_t m2 = rng.UniformBelow(7);
    for (std::size_t i = 0; i < m1; ++i) {
      inst.first.push_back(MixedLengthValue(rng));
    }
    for (std::size_t j = 0; j < m2; ++j) {
      inst.second.push_back(j > 0 && rng.UniformBelow(3) == 0
                                ? inst.second[j - 1]
                                : MixedLengthValue(rng));
    }
    const Claim1Collisions claim1(inst);
    for (const std::uint64_t p : {2u, 3u, 5u, 7u, 17u, 1000003u}) {
      EXPECT_EQ(claim1.HasCollision(p, scratch), BruteForceCollision(inst, p))
          << "round=" << round << " p=" << p;
    }
  }
}

TEST(Claim1Test, EqualNumbersOfDifferentLengthsCollide) {
  // "01" and "1" are different values with equal residues for every p:
  // the Claim 1 event happens, whatever the prime.
  problems::Instance inst;
  inst.first = {BitString::FromString("01")};
  inst.second = {BitString::FromString("1")};
  const Claim1Collisions claim1(inst);
  EXPECT_EQ(claim1.distinct(), 2u);
  Claim1Collisions::Scratch scratch;
  for (const std::uint64_t p : {2u, 3u, 1000003u}) {
    EXPECT_TRUE(claim1.HasCollision(p, scratch)) << p;
  }
  inst.second = {BitString::FromString("01")};
  const Claim1Collisions same(inst);
  EXPECT_EQ(same.distinct(), 1u);
  EXPECT_FALSE(same.HasCollision(3, scratch));
}

TEST(Claim1Test, ZeroTrialsIsZero) {
  Rng rng(29);
  problems::Instance inst = problems::EqualMultisets(4, 8, rng);
  EXPECT_EQ(EstimateClaim1CollisionRate(inst, 0, rng), 0.0);
}

// ---------------------------------------------------------------------
// Parallel trial-engine paths
// ---------------------------------------------------------------------

TEST(ParallelFingerprintTest, ExactProbabilityMatchesSerial) {
  Rng rng(31);
  for (int i = 0; i < 8; ++i) {
    problems::Instance inst;
    inst.first = {BitString::Random(3, rng), BitString::Random(3, rng)};
    inst.second = {BitString::Random(3, rng), BitString::Random(3, rng)};
    const Result<double> serial = ExactAcceptProbability(inst);
    for (std::size_t threads : {1u, 4u}) {
      parallel::TrialRunner runner(threads);
      const Result<double> par = ExactAcceptProbability(inst, runner);
      ASSERT_EQ(serial.ok(), par.ok());
      if (serial.ok()) {
        // Integer accept counts over an identical enumeration: the
        // quotients must match exactly, not approximately.
        EXPECT_EQ(serial.value(), par.value());
      }
    }
  }
}

TEST(ParallelFingerprintTest, Claim1TalliesIdenticalAcrossThreadCounts) {
  Rng rng(37);
  problems::Instance inst = problems::PerturbedMultisets(8, 24, 4, rng);
  parallel::TrialRunner one(1);
  const Claim1Estimate reference =
      EstimateClaim1CollisionRate(inst, 300, /*seed=*/123, one);
  EXPECT_EQ(reference.trials, 300u);
  for (std::size_t threads : {2u, 4u, 7u}) {
    parallel::TrialRunner runner(threads);
    const Claim1Estimate estimate =
        EstimateClaim1CollisionRate(inst, 300, /*seed=*/123, runner);
    EXPECT_EQ(estimate.trials, reference.trials);
    EXPECT_EQ(estimate.collisions, reference.collisions);
  }
  // A different seed draws different primes (sanity that the seed is
  // actually load-bearing, over enough trials to see a difference in
  // the sampled prime multiset — collision counts may still agree).
  const Claim1Estimate other =
      EstimateClaim1CollisionRate(inst, 300, /*seed=*/124, one);
  EXPECT_EQ(other.trials, 300u);
}

}  // namespace
}  // namespace rstlab::fingerprint
