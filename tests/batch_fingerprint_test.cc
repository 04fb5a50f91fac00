#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fingerprint/batch.h"
#include "fingerprint/fingerprint.h"
#include "fingerprint/prime.h"
#include "parallel/seed_sequence.h"
#include "parallel/trial_runner.h"
#include "problems/generators.h"
#include "util/random.h"
#include "util/simd.h"

namespace rstlab::fingerprint {
namespace {

using simd::SimdLevel;

const SimdLevel kAllLevels[] = {SimdLevel::kScalar, SimdLevel::kLanes4,
                                SimdLevel::kLanes8};

/// Per-lane scalar reference: the engine at any level must reproduce
/// AcceptsWithParams' verdicts and (by exactness) its internal sums.
std::vector<std::uint8_t> ReferenceVerdicts(
    const problems::Instance& instance, const FingerprintParamBatch& batch) {
  std::vector<std::uint8_t> verdicts(batch.lanes());
  for (std::size_t lane = 0; lane < batch.lanes(); ++lane) {
    verdicts[lane] = AcceptsWithParams(instance, batch.Lane(lane)) ? 1 : 0;
  }
  return verdicts;
}

TEST(BatchEngineTest, MatchesScalarReferenceAtEveryLevelAndWidth) {
  Rng rng(0xBA7C);
  for (const std::size_t lanes : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 11u}) {
    for (int unequal = 0; unequal < 2; ++unequal) {
      const problems::Instance instance =
          unequal == 1 ? problems::PerturbedMultisets(6, 12, 1, rng)
                       : problems::EqualMultisets(6, 12, rng);
      Result<FingerprintParamBatch> batch =
          SampleFingerprintParamBatch(6, 12, lanes, rng);
      ASSERT_TRUE(batch.ok());
      const std::vector<std::uint8_t> expected =
          ReferenceVerdicts(instance, batch.value());
      BatchTally reference;
      bool have_reference = false;
      for (const SimdLevel level : kAllLevels) {
        const BatchFingerprintEngine engine(batch.value(), level);
        const BatchTally tally = engine.Evaluate(instance);
        ASSERT_EQ(tally.lane_accepted, expected)
            << "level=" << simd::SimdLevelName(level) << " lanes=" << lanes;
        if (!have_reference) {
          reference = tally;
          have_reference = true;
          continue;
        }
        // Bit-identical sums, not just verdicts.
        EXPECT_EQ(tally.sum_first, reference.sum_first)
            << simd::SimdLevelName(level);
        EXPECT_EQ(tally.sum_second, reference.sum_second)
            << simd::SimdLevelName(level);
      }
    }
  }
}

TEST(BatchEngineTest, EqualMultisetsAcceptedOnEveryLane) {
  Rng rng(0xACC);
  for (int round = 0; round < 20; ++round) {
    const problems::Instance instance = problems::EqualMultisets(8, 16, rng);
    Result<AmplifiedOutcome> outcome =
        TestMultisetEqualityAmplified(instance, 8, rng, SimdLevel::kLanes8);
    ASSERT_TRUE(outcome.ok());
    // One-sided error: every lane of an equal instance accepts.
    EXPECT_TRUE(outcome.value().accepted);
    for (const std::uint8_t lane : outcome.value().lane_accepted) {
      EXPECT_EQ(lane, 1);
    }
  }
}

TEST(BatchEngineTest, AmplificationShrinksFalsePositiveRate) {
  Rng rng(0xA3B);
  std::size_t single_fp = 0;
  std::size_t amplified_fp = 0;
  const std::size_t trials = 120;
  for (std::size_t t = 0; t < trials; ++t) {
    const problems::Instance instance =
        problems::PerturbedMultisets(4, 8, 1, rng);
    const FingerprintOutcome single = TestMultisetEquality(instance, rng);
    single_fp += single.accepted ? 1 : 0;
    Result<AmplifiedOutcome> amplified =
        TestMultisetEqualityAmplified(instance, 8, rng);
    ASSERT_TRUE(amplified.ok());
    amplified_fp += amplified.value().accepted ? 1 : 0;
  }
  // Eight independent lanes drive the false-positive rate from ~1/3
  // to ~(1/3)^8; with 120 trials the amplified count is essentially
  // always zero and certainly below the single-lane count.
  EXPECT_LE(amplified_fp, single_fp);
  EXPECT_LE(amplified_fp, 2u);
}

TEST(BatchEngineTest, WideModuliFallBackExactly) {
  // Force lanes whose moduli exceed the 32-bit Shoup domain: the
  // engine must take the exact scalar fallback inside the one-pass
  // schedule and still match the per-lane reference.
  Rng rng(0x81D);
  const problems::Instance instance = problems::EqualMultisets(4, 40, rng);
  FingerprintParamBatch batch;
  FingerprintParams wide;
  wide.k = 0;
  wide.p1 = (std::uint64_t{1} << 31) + 11;  // prime 2147483659
  wide.p2 = (std::uint64_t{1} << 31) + 11;
  wide.x = 123456789;
  batch.PushLane(wide);
  FingerprintParams narrow;
  narrow.k = 0;
  narrow.p1 = 97;
  narrow.p2 = 389;
  narrow.x = 42;
  batch.PushLane(narrow);
  const std::vector<std::uint8_t> expected =
      ReferenceVerdicts(instance, batch);
  for (const SimdLevel level : kAllLevels) {
    const BatchFingerprintEngine engine(batch, level);
    EXPECT_FALSE(engine.vectorized());  // out-of-domain moduli
    EXPECT_EQ(engine.Evaluate(instance).lane_accepted, expected)
        << simd::SimdLevelName(level);
  }

  // At the benchmark's shape (k ~ 9e13, so p1 has ~46 bits and x^e
  // spans 12 four-bit windows) the one-pass sums, not just verdicts,
  // equal the lane-major square-and-multiply path's on unequal lists.
  Result<FingerprintParamBatch> deep =
      SampleFingerprintParamBatch(4096, 32, 5, rng);
  ASSERT_TRUE(deep.ok());
  const problems::Instance unequal =
      problems::PerturbedMultisets(64, 32, 3, rng);
  const BatchTally reference =
      BatchFingerprintEngine(deep.value(), SimdLevel::kScalar)
          .Evaluate(unequal);
  for (const SimdLevel level : {SimdLevel::kLanes4, SimdLevel::kLanes8}) {
    const BatchTally tally =
        BatchFingerprintEngine(deep.value(), level).Evaluate(unequal);
    EXPECT_EQ(tally.sum_first, reference.sum_first)
        << simd::SimdLevelName(level);
    EXPECT_EQ(tally.sum_second, reference.sum_second)
        << simd::SimdLevelName(level);
  }
}

TEST(BatchEngineTest, BatchedClaim1IdenticalAcrossThreads) {
  Rng rng(0xC1A);
  const problems::Instance instance =
      problems::PerturbedMultisets(6, 10, 2, rng);
  parallel::TrialRunner one(1);
  parallel::TrialRunner many(4);
  const Claim1Estimate serial =
      EstimateClaim1CollisionRateBatched(instance, 64, 99, one, 8);
  const Claim1Estimate parallel_run =
      EstimateClaim1CollisionRateBatched(instance, 64, 99, many, 8);
  EXPECT_EQ(serial.trials, 64u);
  EXPECT_EQ(parallel_run.trials, 64u);
  EXPECT_EQ(serial.collisions, parallel_run.collisions);
}

/// The Claim 1 event by definition: some pair of unequal values with
/// equal residues.
bool PairwiseCollision(const problems::Instance& instance, std::uint64_t p) {
  for (const BitString& v : instance.first) {
    for (const BitString& w : instance.second) {
      if (v != w && v.ModUint64(p) == w.ModUint64(p)) return true;
    }
  }
  return false;
}

/// The batched tally recomputed from scratch: the same group layout and
/// prime draws, and the pairwise definition per prime.
std::uint64_t ReferenceBatchedCollisions(const problems::Instance& instance,
                                         std::uint64_t trials,
                                         std::uint64_t seed,
                                         std::uint64_t lanes) {
  const std::uint64_t k =
      ComputeFingerprintK(instance.m(), MaxValueBits(instance)).value();
  const parallel::SeedSequence seeds(seed);
  std::uint64_t collisions = 0;
  for (std::uint64_t first = 0; first < trials; first += lanes) {
    Rng rng = seeds.RngForTrial(first);
    for (std::uint64_t c = 0; c < std::min(lanes, trials - first); ++c) {
      const Result<std::uint64_t> p = RandomPrimeAtMost(k, rng);
      if (p.ok() && PairwiseCollision(instance, p.value())) ++collisions;
    }
  }
  return collisions;
}

TEST(BatchEngineTest, BatchedClaim1MatchesPairwiseReference) {
  Rng rng(0xC1B);
  std::vector<problems::Instance> instances;
  // Values of 65-130 bits: residues span two or three words.
  instances.push_back(problems::PerturbedMultisets(5, 130, 2, rng));
  // Small k (m = 3, n = 4): collisions on most primes.
  instances.push_back(problems::PerturbedMultisets(3, 4, 1, rng));
  // Equal numbers at different lengths are different values.
  problems::Instance mixed;
  for (int i = 0; i < 4; ++i) {
    const BitString v = BitString::Random(3, rng);
    mixed.first.push_back(v);
    mixed.second.push_back(BitString::FromString("00" + v.ToString()));
  }
  instances.push_back(mixed);
  parallel::TrialRunner runner(3);
  std::uint64_t small_k_collisions = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    for (const std::uint64_t lanes : {1u, 5u, 8u}) {
      const Claim1Estimate estimate = EstimateClaim1CollisionRateBatched(
          instances[i], 60, /*seed=*/500 + i, runner, lanes);
      const std::uint64_t expected =
          ReferenceBatchedCollisions(instances[i], 60, 500 + i, lanes);
      EXPECT_EQ(estimate.collisions, expected)
          << "instance " << i << " lanes " << lanes;
      if (i == 1) small_k_collisions += expected;
    }
  }
  // The small-k instance must actually exercise collisions.
  EXPECT_GT(small_k_collisions, 0u);
}

TEST(BatchEngineTest, RunSeededBatchesIsThreadCountInvariant) {
  struct SumTally {
    std::uint64_t sum = 0;
    void Merge(const SumTally& other) { sum += other.sum; }
  };
  const parallel::SeedSequence seeds(1234);
  const auto body = [](std::uint64_t first, std::uint64_t count, Rng& rng,
                       SumTally& tally) {
    for (std::uint64_t c = 0; c < count; ++c) {
      tally.sum += rng.UniformInRange(0, 1000) * (first + c + 1);
    }
  };
  parallel::TrialRunner one(1);
  parallel::TrialRunner many(7);
  for (const std::uint64_t trials : {0ull, 1ull, 7ull, 8ull, 100ull}) {
    const SumTally a = one.RunSeededBatches<SumTally>(trials, 8, seeds, body);
    const SumTally b = many.RunSeededBatches<SumTally>(trials, 8, seeds, body);
    EXPECT_EQ(a.sum, b.sum) << trials;
  }
}

TEST(BatchEngineTest, EmptyBatchAndEmptyInstance) {
  Rng rng(7);
  const problems::Instance empty_instance;
  Result<FingerprintParamBatch> batch =
      SampleFingerprintParamBatch(3, 5, 4, rng);
  ASSERT_TRUE(batch.ok());
  for (const SimdLevel level : kAllLevels) {
    const BatchFingerprintEngine engine(batch.value(), level);
    // Zero values on both sides: both sums are 0 on every lane.
    const BatchTally tally = engine.Evaluate(empty_instance);
    EXPECT_TRUE(tally.all_accepted());
    const BatchFingerprintEngine none(FingerprintParamBatch{}, level);
    EXPECT_EQ(none.Evaluate(empty_instance).lane_accepted.size(), 0u);
  }
}

}  // namespace
}  // namespace rstlab::fingerprint
