#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/bitstring.h"
#include "util/parse.h"
#include "util/random.h"
#include "util/status.h"

namespace rstlab {
namespace {

// ---------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("bad m");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad m");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad m");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument,
        StatusCode::kOutOfRange, StatusCode::kResourceExhausted,
        StatusCode::kFailedPrecondition, StatusCode::kNotFound,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, ValueRoundtrip) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, ErrorPropagates) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

Status FailsThenPropagates() {
  RSTLAB_RETURN_IF_ERROR(Status::Internal("inner"));
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorMacro) {
  Status s = FailsThenPropagates();
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------
// ParseUnsigned
// ---------------------------------------------------------------------

TEST(ParseUnsignedTest, AcceptsDecimalsInRange) {
  EXPECT_EQ(ParseUnsigned("0", 0, 10).value(), 0u);
  EXPECT_EQ(ParseUnsigned("10", 0, 10).value(), 10u);
  EXPECT_EQ(ParseUnsigned("007", 1, 10).value(), 7u);
  EXPECT_EQ(ParseUnsigned("18446744073709551615", 0, UINT64_MAX).value(),
            UINT64_MAX);
}

TEST(ParseUnsignedTest, RejectsSignsAndJunk) {
  for (const char* text : {"", "-1", "+1", " 1", "1 ", "12abc", "0x10",
                           "1.5", "abc"}) {
    const Result<std::uint64_t> parsed = ParseUnsigned(text, 0, 100);
    EXPECT_FALSE(parsed.ok()) << "'" << text << "'";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ParseUnsignedTest, RejectsOutOfRangeAndOverflow) {
  EXPECT_FALSE(ParseUnsigned("1", 2, 8).ok());
  EXPECT_FALSE(ParseUnsigned("9", 2, 8).ok());
  EXPECT_FALSE(ParseUnsigned("9", 0, 5).ok());
  EXPECT_FALSE(ParseUnsigned("18446744073709551616", 0, UINT64_MAX).ok());
  EXPECT_FALSE(ParseUnsigned("99999999999999999999999", 0, UINT64_MAX).ok());
  // The message names the accepted range.
  EXPECT_NE(ParseUnsigned("-2", 2, 1024).status().message().find("[2, 1024]"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next64() == b.Next64();
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformBelowInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.UniformBelow(bound), bound);
    }
  }
}

TEST(RngTest, UniformBelowCoversAllResidues) {
  Rng rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformBelow(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformInRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.UniformInRange(10, 13);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 13u);
    saw_lo = saw_lo || v == 10;
    saw_hi = saw_hi || v == 13;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.UniformDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(17);
  Rng forked = a.Fork();
  // The fork differs from the parent's continuation.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next64() == forked.Next64();
  EXPECT_LT(same, 4);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(19);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

// ---------------------------------------------------------------------
// BitString
// ---------------------------------------------------------------------

TEST(BitStringTest, EmptyBasics) {
  BitString s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.ToString(), "");
}

TEST(BitStringTest, FromStringRoundtrip) {
  for (const char* bits_cstr :
       {"0", "1", "0101", "1111111", "0000000000",
        "110100100010000100000"}) {
    const std::string bits = bits_cstr;
    EXPECT_EQ(BitString::FromString(bits).ToString(), bits);
  }
}

TEST(BitStringTest, FromUint64Roundtrip) {
  EXPECT_EQ(BitString::FromUint64(5, 4).ToString(), "0101");
  EXPECT_EQ(BitString::FromUint64(0, 3).ToString(), "000");
  EXPECT_EQ(BitString::FromUint64(255, 8).ToString(), "11111111");
  for (std::uint64_t v : {0ULL, 1ULL, 37ULL, 1023ULL}) {
    EXPECT_EQ(BitString::FromUint64(v, 10).ToUint64(), v);
  }
}

TEST(BitStringTest, PushBackGrows) {
  BitString s;
  s.PushBack(true);
  s.PushBack(false);
  s.PushBack(true);
  EXPECT_EQ(s.ToString(), "101");
  // Across the 64-bit word boundary.
  BitString long_s;
  for (int i = 0; i < 130; ++i) long_s.PushBack(i % 2 == 0);
  EXPECT_EQ(long_s.size(), 130u);
  EXPECT_TRUE(long_s.bit(0));
  EXPECT_FALSE(long_s.bit(129));
}

TEST(BitStringTest, SetBit) {
  BitString s(8);
  s.set_bit(3, true);
  EXPECT_EQ(s.ToString(), "00010000");
  s.set_bit(3, false);
  EXPECT_EQ(s.ToString(), "00000000");
}

TEST(BitStringTest, LexicographicOrder) {
  const BitString a = BitString::FromString("0101");
  const BitString b = BitString::FromString("0110");
  const BitString prefix = BitString::FromString("01");
  EXPECT_LT(a, b);
  EXPECT_LT(prefix, a);  // proper prefix compares less
  EXPECT_EQ(a, BitString::FromString("0101"));
  EXPECT_GT(b, a);
}

TEST(BitStringTest, OrderMatchesNumericForEqualLengths) {
  Rng rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t x = rng.UniformBelow(1 << 16);
    const std::uint64_t y = rng.UniformBelow(1 << 16);
    const BitString bx = BitString::FromUint64(x, 16);
    const BitString by = BitString::FromUint64(y, 16);
    EXPECT_EQ(bx < by, x < y);
    EXPECT_EQ(bx == by, x == y);
  }
}

TEST(BitStringTest, TopBits) {
  const BitString s = BitString::FromString("11010001");
  EXPECT_EQ(s.TopBits(0), 0u);
  EXPECT_EQ(s.TopBits(1), 1u);
  EXPECT_EQ(s.TopBits(3), 0b110u);
  EXPECT_EQ(s.TopBits(8), 0b11010001u);
}

TEST(BitStringTest, ModMatchesNumeric) {
  Rng rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t v = rng.UniformBelow(1ULL << 32);
    const std::uint64_t p = 2 + rng.UniformBelow(1 << 20);
    EXPECT_EQ(BitString::FromUint64(v, 40).ModUint64(p), v % p);
  }
}

TEST(BitStringTest, ModOfLongString) {
  // 200-bit string of all 1s mod small primes: (2^200 - 1) mod p.
  BitString ones(200);
  for (std::size_t i = 0; i < 200; ++i) ones.set_bit(i, true);
  // 2^200 mod 7: 200 = 3*66+2 -> 2^200 = 4 mod 7 -> value = 3 mod 7.
  EXPECT_EQ(ones.ModUint64(7), 3u);
  EXPECT_EQ(ones.ModUint64(2), 1u);
}

/// The definition ModUint64 must agree with: Horner over single bits,
/// residue <- (2 * residue + bit) mod p, in 128-bit arithmetic.
std::uint64_t BitSerialMod(const BitString& s, std::uint64_t modulus) {
  unsigned __int128 residue = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    residue = (residue * 2 + (s.bit(i) ? 1 : 0)) % modulus;
  }
  return static_cast<std::uint64_t>(residue);
}

TEST(BitStringTest, ModMatchesBitSerialReference) {
  const std::uint64_t moduli[] = {2,
                                  3,
                                  (std::uint64_t{1} << 31) - 1,
                                  (std::uint64_t{1} << 31) + 11,
                                  (std::uint64_t{1} << 62) - 57,
                                  (std::uint64_t{1} << 62) + 135,
                                  ~std::uint64_t{0} - 58};  // 2^64 - 59
  Rng rng(0x30D);
  for (const std::size_t len : {1u, 31u, 63u, 64u, 65u, 127u, 128u, 129u,
                                200u}) {
    std::vector<BitString> strings;
    for (int r = 0; r < 4; ++r) strings.push_back(BitString::Random(len, rng));
    BitString ones(len);
    for (std::size_t i = 0; i < len; ++i) ones.set_bit(i, true);
    strings.push_back(ones);
    for (const BitString& s : strings) {
      for (const std::uint64_t p : moduli) {
        EXPECT_EQ(s.ModUint64(p), BitSerialMod(s, p))
            << "len=" << len << " p=" << p << " s=" << s.ToString();
      }
    }
  }
}

TEST(BitStringTest, RandomHasCleanTail) {
  Rng rng(31);
  for (std::size_t len : {1u, 63u, 64u, 65u, 100u, 130u}) {
    const BitString a = BitString::Random(len, rng);
    EXPECT_EQ(a.size(), len);
    EXPECT_EQ(a.ToString().size(), len);
    // Comparisons against a copy built from the string representation
    // must agree (this fails if tail bits are dirty).
    EXPECT_EQ(a, BitString::FromString(a.ToString()));
  }
}

TEST(BitStringTest, HashConsistentWithEquality) {
  Rng rng(37);
  BitStringHash hasher;
  for (int trial = 0; trial < 100; ++trial) {
    const BitString a = BitString::Random(80, rng);
    const BitString b = BitString::FromString(a.ToString());
    EXPECT_EQ(hasher(a), hasher(b));
  }
}

class BitStringLengthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitStringLengthTest, RoundtripAtManyLengths) {
  Rng rng(41 + GetParam());
  const BitString s = BitString::Random(GetParam(), rng);
  EXPECT_EQ(BitString::FromString(s.ToString()), s);
}

INSTANTIATE_TEST_SUITE_P(Lengths, BitStringLengthTest,
                         ::testing::Values(0, 1, 2, 7, 8, 31, 32, 33, 63,
                                           64, 65, 127, 128, 129, 512));

}  // namespace
}  // namespace rstlab
