#include <gtest/gtest.h>

#include <cmath>

#include "crypto/fixed_point.h"
#include "math/primes.h"

namespace uldp {
namespace {

class FixedPointFixture : public ::testing::Test {
 protected:
  FixedPointFixture() {
    Rng rng(1);
    modulus_ = GeneratePrime(160, rng);
  }
  BigInt modulus_;
};

TEST_F(FixedPointFixture, RoundTripPositiveNegativeZero) {
  FixedPointCodec codec(modulus_, 1e-10);
  for (double x : {0.0, 1.0, -1.0, 3.14159265, -2.71828, 1e-9, -1e-9,
                   123456.789, -99999.5}) {
    double back = codec.DecodePlain(codec.Encode(x).value());
    EXPECT_NEAR(back, x, 1e-10) << x;
  }
}

TEST_F(FixedPointFixture, QuantizationIsAtMostHalfPrecision) {
  FixedPointCodec codec(modulus_, 1e-6);
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.Uniform(-100.0, 100.0);
    double back = codec.DecodePlain(codec.Encode(x).value());
    EXPECT_LE(std::fabs(back - x), 0.5e-6 + 1e-15);
  }
}

TEST_F(FixedPointFixture, EncodedAdditionMatchesRealAddition) {
  FixedPointCodec codec(modulus_, 1e-10);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    double a = rng.Uniform(-5.0, 5.0), b = rng.Uniform(-5.0, 5.0);
    BigInt ea = codec.Encode(a).value();
    BigInt eb = codec.Encode(b).value();
    double sum = codec.DecodePlain(ea.ModAdd(eb, modulus_));
    EXPECT_NEAR(sum, a + b, 2e-10);
  }
}

TEST_F(FixedPointFixture, DecodeDividesOutClcm) {
  FixedPointCodec codec(modulus_, 1e-10);
  BigInt c_lcm = LcmUpTo(30);
  for (double x : {0.5, -0.25, 2.0, -7.125, 0.0}) {
    BigInt enc = codec.Encode(x).value();
    BigInt scaled = enc.ModMul(c_lcm.Mod(modulus_), modulus_);
    EXPECT_NEAR(codec.Decode(scaled, c_lcm), x, 1e-9) << x;
  }
}

TEST_F(FixedPointFixture, DecodeHandlesFractionalClcmMultiples) {
  // Protocol terms carry C_LCM/N_u factors; after summation the value is
  // x * C_LCM for a non-integer x. Decode must recover x.
  FixedPointCodec codec(modulus_, 1e-10);
  BigInt c_lcm = LcmUpTo(30);
  // value = (3/7) * 1.25 encoded: e * 3 * (C_LCM / 7).
  BigInt e = codec.Encode(1.25).value();
  BigInt term = e.ModMul(BigInt(3), modulus_)
                    .ModMul((c_lcm / BigInt(7)).Mod(modulus_), modulus_);
  EXPECT_NEAR(codec.Decode(term, c_lcm), 1.25 * 3.0 / 7.0, 1e-9);
}

TEST_F(FixedPointFixture, RejectsNonFiniteAndHuge) {
  FixedPointCodec codec(modulus_, 1e-10);
  EXPECT_FALSE(codec.Encode(std::nan("")).ok());
  EXPECT_FALSE(codec.Encode(std::numeric_limits<double>::infinity()).ok());
  EXPECT_FALSE(codec.Encode(1e12).ok());  // 1e12/1e-10 = 1e22 > 2^63
}

TEST(FixedPointSmallFieldTest, RejectsMagnitudeBeyondHalfModulus) {
  // Tiny field: encoding must refuse values that alias under centering.
  FixedPointCodec codec(BigInt(101), 1.0);
  EXPECT_TRUE(codec.Encode(50.0).ok());
  EXPECT_FALSE(codec.Encode(51.0).ok());
  EXPECT_TRUE(codec.Encode(-50.0).ok());
  EXPECT_FALSE(codec.Encode(-51.0).ok());
}

TEST(FixedPointSmallFieldTest, ExactHalfModulusBoundaries) {
  // Odd modulus n = 101: the representable range is [-(n-1)/2, (n-1)/2]
  // and both endpoints round-trip.
  FixedPointCodec odd(BigInt(101), 1.0);
  EXPECT_DOUBLE_EQ(odd.DecodePlain(odd.Encode(50.0).value()), 50.0);
  EXPECT_DOUBLE_EQ(odd.DecodePlain(odd.Encode(-50.0).value()), -50.0);
  EXPECT_FALSE(odd.Encode(51.0).ok());
  EXPECT_FALSE(odd.Encode(-51.0).ok());

  // Even modulus n = 100: +n/2 is representable (centering maps the
  // element n/2 to +n/2), but -n/2 would alias to the same element —
  // Encode must reject it rather than flip its sign. This was the
  // boundary off-by-one: Encode(-50) used to return the encoding of +50.
  FixedPointCodec even(BigInt(100), 1.0);
  ASSERT_TRUE(even.Encode(50.0).ok());
  EXPECT_DOUBLE_EQ(even.DecodePlain(even.Encode(50.0).value()), 50.0);
  EXPECT_FALSE(even.Encode(-50.0).ok());
  EXPECT_DOUBLE_EQ(even.DecodePlain(even.Encode(-49.0).value()), -49.0);
  EXPECT_FALSE(even.Encode(51.0).ok());
}

TEST(FixedPointSmallFieldTest, DecodeRoundsHalfAwayFromZeroAtClcmTies) {
  // Decode computes round(mag * 1e15 / c_lcm) at 1e-15 sub-unit
  // resolution; with c_lcm = 2e15 the quotient hits exact .5 ties, which
  // must round away from zero symmetrically for both signs.
  Rng rng(8);
  BigInt modulus = GeneratePrime(160, rng);
  FixedPointCodec codec(modulus, 1.0);
  BigInt c_lcm = BigInt(static_cast<uint64_t>(2000000000000000ull));  // 2e15
  // mag = 1: 1e15/2e15 = 0.5e-15 -> rounds up to 1e-15.
  EXPECT_DOUBLE_EQ(codec.Decode(BigInt(1), c_lcm), 1e-15);
  // mag = 3: 1.5e-15 -> 2e-15 (tie away from zero).
  EXPECT_DOUBLE_EQ(codec.Decode(BigInt(3), c_lcm), 2e-15);
  // Negative side mirrors: centered value -3 has the same magnitude.
  EXPECT_DOUBLE_EQ(codec.Decode(modulus - BigInt(3), c_lcm), -2e-15);
  // Non-ties are unaffected.
  EXPECT_DOUBLE_EQ(codec.Decode(BigInt(4), c_lcm), 2e-15);
  EXPECT_DOUBLE_EQ(codec.Decode(BigInt(5), c_lcm), 3e-15);  // 2.5 -> 3
}

TEST(FixedPointSmallFieldTest, NonFiniteAndOverflowInputs) {
  FixedPointCodec codec(BigInt(101), 1.0);
  EXPECT_FALSE(codec.Encode(std::nan("")).ok());
  EXPECT_FALSE(codec.Encode(std::numeric_limits<double>::infinity()).ok());
  EXPECT_FALSE(codec.Encode(-std::numeric_limits<double>::infinity()).ok());
  EXPECT_EQ(codec.Encode(std::nan("")).status().code(),
            StatusCode::kInvalidArgument);
  // The int64 guard fires before llround can overflow.
  EXPECT_EQ(codec.Encode(5e18).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(codec.Encode(-5e18).status().code(), StatusCode::kOutOfRange);
}

TEST(FixedPointSmallFieldTest, CenteringBoundary) {
  FixedPointCodec codec(BigInt(101), 1.0);
  EXPECT_DOUBLE_EQ(codec.DecodePlain(BigInt(50)), 50.0);
  EXPECT_DOUBLE_EQ(codec.DecodePlain(BigInt(51)), -50.0);
  EXPECT_DOUBLE_EQ(codec.DecodePlain(BigInt(100)), -1.0);
  EXPECT_DOUBLE_EQ(codec.DecodePlain(BigInt(0)), 0.0);
}

TEST(FixedPointBulkTest, BulkEncodeMatchesLlroundAndNamesTheFirstBadValue) {
  // The bulk form rounds inline; it must give std::llround's units at
  // halves, just below a half, past 2^52 and near the 4.6e18 guard, in
  // every field width, and stop at the first value Encode rejects.
  Rng rng(6);
  const BigInt one(1);
  const std::vector<double> values = {
      0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.49999999999999994,
      -0.49999999999999994, 4503599627370495.5, -4503599627370495.5,
      4503599627370497.0, 9007199254740993.0, -9007199254740993.0,
      4.5999999e18, -4.5999999e18, 123456.789, -99999.5};
  for (const BigInt& n : {(one << 127) - one, GeneratePrime(160, rng),
                          (one << 64) - BigInt(59)}) {
    SCOPED_TRACE(n.ToHex());
    FixedPointCodec codec(n, 1.0);
    const size_t k = codec.limbs();
    std::vector<uint64_t> bulk(values.size() * k);
    ASSERT_TRUE(codec.EncodeLimbs(values.data(), values.size(), bulk.data())
                    .ok());
    for (size_t i = 0; i < values.size(); ++i) {
      const BigInt want =
          BigInt(static_cast<int64_t>(std::llround(values[i]))).Mod(n);
      std::vector<uint64_t> want_limbs = want.limbs();
      want_limbs.resize(k, 0);
      EXPECT_EQ(std::vector<uint64_t>(bulk.begin() + i * k,
                                      bulk.begin() + (i + 1) * k),
                want_limbs)
          << values[i];
      EXPECT_EQ(codec.Encode(values[i]).value(), want) << values[i];
    }
  }
  FixedPointCodec codec(BigInt(101), 1.0);
  std::vector<uint64_t> out(4);
  const double nan_then_large[] = {1.0, -2.0, std::nan(""), 51.0};
  Status status = codec.EncodeLimbs(nan_then_large, 4, out.data());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "coordinate 2: cannot encode non-finite value");
  // The values before the bad one are written.
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 99u);
  const double beyond_half[] = {50.0, -51.0};
  status = codec.EncodeLimbs(beyond_half, 2, out.data());
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(status.message(),
            "coordinate 1: encoded magnitude exceeds modulus/2");
  const double huge[] = {5e18};
  status = codec.EncodeLimbs(huge, 1, out.data());
  EXPECT_EQ(status.message(),
            "coordinate 0: value too large for fixed-point range");
}

class PrecisionSweep : public ::testing::TestWithParam<double> {};

TEST_P(PrecisionSweep, RoundTripAtPrecision) {
  Rng rng(5);
  BigInt modulus = GeneratePrime(200, rng);
  FixedPointCodec codec(modulus, GetParam());
  for (int i = 0; i < 100; ++i) {
    double x = rng.Uniform(-10.0, 10.0);
    EXPECT_NEAR(codec.DecodePlain(codec.Encode(x).value()), x,
                GetParam() * 0.5 + 1e-15);
  }
}

INSTANTIATE_TEST_SUITE_P(Precisions, PrecisionSweep,
                         ::testing::Values(1e-6, 1e-8, 1e-10, 1e-12));

}  // namespace
}  // namespace uldp
