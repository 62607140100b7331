#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "math/bigint.h"

namespace uldp {
namespace {

TEST(BigIntTest, ZeroProperties) {
  BigInt z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_FALSE(z.IsNegative());
  EXPECT_TRUE(z.IsEven());
  EXPECT_EQ(z.BitLength(), 0);
  EXPECT_EQ(z.ToDecimal(), "0");
  EXPECT_EQ(z.ToHex(), "0");
}

TEST(BigIntTest, Int64Construction) {
  EXPECT_EQ(BigInt(int64_t{42}).ToDecimal(), "42");
  EXPECT_EQ(BigInt(int64_t{-42}).ToDecimal(), "-42");
  EXPECT_EQ(BigInt(INT64_MIN).ToDecimal(), "-9223372036854775808");
  EXPECT_EQ(BigInt(INT64_MAX).ToDecimal(), "9223372036854775807");
  EXPECT_EQ(BigInt(uint64_t{18446744073709551615ull}).ToDecimal(),
            "18446744073709551615");
}

TEST(BigIntTest, ToInt64RoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, INT64_MAX,
                    INT64_MIN, int64_t{123456789}}) {
    auto r = BigInt(v).ToInt64();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), v);
  }
  // Out of range.
  BigInt big = BigInt(INT64_MAX) + BigInt(1);
  EXPECT_FALSE(big.ToInt64().ok());
  EXPECT_TRUE((BigInt(INT64_MIN)).ToInt64().ok());
  EXPECT_FALSE((BigInt(INT64_MIN) - BigInt(1)).ToInt64().ok());
}

TEST(BigIntTest, DecimalParse) {
  EXPECT_EQ(BigInt::FromDecimal("12345678901234567890123456789").value()
                .ToDecimal(),
            "12345678901234567890123456789");
  EXPECT_EQ(BigInt::FromDecimal("-987654321").value().ToDecimal(),
            "-987654321");
  EXPECT_EQ(BigInt::FromDecimal("+7").value().ToDecimal(), "7");
  EXPECT_FALSE(BigInt::FromDecimal("").ok());
  EXPECT_FALSE(BigInt::FromDecimal("-").ok());
  EXPECT_FALSE(BigInt::FromDecimal("12a").ok());
  // -0 normalizes to 0.
  EXPECT_EQ(BigInt::FromDecimal("-0").value().ToDecimal(), "0");
}

TEST(BigIntTest, HexParse) {
  EXPECT_EQ(BigInt::FromHex("ff").value().ToDecimal(), "255");
  EXPECT_EQ(BigInt::FromHex("DEADbeef").value().ToHex(), "deadbeef");
  EXPECT_FALSE(BigInt::FromHex("xyz").ok());
  EXPECT_FALSE(BigInt::FromHex("").ok());
}

// Property sweep: all arithmetic cross-checked against native __int128.
class BigIntArithmeticSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BigIntArithmeticSweep, MatchesNativeArithmetic) {
  Rng rng(GetParam());
  for (int i = 0; i < 5000; ++i) {
    int64_t a = static_cast<int64_t>(rng.NextUint64() >> 2) *
                (rng.Bernoulli(0.5) ? 1 : -1);
    int64_t b = static_cast<int64_t>(rng.NextUint64() >> 2) *
                (rng.Bernoulli(0.5) ? 1 : -1);
    BigInt A(a), B(b);
    EXPECT_EQ((A + B).ToInt64().value(), a + b);
    EXPECT_EQ((A - B).ToInt64().value(), a - b);
    __int128 prod = static_cast<__int128>(a) * b;
    BigInt P = A * B;
    // Verify the product through the division invariant.
    if (b != 0) {
      EXPECT_EQ((P / B), A);
      EXPECT_EQ((A / B).ToInt64().value(), a / b);
      EXPECT_EQ((A % B).ToInt64().value(), a % b);
    }
    // Low 64 bits of |prod| match.
    __int128 abs_prod = prod < 0 ? -prod : prod;
    EXPECT_EQ(P.Abs().LowUint64(), static_cast<uint64_t>(abs_prod));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntArithmeticSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// Property sweep: algebraic identities on random big operands.
class BigIntBigOperandSweep : public ::testing::TestWithParam<int> {};

TEST_P(BigIntBigOperandSweep, AlgebraicIdentities) {
  int bits = GetParam();
  Rng rng(1000 + bits);
  BigInt x = BigInt::RandomBits(bits, rng);
  BigInt y = BigInt::RandomBits(bits * 2 / 3 + 1, rng);
  // (x+y)^2 == x^2 + 2xy + y^2
  EXPECT_EQ((x + y) * (x + y), x * x + BigInt(2) * x * y + y * y);
  // (x-y)(x+y) == x^2 - y^2
  EXPECT_EQ((x - y) * (x + y), x * x - y * y);
  // Division invariant q*y + r == x, 0 <= r < y.
  BigInt q = x / y, r = x % y;
  EXPECT_EQ(q * y + r, x);
  EXPECT_TRUE(r >= BigInt(0) && r < y);
  // Shifts match multiplication by powers of two.
  EXPECT_EQ(x << 64, x * (BigInt(1) << 64));
  EXPECT_EQ((x << 13) >> 13, x);
  // String round-trips.
  EXPECT_EQ(BigInt::FromDecimal(x.ToDecimal()).value(), x);
  EXPECT_EQ(BigInt::FromHex(x.ToHex()).value(), x);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BigIntBigOperandSweep,
                         ::testing::Values(64, 128, 192, 512, 1000, 2048,
                                           3000, 4096));

TEST(BigIntTest, KaratsubaPathConsistentWithSchoolbook) {
  // Operands above the Karatsuba threshold; verify via division.
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    BigInt a = BigInt::RandomBits(64 * 40, rng);
    BigInt b = BigInt::RandomBits(64 * 33, rng);
    BigInt p = a * b;
    EXPECT_EQ(p / a, b);
    EXPECT_TRUE((p % a).IsZero());
  }
}

TEST(BigIntTest, TruncatedDivisionSigns) {
  EXPECT_EQ((BigInt(7) / BigInt(2)).ToDecimal(), "3");
  EXPECT_EQ((BigInt(-7) / BigInt(2)).ToDecimal(), "-3");
  EXPECT_EQ((BigInt(7) / BigInt(-2)).ToDecimal(), "-3");
  EXPECT_EQ((BigInt(-7) / BigInt(-2)).ToDecimal(), "3");
  EXPECT_EQ((BigInt(-7) % BigInt(2)).ToDecimal(), "-1");
  EXPECT_EQ((BigInt(7) % BigInt(-2)).ToDecimal(), "1");
}

TEST(BigIntTest, DivisionByZeroIsError) {
  BigInt q, r;
  EXPECT_FALSE(BigInt(5).DivRem(BigInt(0), &q, &r).ok());
}

TEST(BigIntTest, ModIsAlwaysNonNegative) {
  EXPECT_EQ(BigInt(-7).Mod(BigInt(3)).ToDecimal(), "2");
  EXPECT_EQ(BigInt(7).Mod(BigInt(3)).ToDecimal(), "1");
  EXPECT_EQ(BigInt(-9).Mod(BigInt(3)).ToDecimal(), "0");
}

TEST(BigIntTest, ModAddSubMul) {
  BigInt m(97);
  EXPECT_EQ(BigInt(90).ModAdd(BigInt(10), m).ToDecimal(), "3");
  EXPECT_EQ(BigInt(3).ModSub(BigInt(10), m).ToDecimal(), "90");
  EXPECT_EQ(BigInt(50).ModMul(BigInt(50), m).ToDecimal(),
            std::to_string(50 * 50 % 97));
}

TEST(BigIntTest, ModExpSmallKnown) {
  EXPECT_EQ(BigInt(2).ModExp(BigInt(10), BigInt(1000)).ToDecimal(), "24");
  EXPECT_EQ(BigInt(3).ModExp(BigInt(0), BigInt(7)).ToDecimal(), "1");
  EXPECT_EQ(BigInt(5).ModExp(BigInt(3), BigInt(1)).ToDecimal(), "0");
  // Even modulus path.
  EXPECT_EQ(BigInt(3).ModExp(BigInt(4), BigInt(16)).ToDecimal(), "1");
}

TEST(BigIntTest, EGcdBezoutIdentity) {
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    BigInt a = BigInt::RandomBits(100, rng);
    BigInt b = BigInt::RandomBits(80, rng);
    BigInt g, x, y;
    BigInt::EGcd(a, b, &g, &x, &y);
    EXPECT_EQ(a * x + b * y, g);
    EXPECT_TRUE((a % g).IsZero());
    EXPECT_TRUE((b % g).IsZero());
  }
}

TEST(BigIntTest, ModInverse) {
  Rng rng(32);
  BigInt m = BigInt::FromDecimal("1000000007").value();  // prime
  for (int i = 0; i < 100; ++i) {
    BigInt a = BigInt::RandomBelow(m - BigInt(1), rng) + BigInt(1);
    BigInt inv = a.ModInverse(m).value();
    EXPECT_EQ(a.ModMul(inv, m), BigInt(1));
  }
  // Non-invertible.
  EXPECT_FALSE(BigInt(6).ModInverse(BigInt(9)).ok());
  EXPECT_FALSE(BigInt(5).ModInverse(BigInt(0)).ok());
}

// Textbook extended Euclid, one BigInt division per step: the reference
// the limb-level Gcd and EGcd are checked against. Returns gcd(a, b) and
// the coefficient of a.
void EuclidReference(const BigInt& a, const BigInt& b, BigInt* g,
                     BigInt* x) {
  BigInt old_r = a.Abs(), r = b.Abs(), old_s(1), s(0);
  while (!r.IsZero()) {
    const BigInt q = old_r / r;
    BigInt next = old_r - q * r;
    old_r = std::move(r);
    r = std::move(next);
    next = old_s - q * s;
    old_s = std::move(s);
    s = std::move(next);
  }
  *g = std::move(old_r);
  *x = a.IsNegative() ? -old_s : old_s;
}

// Random operand of 0 to 3072 bits, sometimes negative, sometimes even.
BigInt RandomOperand(Rng& rng) {
  if (rng.UniformInt(16) == 0) return BigInt(0);
  const int bits = 1 + static_cast<int>(rng.UniformInt(3072));
  BigInt v = BigInt::RandomBits(bits, rng);
  if (rng.UniformInt(4) == 0) v = v << static_cast<int>(rng.UniformInt(70));
  return rng.UniformInt(3) == 0 ? -v : v;
}

TEST(BigIntTest, GcdAndEGcdMatchEuclidReference) {
  Rng rng(33);
  for (int i = 0; i < 300; ++i) {
    BigInt a = RandomOperand(rng);
    BigInt b = RandomOperand(rng);
    if (i % 3 == 0) {
      // Non-coprime: a shared factor of up to 1024 bits.
      const BigInt c = BigInt::RandomBits(
          1 + static_cast<int>(rng.UniformInt(1024)), rng);
      a = a * c;
      b = b * c;
    }
    BigInt want_g, want_x;
    EuclidReference(a, b, &want_g, &want_x);
    EXPECT_EQ(BigInt::Gcd(a, b), want_g) << a.ToHex() << " " << b.ToHex();
    BigInt g, x, y;
    BigInt::EGcd(a, b, &g, &x, &y);
    EXPECT_EQ(g, want_g) << a.ToHex() << " " << b.ToHex();
    EXPECT_EQ(a * x + b * y, g) << a.ToHex() << " " << b.ToHex();
    BigInt g_only, x_only;
    BigInt::EGcd(a, b, &g_only, &x_only, nullptr);
    EXPECT_EQ(g_only, want_g);
    EXPECT_EQ(x_only, x);
  }
  // Edge pairs: zeros, equal values, one, a limb boundary, signs, and a
  // remainder sequence whose quotients run 2, 1, then 300 bits, so a
  // multi-limb quotient meets nonzero cofactors mid-run.
  const BigInt limb = BigInt(1) << 64;
  const BigInt r3 = BigInt::RandomBits(100, rng);
  const BigInt r2 = r3 * BigInt::RandomBits(300, rng) + BigInt(12345);
  const BigInt r1 = r2 + r3;
  const std::vector<std::pair<BigInt, BigInt>> edges = {
      {BigInt(0), BigInt(0)},   {BigInt(0), BigInt(-7)},
      {BigInt(-7), BigInt(0)},  {BigInt(12), BigInt(12)},
      {BigInt(1), limb},        {limb, limb - BigInt(1)},
      {-limb, BigInt(6)},       {limb * limb, limb},
      {BigInt(-12), BigInt(-18)}, {BigInt(2) * r1 + r2, r1}};
  for (const auto& [a, b] : edges) {
    BigInt want_g, want_x, g, x, y;
    EuclidReference(a, b, &want_g, &want_x);
    EXPECT_EQ(BigInt::Gcd(a, b), want_g) << a.ToHex() << " " << b.ToHex();
    BigInt::EGcd(a, b, &g, &x, &y);
    EXPECT_EQ(g, want_g) << a.ToHex() << " " << b.ToHex();
    EXPECT_EQ(a * x + b * y, g) << a.ToHex() << " " << b.ToHex();
  }
}

TEST(BigIntTest, ModInverseMatchesEuclidReference) {
  Rng rng(34);
  for (int i = 0; i < 300; ++i) {
    const BigInt a = RandomOperand(rng);
    const BigInt m = RandomOperand(rng).Abs();
    auto inv = a.ModInverse(m);
    if (m.IsZero()) {
      EXPECT_FALSE(inv.ok());
      continue;
    }
    BigInt g, x;
    EuclidReference(a.Mod(m), m, &g, &x);
    if (g != BigInt(1)) {
      EXPECT_FALSE(inv.ok()) << a.ToHex() << " mod " << m.ToHex();
      continue;
    }
    ASSERT_TRUE(inv.ok()) << a.ToHex() << " mod " << m.ToHex();
    EXPECT_EQ(inv.value(), x.Mod(m));
    EXPECT_EQ(a.ModMul(inv.value(), m), BigInt(1).Mod(m));
  }
  // The failures: no positive modulus, or a shared factor.
  const BigInt p = BigInt::RandomBits(1024, rng);
  EXPECT_FALSE(BigInt(3).ModInverse(BigInt(0)).ok());
  EXPECT_FALSE(BigInt(3).ModInverse(-p).ok());
  EXPECT_FALSE(BigInt(0).ModInverse(p).ok());
  EXPECT_FALSE((p * BigInt(3)).ModInverse(p * BigInt(5)).ok());
  EXPECT_FALSE(BigInt(6).ModInverse(BigInt(1) << 2048).ok());
  EXPECT_EQ(BigInt(5).ModInverse(BigInt(1)).value(), BigInt(0));
}

TEST(BigIntTest, GcdLcm) {
  EXPECT_EQ(BigInt::Gcd(BigInt(12), BigInt(18)).ToDecimal(), "6");
  EXPECT_EQ(BigInt::Gcd(BigInt(-12), BigInt(18)).ToDecimal(), "6");
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)).ToDecimal(), "5");
  EXPECT_EQ(BigInt::Lcm(BigInt(4), BigInt(6)).ToDecimal(), "12");
  EXPECT_TRUE(BigInt::Lcm(BigInt(0), BigInt(7)).IsZero());
}

TEST(BigIntTest, LcmUpToKnownValues) {
  EXPECT_EQ(LcmUpTo(1).ToDecimal(), "1");
  EXPECT_EQ(LcmUpTo(2).ToDecimal(), "2");
  EXPECT_EQ(LcmUpTo(10).ToDecimal(), "2520");
  EXPECT_EQ(LcmUpTo(20).ToDecimal(), "232792560");
  // Divisibility property: every j <= n divides lcm(1..n).
  BigInt l = LcmUpTo(50);
  for (uint64_t j = 1; j <= 50; ++j) {
    EXPECT_TRUE((l % BigInt(j)).IsZero()) << j;
  }
  // The paper's example scale: C_LCM for N_max = 2000 is < 10^867 but huge.
  int bits = LcmUpTo(2000).BitLength();
  EXPECT_GT(bits, 2800);
  EXPECT_LT(bits, 2900);
}

TEST(BigIntTest, RandomBelowInRange) {
  Rng rng(33);
  BigInt bound = BigInt::FromDecimal("123456789012345678901").value();
  for (int i = 0; i < 200; ++i) {
    BigInt r = BigInt::RandomBelow(bound, rng);
    EXPECT_TRUE(r >= BigInt(0) && r < bound);
  }
}

TEST(BigIntTest, RandomBitsExactLength) {
  Rng rng(34);
  for (int bits : {1, 2, 63, 64, 65, 127, 128, 1000}) {
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(BigInt::RandomBits(bits, rng).BitLength(), bits);
    }
  }
}

TEST(BigIntTest, CompareTotalOrder) {
  BigInt a(-5), b(0), c(3), d(300);
  EXPECT_LT(a.Compare(b), 0);
  EXPECT_LT(b.Compare(c), 0);
  EXPECT_LT(c.Compare(d), 0);
  EXPECT_EQ(c.Compare(BigInt(3)), 0);
  EXPECT_TRUE(a < b && b < c && c < d);
  EXPECT_TRUE(d > a);
  EXPECT_TRUE(BigInt(-10) < BigInt(-2));
}

TEST(BigIntTest, BitAccess) {
  BigInt v(0b1011);
  EXPECT_TRUE(v.Bit(0));
  EXPECT_TRUE(v.Bit(1));
  EXPECT_FALSE(v.Bit(2));
  EXPECT_TRUE(v.Bit(3));
  EXPECT_FALSE(v.Bit(64));
  EXPECT_EQ(v.BitLength(), 4);
}

TEST(BigIntTest, BytesLERoundTrip) {
  Rng rng(35);
  for (int bits : {1, 8, 63, 64, 65, 300, 1024}) {
    for (int i = 0; i < 10; ++i) {
      BigInt v = BigInt::RandomBits(bits, rng);
      size_t len = static_cast<size_t>((bits + 7) / 8) + 8;
      EXPECT_EQ(BigInt::FromBytesLE(v.ToBytesLE(len)), v);
    }
  }
  EXPECT_EQ(BigInt::FromBytesLE(BigInt(0).ToBytesLE(4)), BigInt(0));
}

TEST(BigIntTest, ToBytesLEAllowsHighZeroLimbBytes) {
  // 2^64 occupies two limbs but only 9 significant bytes: serializing into
  // a 9-byte buffer must succeed (the second limb's high bytes are all
  // zero), which the pre-fix OT serializer aborted on.
  BigInt v = BigInt(1) << 64;
  ASSERT_EQ(v.limbs().size(), 2u);
  std::vector<uint8_t> bytes = v.ToBytesLE(9);
  EXPECT_EQ(bytes[8], 1);
  EXPECT_EQ(BigInt::FromBytesLE(bytes), v);
  // A 72-bit value in exactly 9 bytes.
  BigInt w = (BigInt(1) << 71) + BigInt(12345);
  EXPECT_EQ(BigInt::FromBytesLE(w.ToBytesLE(9)), w);
}

TEST(BigIntTest, ToDoubleApproximation) {
  EXPECT_DOUBLE_EQ(BigInt(1000).ToDouble(), 1000.0);
  EXPECT_DOUBLE_EQ(BigInt(-1000).ToDouble(), -1000.0);
  BigInt big = BigInt(1) << 100;
  EXPECT_NEAR(big.ToDouble(), std::pow(2.0, 100), std::pow(2.0, 60));
}

}  // namespace
}  // namespace uldp
