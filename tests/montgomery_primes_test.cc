#include <gtest/gtest.h>

#include <vector>

#include "math/mont_row.h"
#include "math/montgomery.h"
#include "math/primes.h"

namespace uldp {
namespace {

// Naive square-and-multiply with plain division, to cross-check Montgomery.
BigInt NaiveModExp(const BigInt& base, const BigInt& exp, const BigInt& m) {
  BigInt result(1);
  BigInt b = base.Mod(m);
  for (int i = exp.BitLength() - 1; i >= 0; --i) {
    result = (result * result).Mod(m);
    if (exp.Bit(i)) result = (result * b).Mod(m);
  }
  return result;
}

class MontgomerySweep : public ::testing::TestWithParam<int> {};

TEST_P(MontgomerySweep, ModExpMatchesNaive) {
  int bits = GetParam();
  Rng rng(500 + bits);
  // Random odd modulus of the given size.
  BigInt m = BigInt::RandomBits(bits, rng);
  if (m.IsEven()) m = m + BigInt(1);
  Montgomery ctx(m);
  for (int i = 0; i < 10; ++i) {
    BigInt base = BigInt::RandomBelow(m, rng);
    BigInt exp = BigInt::RandomBits(bits / 2 + 1, rng);
    EXPECT_EQ(ctx.ModExp(base, exp), NaiveModExp(base, exp, m));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MontgomerySweep,
                         ::testing::Values(8, 16, 64, 128, 200, 512, 1024));

// -- The row kernel ----------------------------------------------------------

std::vector<uint64_t> RandomLimbs(size_t len, Rng& rng) {
  std::vector<uint64_t> limbs(len);
  for (uint64_t& limb : limbs) limb = rng.NextUint64();
  return limbs;
}

TEST(MontRowTest, PortableRowMatchesSchoolbookDefinition) {
  // rp += x * up, carry out: the all-ones case is the largest carry a row
  // can produce, (2^64 - 1) * (2^64 - 1) + (2^64 - 1) per limb.
  Rng rng(90);
  for (size_t len : {0u, 1u, 2u, 7u, 33u}) {
    for (bool ones : {false, true}) {
      std::vector<uint64_t> r =
          ones ? std::vector<uint64_t>(len, ~0ull) : RandomLimbs(len, rng);
      std::vector<uint64_t> u =
          ones ? std::vector<uint64_t>(len, ~0ull) : RandomLimbs(len, rng);
      const uint64_t x = ones ? ~0ull : rng.NextUint64();
      BigInt expect = BigInt::FromLimbs(r) + BigInt::FromLimbs(u) *
                                                 BigInt::FromLimbs({x});
      std::vector<uint64_t> out = r;
      const uint64_t carry =
          mont_row::AddMulRowPortable(out.data(), u.data(), len, x);
      out.push_back(carry);
      EXPECT_EQ(BigInt::FromLimbs(out), expect) << "len=" << len;
    }
  }
}

#if defined(__x86_64__)
// Runs the ADX kernel and the portable reference on copies of the same
// operands and expects the same limbs and the same carry.
void ExpectAdxRowMatchesPortable(const std::vector<uint64_t>& r,
                                 const std::vector<uint64_t>& u, uint64_t x) {
  std::vector<uint64_t> want = r, got = r;
  const uint64_t want_carry =
      mont_row::AddMulRowPortable(want.data(), u.data(), u.size(), x);
  const uint64_t got_carry =
      mont_row::AddMulRowAdx(got.data(), u.data(), u.size(), x);
  EXPECT_EQ(got, want) << "len=" << u.size();
  EXPECT_EQ(got_carry, want_carry) << "len=" << u.size();
}
#endif

TEST(MontRowTest, AdxRowMatchesPortableAtEveryLength) {
#if defined(__x86_64__)
  if (!mont_row::CpuHasBmi2Adx()) GTEST_SKIP() << "CPU lacks BMI2/ADX";
  Rng rng(91);
  const std::vector<uint64_t> kEdges = {0, 1, ~0ull, ~0ull - 1, 1ull << 63};
  for (size_t len = 0; len <= 130; ++len) {
    for (int trial = 0; trial < 8; ++trial) {
      ExpectAdxRowMatchesPortable(RandomLimbs(len, rng), RandomLimbs(len, rng),
                                  rng.NextUint64());
    }
    const std::vector<uint64_t> ones(len, ~0ull), zeros(len, 0);
    for (uint64_t x : kEdges) {
      ExpectAdxRowMatchesPortable(ones, ones, x);
      ExpectAdxRowMatchesPortable(zeros, ones, x);
      ExpectAdxRowMatchesPortable(ones, zeros, x);
      ExpectAdxRowMatchesPortable(RandomLimbs(len, rng), ones, x);
    }
  }
#else
  GTEST_SKIP() << "the ADX row kernel exists only on x86-64";
#endif
}

TEST(MontRowTest, ActiveKernelFollowsCpuid) {
#if defined(__x86_64__)
  EXPECT_EQ(mont_row::ActiveAddMulRow(),
            mont_row::CpuHasBmi2Adx() ? &mont_row::AddMulRowAdx
                                      : &mont_row::AddMulRowPortable);
#else
  EXPECT_EQ(mont_row::ActiveAddMulRow(), &mont_row::AddMulRowPortable);
#endif
}

// -- Limb counts the protocol uses --------------------------------------------

// A random odd modulus of exactly `limbs` 64-bit limbs (top bit set).
BigInt RandomModulus(int limbs, Rng& rng) {
  BigInt m = BigInt::RandomBits(64 * limbs, rng);
  if (m.IsEven()) m = m + BigInt(1);
  return m;
}

// Limb counts of n^2 and p^2 at 1024/2048/3072-bit keys (16, 32, 48, 64,
// 96) plus small counts covering every residue mod 4, so the kernel's
// 4-limb body and its tail both run under every product shape.
class MontgomeryLimbSweep : public ::testing::TestWithParam<int> {};

TEST_P(MontgomeryLimbSweep, ProductsMatchNaive) {
  const int limbs = GetParam();
  Rng rng(600 + limbs);
  const BigInt m = RandomModulus(limbs, rng);
  Montgomery ctx(m);
  for (int i = 0; i < 6; ++i) {
    BigInt a = BigInt::RandomBelow(m, rng);
    BigInt b = BigInt::RandomBelow(m, rng);
    EXPECT_EQ(ctx.ModMul(a, b), (a * b).Mod(m));
    EXPECT_EQ(ctx.MontSqr(a), (a * a).Mod(m));
  }
  // m - 1 has the longest carry runs a row over this modulus can see.
  const BigInt top = m - BigInt(1);
  EXPECT_EQ(ctx.ModMul(top, top), BigInt(1));
  EXPECT_EQ(ctx.MontSqr(top), BigInt(1));
}

TEST_P(MontgomeryLimbSweep, MontExpMatchesNaive) {
  const int limbs = GetParam();
  Rng rng(700 + limbs);
  const BigInt m = RandomModulus(limbs, rng);
  Montgomery ctx(m);
  // The exponent length only picks the window; a short one keeps the
  // division-based reference quick at 96 limbs.
  for (int exp_bits : {5, 150}) {
    BigInt base = BigInt::RandomBelow(m, rng);
    BigInt exp = BigInt::RandomBits(exp_bits, rng);
    EXPECT_EQ(ctx.MontExp(base, exp), NaiveModExp(base, exp, m))
        << "exp_bits=" << exp_bits;
  }
}

TEST_P(MontgomeryLimbSweep, AllOnesModulusMaxCarry) {
  // n = 2^(64k) - 1: every limb of n, of n - 1 and of the reduction
  // multiplier rows is all ones or nearly so.
  const int limbs = GetParam();
  const BigInt m = (BigInt(1) << (64 * limbs)) - BigInt(1);
  Montgomery ctx(m);
  const BigInt a = m - BigInt(1);
  const BigInt b = m - BigInt(2);
  EXPECT_EQ(ctx.ModMul(a, b), (a * b).Mod(m));
  EXPECT_EQ(ctx.MontSqr(b), (b * b).Mod(m));
  EXPECT_EQ(ctx.MontExp(b, BigInt(65537)), NaiveModExp(b, BigInt(65537), m));
}

INSTANTIATE_TEST_SUITE_P(ProtocolLimbs, MontgomeryLimbSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 16, 17, 18,
                                           19, 32, 48, 64, 96));

TEST(MontgomeryTest, ModulusReferencesOfTwoContextsStayDistinct) {
  const Montgomery m1(BigInt(101));
  const Montgomery m2(BigInt(103));
  const BigInt& n1 = m1.modulus();
  const BigInt& n2 = m2.modulus();
  EXPECT_EQ(n1, BigInt(101));
  EXPECT_EQ(n2, BigInt(103));
  EXPECT_NE(&n1, &n2);
}

TEST(MontgomeryTest, ModMulMatchesPlain) {
  Rng rng(42);
  BigInt m = BigInt::RandomBits(256, rng);
  if (m.IsEven()) m = m + BigInt(1);
  Montgomery ctx(m);
  for (int i = 0; i < 50; ++i) {
    BigInt a = BigInt::RandomBelow(m, rng);
    BigInt b = BigInt::RandomBelow(m, rng);
    EXPECT_EQ(ctx.ModMul(a, b), (a * b).Mod(m));
  }
}

TEST(MontgomeryTest, MontSqrMatchesGenericPaths) {
  Rng rng(77);
  for (int bits : {8, 64, 192, 512, 1024}) {
    BigInt m = BigInt::RandomBits(bits, rng);
    if (m.IsEven()) m = m + BigInt(1);
    Montgomery ctx(m);
    for (int i = 0; i < 20; ++i) {
      BigInt a = BigInt::RandomBelow(m, rng);
      BigInt expect = (a * a).Mod(m);
      EXPECT_EQ(ctx.MontSqr(a), expect) << "bits=" << bits;
      EXPECT_EQ(ctx.ModMul(a, a), expect) << "bits=" << bits;
    }
    // Edge values.
    EXPECT_EQ(ctx.MontSqr(BigInt(0)), BigInt(0));
    EXPECT_EQ(ctx.MontSqr(BigInt(1)), BigInt(1) % m);
    EXPECT_EQ(ctx.MontSqr(m - BigInt(1)), (BigInt(1)).Mod(m));  // (-1)^2
  }
}

TEST(MontgomeryTest, SlidingWindowMatchesNaiveAcrossExponentSizes) {
  // Exercise every window width the sliding-window selector can pick
  // (2..6 bits) against the naive generic path.
  Rng rng(78);
  BigInt m = BigInt::RandomBits(512, rng);
  if (m.IsEven()) m = m + BigInt(1);
  Montgomery ctx(m);
  for (int exp_bits : {1, 2, 3, 17, 64, 100, 300, 700, 1100}) {
    for (int i = 0; i < 5; ++i) {
      BigInt base = BigInt::RandomBelow(m, rng);
      BigInt exp = BigInt::RandomBits(exp_bits, rng);
      EXPECT_EQ(ctx.MontExp(base, exp), NaiveModExp(base, exp, m))
          << "exp_bits=" << exp_bits;
    }
  }
  // All-ones exponents stress maximal windows; sparse ones stress runs of
  // squarings.
  BigInt ones = (BigInt(1) << 130) - BigInt(1);
  BigInt sparse = (BigInt(1) << 129) + BigInt(1);
  BigInt base = BigInt::RandomBelow(m, rng);
  EXPECT_EQ(ctx.MontExp(base, ones), NaiveModExp(base, ones, m));
  EXPECT_EQ(ctx.MontExp(base, sparse), NaiveModExp(base, sparse, m));
}

TEST(MontgomeryTest, EdgeExponents) {
  Montgomery ctx(BigInt(101));
  EXPECT_EQ(ctx.ModExp(BigInt(5), BigInt(0)), BigInt(1));
  EXPECT_EQ(ctx.ModExp(BigInt(5), BigInt(1)), BigInt(5));
  EXPECT_EQ(ctx.ModExp(BigInt(0), BigInt(5)), BigInt(0));
  EXPECT_EQ(ctx.ModExp(BigInt(100), BigInt(2)), BigInt(1));  // (-1)^2
}

TEST(MontgomeryTest, FermatLittleTheorem) {
  Rng rng(7);
  BigInt p = GeneratePrime(192, rng);
  Montgomery ctx(p);
  for (int i = 0; i < 10; ++i) {
    BigInt a = BigInt::RandomBelow(p - BigInt(2), rng) + BigInt(1);
    EXPECT_EQ(ctx.ModExp(a, p - BigInt(1)), BigInt(1));
  }
}

TEST(PrimesTest, SmallKnownPrimes) {
  Rng rng(1);
  for (uint64_t p : {2ull, 3ull, 5ull, 7ull, 97ull, 251ull, 257ull, 65537ull,
                     2147483647ull}) {
    EXPECT_TRUE(IsProbablePrime(BigInt(p), rng)) << p;
  }
}

TEST(PrimesTest, SmallKnownComposites) {
  Rng rng(2);
  for (uint64_t c : {1ull, 4ull, 9ull, 15ull, 91ull, 341ull, 561ull /*Carmichael*/,
                     1105ull, 1729ull, 6601ull, 41041ull, 825265ull}) {
    EXPECT_FALSE(IsProbablePrime(BigInt(c), rng)) << c;
  }
}

TEST(PrimesTest, LargeKnownPrime) {
  Rng rng(3);
  // 2^127 - 1 is a Mersenne prime.
  BigInt m127 = (BigInt(1) << 127) - BigInt(1);
  EXPECT_TRUE(IsProbablePrime(m127, rng));
  // 2^128 - 1 is composite.
  EXPECT_FALSE(IsProbablePrime((BigInt(1) << 128) - BigInt(1), rng));
}

TEST(PrimesTest, GeneratedPrimesHaveExactBitLengthAndPassTest) {
  Rng rng(4);
  for (int bits : {16, 32, 64, 128, 256}) {
    BigInt p = GeneratePrime(bits, rng);
    EXPECT_EQ(p.BitLength(), bits);
    EXPECT_TRUE(IsProbablePrime(p, rng));
  }
}

TEST(PrimesTest, SafePrimeStructure) {
  Rng rng(5);
  BigInt p = GenerateSafePrime(96, rng);
  EXPECT_EQ(p.BitLength(), 96);
  EXPECT_TRUE(IsProbablePrime(p, rng));
  BigInt q = (p - BigInt(1)) >> 1;
  EXPECT_TRUE(IsProbablePrime(q, rng));
}

}  // namespace
}  // namespace uldp
