#include <gtest/gtest.h>

#include "crypto/dh.h"
#include "math/fixed_base.h"
#include "math/montgomery.h"
#include "math/primes.h"

namespace uldp {
namespace {

TEST(FixedBaseTest, MatchesMontExpBitwise) {
  Rng rng(11);
  for (int bits : {64, 192, 521}) {
    BigInt m = GeneratePrime(bits, rng);
    Montgomery mont(m);
    for (int trial = 0; trial < 8; ++trial) {
      BigInt base = BigInt::RandomBelow(m, rng);
      FixedBaseTable table(mont, base, bits);
      for (int ebits : {1, 7, bits / 2, bits - 1, bits}) {
        BigInt exp = BigInt::RandomBits(ebits, rng);
        EXPECT_EQ(table.Exp(exp), mont.MontExp(base, exp))
            << bits << "-bit modulus, " << ebits << "-bit exponent";
      }
    }
  }
}

TEST(FixedBaseTest, EdgeBasesAndExponents) {
  Rng rng(12);
  BigInt m = GeneratePrime(256, rng);
  Montgomery mont(m);
  for (const BigInt& base :
       {BigInt(0), BigInt(1), BigInt(2), m - BigInt(1)}) {
    FixedBaseTable table(mont, base, 256);
    for (const BigInt& exp :
         {BigInt(0), BigInt(1), BigInt(2), BigInt(3), BigInt(1) << 255,
          m - BigInt(1)}) {
      EXPECT_EQ(table.Exp(exp), mont.MontExp(base, exp))
          << "base " << base.ToDecimal();
    }
  }
  // Exponent 0 on any base is 1 — including base 0 (MontExp convention).
  FixedBaseTable zero(mont, BigInt(0), 256);
  EXPECT_EQ(zero.Exp(BigInt(0)), BigInt(1));
}

TEST(FixedBaseTest, AllWindowWidthsAgree) {
  // expected_uses drives window selection; every width must compute the
  // same (bitwise) result.
  Rng rng(13);
  BigInt m = GeneratePrime(320, rng);
  Montgomery mont(m);
  BigInt base = BigInt::RandomBelow(m, rng);
  BigInt exp = BigInt::RandomBits(320, rng);
  BigInt want = mont.MontExp(base, exp);
  int distinct_windows = 0;
  int last_w = -1;
  for (size_t uses : {0u, 1u, 4u, 32u, 512u, 100000u}) {
    FixedBaseTable table(mont, base, 320, uses);
    if (table.window_bits() != last_w) {
      last_w = table.window_bits();
      ++distinct_windows;
    }
    EXPECT_EQ(table.Exp(exp), want) << "uses hint " << uses;
  }
  // The hint must actually steer the width (narrow for throwaway tables,
  // wide for heavy reuse), otherwise the sweep above tested one code path.
  EXPECT_GE(distinct_windows, 2);
}

TEST(FixedBaseTest, SmallMaxBitsAndShortTables) {
  Rng rng(14);
  BigInt m = GeneratePrime(96, rng);
  Montgomery mont(m);
  BigInt base = BigInt::RandomBelow(m, rng);
  for (int max_bits : {1, 2, 3, 9}) {
    FixedBaseTable table(mont, base, max_bits);
    for (uint64_t e = 0; e < (1ull << max_bits) && e < 64; ++e) {
      EXPECT_EQ(table.Exp(BigInt(e)), mont.MontExp(base, BigInt(e)))
          << "max_bits " << max_bits << " exp " << e;
    }
  }
}

TEST(FixedBaseTest, CombMatchesMontExpAtEdgeExponentLengths) {
  Rng rng(16);
  for (int bits : {96, 320, 521}) {
    BigInt m = GeneratePrime(bits, rng);
    Montgomery mont(m);
    BigInt base = BigInt::RandomBelow(m, rng);
    FixedBaseTable comb(mont, base, bits, 4096);
    for (int ebits : {1, 2, 7, bits / 2, bits - 1, bits}) {
      BigInt exp = BigInt::RandomBits(ebits, rng);
      EXPECT_EQ(comb.Exp(exp), mont.MontExp(base, exp))
          << bits << "/" << ebits;
    }
    EXPECT_EQ(comb.Exp(BigInt(0)), BigInt(1));
  }
}

TEST(FixedBaseTest, DhGeneratorTableMatchesGenericExp) {
  Rng rng(15);
  DhGroup group = DhGroup::GenerateSafePrimeGroup(192, rng);
  // Before the table exists, ExpG falls back to the generic path.
  BigInt e1 = BigInt::RandomBelow(group.p - BigInt(3), rng) + BigInt(2);
  BigInt fallback = group.ExpG(e1);
  EXPECT_EQ(fallback, group.Exp(group.g, e1));
  group.EnsureGeneratorTable();
  EXPECT_EQ(group.ExpG(e1), fallback);
  for (int i = 0; i < 16; ++i) {
    BigInt e = BigInt::RandomBelow(group.p - BigInt(3), rng) + BigInt(2);
    EXPECT_EQ(group.ExpG(e), group.Exp(group.g, e));
  }
  // Copies of the group share the table (one build per protocol, not one
  // per OT round).
  DhGroup copy = group;
  EXPECT_EQ(copy.g_table.get(), group.g_table.get());
  EXPECT_EQ(copy.ExpG(e1), fallback);
}

}  // namespace
}  // namespace uldp
