#include <gtest/gtest.h>

#include <vector>

#include "crypto/paillier.h"
#include "crypto/paillier_ctx.h"
#include "math/montgomery.h"
#include "math/multi_exp.h"
#include "math/primes.h"

namespace uldp {
namespace {

// The reference MultiExp must match: a plain MontExp fold, skipping
// zero-exponent terms exactly as the weighting phase does.
BigInt LoopProduct(const Montgomery& mont, const std::vector<BigInt>& bases,
                   const std::vector<BigInt>& exps) {
  const BigInt& n = mont.modulus();
  BigInt acc = BigInt(1).Mod(n);
  for (size_t i = 0; i < bases.size(); ++i) {
    if (exps[i].IsZero()) continue;
    acc = acc.ModMul(mont.MontExp(bases[i], exps[i]), n);
  }
  return acc;
}

TEST(MultiExpTest, MatchesMontExpFoldBitwise) {
  Rng rng(31);
  for (int bits : {64, 192, 521}) {
    BigInt m = GeneratePrime(bits, rng);
    Montgomery mont(m);
    for (size_t batch : {1u, 2u, 7u, 33u, 64u}) {
      std::vector<BigInt> bases(batch), exps(batch);
      for (size_t i = 0; i < batch; ++i) {
        bases[i] = BigInt::RandomBelow(m, rng);
        exps[i] = BigInt::RandomBits(1 + static_cast<int>(i) % bits, rng);
      }
      MultiExp multi(mont, bases);
      EXPECT_EQ(multi.Product(exps), LoopProduct(mont, bases, exps))
          << bits << "-bit modulus, batch " << batch;
    }
  }
}

TEST(MultiExpTest, ZeroAndEdgeExponents) {
  Rng rng(32);
  BigInt m = GeneratePrime(256, rng);
  Montgomery mont(m);
  std::vector<BigInt> bases;
  for (int i = 0; i < 8; ++i) bases.push_back(BigInt::RandomBelow(m, rng));
  bases[3] = BigInt(0);  // a zero base with a nonzero exponent
  MultiExp multi(mont, bases);

  // All-zero exponents: empty product is 1.
  std::vector<BigInt> zeros(8, BigInt(0));
  EXPECT_EQ(multi.Product(zeros), BigInt(1));

  // A single active term degenerates to plain MontExp.
  std::vector<BigInt> one_hot(8, BigInt(0));
  one_hot[5] = BigInt::RandomBits(200, rng);
  EXPECT_EQ(multi.Product(one_hot), mont.MontExp(bases[5], one_hot[5]));

  // Mixed widths including maximal and unit exponents.
  std::vector<BigInt> exps = {BigInt(1),
                              m - BigInt(1),
                              BigInt(0),
                              BigInt(2),
                              BigInt(1) << 255,
                              BigInt(3),
                              BigInt::RandomBits(256, rng),
                              BigInt(0)};
  EXPECT_EQ(multi.Product(exps), LoopProduct(mont, bases, exps));
}

TEST(MultiExpTest, EmptyBatchYieldsOne) {
  Rng rng(33);
  BigInt m = GeneratePrime(128, rng);
  Montgomery mont(m);
  MultiExp multi(mont, {});
  EXPECT_EQ(multi.size(), 0u);
  EXPECT_EQ(multi.Product({}), BigInt(1));
}

// A random odd modulus of exactly `limbs` 64-bit limbs: Montgomery needs
// only oddness, and the limb count is what the Paillier n² sizes set.
BigInt RandomOddModulus(int limbs, Rng& rng) {
  const int bits = 64 * limbs;
  BigInt m = BigInt::RandomBits(bits, rng);
  if (m.BitLength() < bits) m = m + (BigInt(1) << (bits - 1));
  if (!m.IsOdd()) m = m + BigInt(1);
  return m;
}

// The smallest exponent-length hint for which WindowBits(hint, 1) == w.
int HintForWindow(int w) {
  for (int bits = 1; bits < (1 << 20); ++bits) {
    if (MultiExp::WindowBits(bits, 1) == w) return bits;
  }
  return -1;
}

TEST(MultiExpTest, WindowBitsMinimizesTheModeledCost) {
  for (int bits : {1, 5, 64, 512, 1024, 2048, 3072}) {
    int last = 0;
    for (size_t products : {1u, 2u, 4u, 16u, 64u, 1024u}) {
      const int w = MultiExp::WindowBits(bits, products);
      ASSERT_GE(w, 1);
      ASSERT_LE(w, MultiExp::kMaxWindow);
      EXPECT_GE(w, last) << "more products never narrow the window";
      last = w;
      const auto cost = [&](int v) {
        return static_cast<double>(1u << (v - 1)) +
               static_cast<double>(bits) * static_cast<double>(products) /
                   (v + 1);
      };
      for (int v = 1; v <= MultiExp::kMaxWindow; ++v) {
        EXPECT_LE(cost(w), cost(v)) << bits << " bits, " << products;
      }
    }
  }
}

TEST(MultiExpTest, EveryWindowMatchesMontExpFoldAtPaillierLimbCounts) {
  // n² of 1024-, 2048- and 3072-bit keys: 32, 64 and 96 limbs, with
  // exponents of the key's length. The reference fold does not depend on
  // the window, so each limb count computes it once.
  Rng rng(35);
  for (int limbs : {32, 64, 96}) {
    const BigInt m = RandomOddModulus(limbs, rng);
    Montgomery mont(m);
    std::vector<BigInt> bases(3), exps(3);
    for (size_t i = 0; i < bases.size(); ++i) {
      bases[i] = BigInt::RandomBelow(m, rng);
      exps[i] = BigInt::RandomBits(32 * limbs - 7 * static_cast<int>(i), rng);
    }
    const BigInt want = LoopProduct(mont, bases, exps);
    for (int w = 1; w <= MultiExp::kMaxWindow; ++w) {
      const int hint = HintForWindow(w);
      ASSERT_GT(hint, 0) << "no hint yields window " << w;
      MultiExp multi(mont, bases, hint, 1);
      ASSERT_EQ(multi.window_bits(), w);
      EXPECT_EQ(multi.Product(exps), want) << limbs << " limbs, w " << w;
    }
  }
}

TEST(MultiExpTest, MixedExponentShapesInOneCall) {
  // Ragged lengths, 1, powers of two, all-ones runs and m - 1 in a single
  // Product, over zero, one, and duplicate bases, at every window width.
  Rng rng(36);
  const BigInt m = RandomOddModulus(8, rng);
  Montgomery mont(m);
  const BigInt dup = BigInt::RandomBelow(m, rng);
  const std::vector<BigInt> bases = {BigInt(0),
                                     BigInt(1),
                                     dup,
                                     dup,
                                     BigInt::RandomBelow(m, rng),
                                     BigInt::RandomBelow(m, rng),
                                     BigInt::RandomBelow(m, rng),
                                     BigInt::RandomBelow(m, rng),
                                     m - BigInt(1)};
  const std::vector<BigInt> exps = {BigInt::RandomBits(300, rng),
                                    BigInt::RandomBits(512, rng),
                                    BigInt(1),
                                    BigInt(1) << 200,
                                    (BigInt(1) << 97) - BigInt(1),
                                    m - BigInt(1),
                                    BigInt(0),
                                    BigInt::RandomBits(3, rng),
                                    (BigInt(1) << 512) - BigInt(1)};
  const BigInt want = LoopProduct(mont, bases, exps);
  for (int w = 1; w <= MultiExp::kMaxWindow; ++w) {
    MultiExp multi(mont, bases, HintForWindow(w), 1);
    ASSERT_EQ(multi.window_bits(), w);
    EXPECT_EQ(multi.Product(exps), want) << "w " << w;
    EXPECT_EQ(multi.Product(std::vector<BigInt>(bases.size(), BigInt(0))),
              BigInt(1))
        << "w " << w;
  }
}

TEST(MultiExpTest, OneInstanceServesManyExponentVectors) {
  // The weighting fold's use: tables built once, one Product per packed
  // coordinate. The two-argument constructor is the one the ledger's layer
  // replay calls.
  Rng rng(37);
  const BigInt m = RandomOddModulus(16, rng);
  Montgomery mont(m);
  std::vector<BigInt> bases(11);
  for (BigInt& b : bases) b = BigInt::RandomBelow(m, rng);
  MultiExp two_arg(mont, bases);
  MultiExp hinted(mont, bases, 512, 12);
  EXPECT_NE(two_arg.window_bits(), hinted.window_bits());
  for (int c = 0; c < 12; ++c) {
    std::vector<BigInt> exps(bases.size());
    for (size_t i = 0; i < exps.size(); ++i) {
      exps[i] = (i + c) % 4 == 0 ? BigInt(0)
                                 : BigInt::RandomBits(1 + 97 * c % 512, rng);
    }
    const BigInt want = LoopProduct(mont, bases, exps);
    EXPECT_EQ(two_arg.Product(exps), want) << "vector " << c;
    EXPECT_EQ(hinted.Product(exps), want) << "vector " << c;
  }
}

TEST(MultiExpTest, PaillierCiphertextFoldMatchesMulPlaintext) {
  // The production use: fold user ciphertexts c_u^{s_u} mod n² and compare
  // against the per-ciphertext MulPlaintext path.
  Rng rng(34);
  PaillierPublicKey pk;
  PaillierSecretKey sk;
  ASSERT_TRUE(Paillier::GenerateKeyPair(512, rng, &pk, &sk).ok());
  PaillierContext ctx(pk);
  const size_t batch = 24;
  std::vector<BigInt> ciphers, scalars;
  for (size_t i = 0; i < batch; ++i) {
    auto c = ctx.Encrypt(BigInt::RandomBelow(pk.n, rng), rng);
    ASSERT_TRUE(c.ok());
    ciphers.push_back(c.value());
    scalars.push_back(i % 5 == 0 ? BigInt(0)
                                 : BigInt::RandomBelow(pk.n, rng));
  }
  BigInt loop = BigInt(1);
  for (size_t i = 0; i < batch; ++i) {
    if (scalars[i].IsZero()) continue;
    loop = ctx.AddCiphertexts(loop, ctx.MulPlaintext(ciphers[i], scalars[i]));
  }
  MultiExp multi(ctx.mont_n_squared(), ciphers);
  EXPECT_EQ(multi.Product(scalars), loop);
}

}  // namespace
}  // namespace uldp
