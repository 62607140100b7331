// Cross-kernel tests: the radix-2^52 IFMA kernel against the 64-bit rows
// on the same moduli, through every Montgomery entry point and the
// fixed-base, multi-exponentiation and Paillier paths built on them.

#include <gtest/gtest.h>

#include <vector>

#include "crypto/paillier.h"
#include "crypto/paillier_ctx.h"
#include "math/fixed_base.h"
#include "math/mont_ifma.h"
#include "math/mont_row.h"
#include "math/montgomery.h"
#include "math/multi_exp.h"

namespace uldp {
namespace {

// The 64-bit path a context takes on this CPU when IFMA does not apply.
MontKernel RowKernel() {
  return mont_row::CpuHasBmi2Adx() ? MontKernel::kAdx : MontKernel::kPortable;
}

// A random odd modulus of exactly `bits` bits.
BigInt RandomModulus(int bits, Rng& rng) {
  BigInt m = BigInt::RandomBits(bits, rng);
  if (m.IsEven()) m = m + BigInt(1);
  return m;
}

TEST(MontKernelTest, ContextPicksKernelFromCpuidAndModulusSize) {
  // IFMA serves 3 to 16 vectors of eight 52-bit digits: 833-6656 bits.
  for (int bits : {3, 64, 512, 768, 832, 833, 1024, 1248, 1249, 2048, 3072,
                   4096, 6144, 6656, 6657, 8192}) {
    const BigInt m = (BigInt(1) << (bits - 1)) + BigInt(1);
    const bool ifma = mont_ifma::CpuHasIfma() && bits >= 833 && bits <= 6656;
    EXPECT_EQ(Montgomery(m).kernel(), ifma ? MontKernel::kIfma : RowKernel())
        << "bits=" << bits;
    EXPECT_EQ(MontKernels::Available(MontKernel::kIfma, bits), ifma)
        << "bits=" << bits;
  }
  EXPECT_TRUE(MontKernels::Available(MontKernel::kPortable, 64));
  EXPECT_EQ(MontKernels::Available(MontKernel::kAdx, 64),
            mont_row::CpuHasBmi2Adx());
}

TEST(MontKernelTest, DigitsRoundTripLimbs) {
  Rng rng(31);
  for (int limbs : {1, 2, 13, 20, 33, 96}) {
    std::vector<uint64_t> x(limbs);
    for (uint64_t& limb : x) limb = rng.NextUint64();
    const size_t width = (64 * x.size() + 51) / 52;
    const std::vector<uint64_t> digits = mont_ifma::ToDigits(x, width);
    for (uint64_t d : digits) EXPECT_LE(d, mont_ifma::kDigitMask);
    EXPECT_EQ(BigInt::FromLimbs(mont_ifma::FromDigits(digits)),
              BigInt::FromLimbs(x))
        << "limbs=" << limbs;
  }
}

// Every operand shape the 64-bit path accepts: random residues, 0, 1,
// n - 1, and k-limb values at or above n up to 2^(64k) - 1, which can
// exceed the IFMA context's 2^(52 * 8 * vectors).
std::vector<BigInt> Operands(const BigInt& m, Rng& rng) {
  const int k = static_cast<int>(m.limbs().size());
  const BigInt limb_cap = BigInt(1) << (64 * k);
  return {BigInt::RandomBelow(m, rng),
          BigInt::RandomBelow(m, rng),
          BigInt(0),
          BigInt(1),
          m - BigInt(1),
          m,
          m + BigInt(1),
          m + BigInt::RandomBelow(limb_cap - m, rng),
          limb_cap - BigInt(1)};
}

class IfmaVectorSweep : public ::testing::TestWithParam<int> {};

TEST_P(IfmaVectorSweep, MatchesRowsBitwise) {
  const int bits = GetParam();
  if (!MontKernels::Available(MontKernel::kIfma, bits)) {
    GTEST_SKIP() << "CPU lacks AVX-512 IFMA";
  }
  Rng rng(900 + bits);
  const BigInt m = RandomModulus(bits, rng);
  const Montgomery rows = MontKernels::On(m, RowKernel());
  const Montgomery ifma = MontKernels::On(m, MontKernel::kIfma);
  ASSERT_EQ(ifma.kernel(), MontKernel::kIfma);
  const std::vector<BigInt> ops = Operands(m, rng);
  const BigInt exp = BigInt::RandomBits(150, rng);
  for (size_t i = 0; i < ops.size(); ++i) {
    const BigInt& a = ops[i];
    const BigInt& b = ops[(i + 3) % ops.size()];
    EXPECT_EQ(ifma.ModMul(a, b), rows.ModMul(a, b)) << "op " << i;
    EXPECT_EQ(ifma.MontSqr(a), rows.MontSqr(a)) << "op " << i;
    EXPECT_EQ(ifma.MontExp(a, exp), rows.MontExp(a, exp)) << "op " << i;
  }
  EXPECT_EQ(ifma.MontExp(ops[0], BigInt(0)), BigInt(1));
  // A full-length exponent walks the widest window over every digit.
  const BigInt full = BigInt::RandomBelow(m, rng);
  EXPECT_EQ(ifma.MontExp(ops[1], full), rows.MontExp(ops[1], full));
  // The top digit's edge: n - 1 squared is 1 on every kernel.
  EXPECT_EQ(ifma.MontSqr(m - BigInt(1)), BigInt(1));
}

// The low and high bit length of every vector count 3-16 (833-6656
// bits), plus 2049: the 2049-2080-bit range where a 33-limb value exceeds
// the five vectors' 2^2080.
std::vector<int> VectorCountEdges() {
  std::vector<int> bits;
  for (int v = mont_ifma::kMinVectors; v <= mont_ifma::kMaxVectors; ++v) {
    bits.push_back(mont_ifma::kLanes * mont_ifma::kDigitBits * (v - 1) + 1);
    bits.push_back(mont_ifma::kLanes * mont_ifma::kDigitBits * v);
  }
  bits.push_back(2049);
  return bits;
}

INSTANTIATE_TEST_SUITE_P(Bits, IfmaVectorSweep,
                         ::testing::ValuesIn(VectorCountEdges()));

TEST(MontKernelTest, AllOnesModulusMatchesRows) {
  // n = 2^bits - 1: every digit of n and of n - 1 is all ones or nearly.
  for (int bits : {1248, 2080, 6656}) {
    if (!MontKernels::Available(MontKernel::kIfma, bits)) {
      GTEST_SKIP() << "CPU lacks AVX-512 IFMA";
    }
    const BigInt m = (BigInt(1) << bits) - BigInt(1);
    const Montgomery rows = MontKernels::On(m, RowKernel());
    const Montgomery ifma = MontKernels::On(m, MontKernel::kIfma);
    const BigInt a = m - BigInt(1);
    const BigInt b = m - BigInt(2);
    EXPECT_EQ(ifma.ModMul(a, b), rows.ModMul(a, b)) << "bits=" << bits;
    EXPECT_EQ(ifma.MontSqr(b), rows.MontSqr(b)) << "bits=" << bits;
    EXPECT_EQ(ifma.MontExp(b, BigInt(65537)), rows.MontExp(b, BigInt(65537)))
        << "bits=" << bits;
  }
}

// n^2 at 1024-, 2048- and 3072-bit keys.
class IfmaKeySweep : public ::testing::TestWithParam<int> {};

TEST_P(IfmaKeySweep, FixedBaseAndMultiExpMatchRows) {
  const int key_bits = GetParam();
  if (!MontKernels::Available(MontKernel::kIfma, 2 * key_bits)) {
    GTEST_SKIP() << "CPU lacks AVX-512 IFMA";
  }
  Rng rng(950 + key_bits);
  const BigInt m = RandomModulus(2 * key_bits, rng);
  const Montgomery rows = MontKernels::On(m, RowKernel());
  const Montgomery ifma = MontKernels::On(m, MontKernel::kIfma);
  std::vector<BigInt> bases, exps;
  for (int i = 0; i < 4; ++i) {
    bases.push_back(BigInt::RandomBelow(m, rng));
    exps.push_back(BigInt::RandomBits(key_bits, rng));
  }
  const FixedBaseTable table(ifma, bases[0], key_bits, 16);
  EXPECT_EQ(table.Exp(exps[0]), rows.MontExp(bases[0], exps[0]));
  EXPECT_EQ(table.Exp(BigInt(0)), BigInt(1));
  const MultiExp ifma_multi(ifma, bases, key_bits, 2);
  const MultiExp rows_multi(rows, bases, key_bits, 2);
  EXPECT_EQ(ifma_multi.Product(exps), rows_multi.Product(exps));
}

TEST_P(IfmaKeySweep, PaillierMatchesRowReference) {
  const int key_bits = GetParam();
  if (!MontKernels::Available(MontKernel::kIfma, 2 * key_bits)) {
    GTEST_SKIP() << "CPU lacks AVX-512 IFMA";
  }
  Rng keyrng(960 + key_bits);
  PaillierPublicKey pk;
  PaillierSecretKey sk;
  ASSERT_TRUE(Paillier::GenerateKeyPair(key_bits, keyrng, &pk, &sk).ok());
  Rng base(965 + key_bits);
  const PaillierContext holder(pk, sk, base);
  const PaillierContext eval(pk);
  ASSERT_EQ(eval.mont_n_squared().kernel(), MontKernel::kIfma);
  // The reference recomputes every direction on the 64-bit rows mod n^2:
  // the eval-only (1 + m n) r^n for the same draw r, the key holder's comb
  // randomizer h_s^a for the same draw a, and L(c^lambda) mu.
  const Montgomery rows = MontKernels::On(pk.n_squared, RowKernel());
  Rng rng(970 + key_bits);
  for (int i = 0; i < 2; ++i) {
    const BigInt msg = BigInt::RandomBelow(pk.n, rng);
    Rng draw = rng;
    const BigInt r = Paillier::DrawUnit(pk, draw);
    const BigInt want =
        Paillier::ComposeCiphertext(pk, msg, rows.MontExp(r, pk.n));
    Rng eval_rng = rng;
    EXPECT_EQ(eval.Encrypt(msg, eval_rng).value(), want);
    Rng exp_rng = rng;
    const BigInt a = BigInt::RandomBits(
        pk.n.BitLength() + PaillierContext::kExponentSlackBits, exp_rng);
    const BigInt c = holder.Encrypt(msg, rng).value();
    EXPECT_EQ(c, Paillier::ComposeCiphertext(
                     pk, msg, rows.MontExp(holder.randomizer_base(), a)));
    const BigInt l = (rows.MontExp(c, sk.lambda) - BigInt(1)) / pk.n;
    EXPECT_EQ(holder.Decrypt(c).value(), l.ModMul(sk.mu, pk.n));
    EXPECT_EQ(holder.Decrypt(c).value(), msg);
  }
}

INSTANTIATE_TEST_SUITE_P(KeyBits, IfmaKeySweep,
                         ::testing::Values(1024, 2048, 3072));

}  // namespace
}  // namespace uldp
