// Tests for the cached-context Paillier fast path: CRT decryption must be
// bitwise-identical to the classic path, eval-only encryption must be
// bitwise the static shim's, the key holder's comb randomizer must equal
// h_s^a mod n^2 computed directly and decrypt to 0, batch encryption must
// equal serial encryption at any thread count, and the parallel key
// generation must be thread-count-invariant.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "crypto/paillier_ctx.h"

namespace uldp {
namespace {

class PaillierCtxFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new Rng(4711);
    pk_ = new PaillierPublicKey();
    sk_ = new PaillierSecretKey();
    ASSERT_TRUE(Paillier::GenerateKeyPair(512, *rng_, pk_, sk_).ok());
    Rng base(4712);
    ctx_ = new PaillierContext(*pk_, *sk_, base);
  }
  static void TearDownTestSuite() {
    delete ctx_;
    delete sk_;
    delete pk_;
    delete rng_;
  }
  static Rng* rng_;
  static PaillierPublicKey* pk_;
  static PaillierSecretKey* sk_;
  static PaillierContext* ctx_;
};

Rng* PaillierCtxFixture::rng_ = nullptr;
PaillierPublicKey* PaillierCtxFixture::pk_ = nullptr;
PaillierSecretKey* PaillierCtxFixture::sk_ = nullptr;
PaillierContext* PaillierCtxFixture::ctx_ = nullptr;

TEST_F(PaillierCtxFixture, CrtDecryptionBitwiseEqualsClassic) {
  for (int i = 0; i < 20; ++i) {
    BigInt m = BigInt::RandomBelow(pk_->n, *rng_);
    BigInt c = Paillier::Encrypt(*pk_, m, *rng_).value();
    BigInt classic = Paillier::Decrypt(*pk_, *sk_, c).value();
    BigInt crt = ctx_->Decrypt(c).value();
    EXPECT_EQ(crt, classic);
    EXPECT_EQ(crt, m);
  }
}

TEST_F(PaillierCtxFixture, CrtDecryptionEdgePlaintexts) {
  for (const BigInt& m : {BigInt(0), BigInt(1), pk_->n - BigInt(1)}) {
    BigInt c = Paillier::Encrypt(*pk_, m, *rng_).value();
    EXPECT_EQ(ctx_->Decrypt(c).value(), Paillier::Decrypt(*pk_, *sk_, c).value());
    EXPECT_EQ(ctx_->Decrypt(c).value(), m);
  }
}

TEST_F(PaillierCtxFixture, CrtDecryptionOnHomomorphicResults) {
  // Decryption agreement must hold on ciphertexts produced by the
  // protocol's homomorphic pipeline, not just fresh encryptions.
  BigInt m1(123456789), m2(987654321);
  BigInt c1 = ctx_->Encrypt(m1, *rng_).value();
  BigInt c2 = ctx_->Encrypt(m2, *rng_).value();
  BigInt k = BigInt::RandomBelow(pk_->n, *rng_);
  BigInt combined = ctx_->AddPlaintext(
      ctx_->AddCiphertexts(ctx_->MulPlaintext(c1, k), c2), BigInt(42));
  EXPECT_EQ(ctx_->Decrypt(combined).value(),
            Paillier::Decrypt(*pk_, *sk_, combined).value());
}

TEST_F(PaillierCtxFixture, ContextEncryptBitwiseEqualsStatic) {
  // Eval-only contexts keep r^n, so they match the static shim; the key
  // holder's comb randomizer is pinned by the tests further down.
  const PaillierContext eval(*pk_);
  Rng base(2026);
  for (int i = 0; i < 5; ++i) {
    BigInt m = BigInt::RandomBelow(pk_->n, *rng_);
    Rng r1 = base.Fork(1, i, 0);
    Rng r2 = base.Fork(1, i, 0);
    EXPECT_EQ(eval.Encrypt(m, r1).value(),
              Paillier::Encrypt(*pk_, m, r2).value());
  }
}

TEST_F(PaillierCtxFixture, HomomorphicOpsBitwiseEqualStatic) {
  BigInt m(31337);
  BigInt c = ctx_->Encrypt(m, *rng_).value();
  BigInt k = BigInt::RandomBelow(pk_->n, *rng_);
  EXPECT_EQ(ctx_->AddCiphertexts(c, c),
            Paillier::AddCiphertexts(*pk_, c, c));
  EXPECT_EQ(ctx_->AddPlaintext(c, k), Paillier::AddPlaintext(*pk_, c, k));
  EXPECT_EQ(ctx_->MulPlaintext(c, k), Paillier::MulPlaintext(*pk_, c, k));
  const PaillierContext eval(*pk_);
  Rng r1(99), r2(99), r3(99);
  EXPECT_EQ(eval.Rerandomize(c, r1).value(),
            Paillier::Rerandomize(*pk_, c, r2).value());
  const BigInt fresh = ctx_->Rerandomize(c, r3).value();
  EXPECT_NE(fresh, c);
  EXPECT_EQ(ctx_->Decrypt(fresh).value(), m);
}

TEST_F(PaillierCtxFixture, EncryptComposesComputeRandomizer) {
  // Encrypt consumes exactly ComputeRandomizer's draws, on both kinds of
  // context, so timing ComputeRandomizer times encryption's exponentiation.
  const PaillierContext eval(*pk_);
  Rng base(555);
  const PaillierContext* contexts[] = {ctx_, &eval};
  for (const PaillierContext* ctx : contexts) {
    for (uint64_t i = 0; i < 6; ++i) {
      const BigInt m = BigInt::RandomBelow(pk_->n, *rng_);
      Rng a = base.Fork(7, i, kRngStreamEncrypt);
      Rng b = base.Fork(7, i, kRngStreamEncrypt);
      EXPECT_EQ(ctx->Encrypt(m, a).value(),
                Paillier::ComposeCiphertext(*pk_, m, ctx->ComputeRandomizer(b)))
          << "holder=" << ctx->has_secret_key() << " i=" << i;
      EXPECT_EQ(a.NextUint64(), b.NextUint64());
    }
  }
}

TEST_F(PaillierCtxFixture, EncryptBatchThreadCountInvariant) {
  Rng base(556);
  const size_t count = 12;
  auto fork = [&](size_t i) { return base.Fork(3, i, kRngStreamEncrypt); };
  std::vector<BigInt> ms(count);
  for (size_t i = 0; i < count; ++i) {
    ms[i] = BigInt::RandomBelow(pk_->n, *rng_);
  }
  std::vector<BigInt> expected(count);
  for (size_t i = 0; i < count; ++i) {
    Rng r = fork(i);
    expected[i] = ctx_->Encrypt(ms[i], r).value();
  }
  for (int threads : {1, 2, 5}) {
    ThreadPool pool(threads);
    auto batch = ctx_->EncryptBatch(ms, fork, pool);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch.value().size(), count);
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(batch.value()[i], expected[i])
          << "threads=" << threads << " i=" << i;
    }
  }
}

TEST_F(PaillierCtxFixture, EncryptBatchRejectsOutOfRange) {
  Rng base(557);
  auto fork = [&](size_t i) { return base.Fork(4, i, 0); };
  ThreadPool pool(2);
  EXPECT_FALSE(ctx_->EncryptBatch({BigInt(1), pk_->n}, fork, pool).ok());
}

TEST_F(PaillierCtxFixture, FixedBaseMulPlaintextBitwiseEqualsMulPlaintext) {
  Rng rng(31);
  for (int trial = 0; trial < 4; ++trial) {
    BigInt m = BigInt::RandomBelow(pk_->n, rng);
    BigInt c = ctx_->Encrypt(m, rng).value();
    FixedBaseTable table = ctx_->MakeMulPlaintextTable(c, /*expected_uses=*/64);
    for (const BigInt& k :
         {BigInt(0), BigInt(1), BigInt(2), BigInt::RandomBelow(pk_->n, rng),
          pk_->n - BigInt(1), pk_->n + BigInt(5)}) {
      EXPECT_EQ(ctx_->MulPlaintextWithTable(table, k), ctx_->MulPlaintext(c, k))
          << "trial " << trial << " k " << k.ToDecimal();
    }
  }
  // Out-of-range ciphertext: the table must see the same reduced base
  // MulPlaintext reduces to.
  BigInt big_c = pk_->n_squared + BigInt(12345);
  FixedBaseTable table = ctx_->MakeMulPlaintextTable(big_c, 4);
  BigInt k = BigInt::RandomBelow(pk_->n, rng);
  EXPECT_EQ(ctx_->MulPlaintextWithTable(table, k),
            ctx_->MulPlaintext(big_c, k));
}

TEST_F(PaillierCtxFixture, EvalOnlyContextCannotDecrypt) {
  PaillierContext eval(*pk_);
  EXPECT_FALSE(eval.has_secret_key());
  BigInt c = eval.Encrypt(BigInt(5), *rng_).value();
  EXPECT_FALSE(eval.Decrypt(c).ok());
  EXPECT_EQ(Paillier::Decrypt(*pk_, *sk_, c).value(), BigInt(5));
}

TEST_F(PaillierCtxFixture, DecryptRejectsOutOfRange) {
  EXPECT_FALSE(ctx_->Decrypt(pk_->n_squared).ok());
  EXPECT_FALSE(ctx_->Decrypt(BigInt(-3)).ok());
}

TEST_F(PaillierCtxFixture, DecryptRejectsNonUnitsLikeClassic) {
  // The CRT path reads p | c and q | c off its residues instead of a gcd;
  // it must reject exactly what the classic gcd(c, n^2) check rejects.
  for (const BigInt& c :
       {BigInt(0), sk_->p, sk_->q, BigInt(5) * sk_->p, pk_->n}) {
    EXPECT_EQ(ctx_->Decrypt(c).status().code(), StatusCode::kInvalidArgument)
        << c.ToDecimal();
    EXPECT_EQ(Paillier::Decrypt(*pk_, *sk_, c).status().code(),
              StatusCode::kInvalidArgument)
        << c.ToDecimal();
  }
}

// Hand-built keys with p = 11, q = 13: 23 of the 143 values below n are
// non-units, so about one first draw in six is rejected — by DrawUnit's
// retry loop on an eval-only randomizer, and by the redraw of the key
// holder's randomizer base x.
void MakeTinyKey(int p, int q, PaillierPublicKey* pk, PaillierSecretKey* sk) {
  sk->p = BigInt(p);
  sk->q = BigInt(q);
  sk->lambda = BigInt::Lcm(BigInt(p - 1), BigInt(q - 1));
  pk->n = sk->p * sk->q;
  pk->n_squared = pk->n * pk->n;
  pk->modulus_bits = pk->n.BitLength();
  sk->mu = sk->lambda.ModInverse(pk->n).value();
}

// The key holder's exponent a, drawn as ComputeRandomizer draws it.
BigInt DrawExponent(const PaillierPublicKey& pk, Rng& rng) {
  return BigInt::RandomBits(
      pk.n.BitLength() + PaillierContext::kExponentSlackBits, rng);
}

TEST(PaillierCtxTinyKeyTest, KeyHolderRandomizerBitwiseEqualsEvalOnly) {
  for (const auto& [p, q] : {std::pair{11, 13}, std::pair{13, 11}}) {
    PaillierPublicKey pk;
    PaillierSecretKey sk;
    MakeTinyKey(p, q, &pk, &sk);
    const PaillierContext eval(pk);
    // Every base stream yields a unit h_s, although about one first draw
    // of x in six is a non-unit.
    int non_unit_first_draws = 0;
    for (uint64_t seed = 1; seed <= 2000; ++seed) {
      Rng probe(seed);
      const BigInt first = BigInt::RandomBelow(pk.n, probe);
      if (BigInt::Gcd(first, pk.n) != BigInt(1)) ++non_unit_first_draws;
      Rng base(seed);
      const PaillierContext holder(pk, sk, base);
      ASSERT_EQ(BigInt::Gcd(holder.randomizer_base(), pk.n), BigInt(1))
          << "p=" << p << " seed=" << seed;
    }
    EXPECT_GT(non_unit_first_draws, 200) << "p=" << p;

    Rng base(7);
    const PaillierContext holder(pk, sk, base);
    const Montgomery& mont = holder.mont_n_squared();
    for (uint64_t seed = 1; seed <= 2000; ++seed) {
      Rng a(seed), b(seed);
      const BigInt rho = holder.ComputeRandomizer(a);
      EXPECT_EQ(rho, mont.MontExp(holder.randomizer_base(),
                                  DrawExponent(pk, b)))
          << "p=" << p << " seed=" << seed;
      // Same number of draws consumed, so later draws stay aligned.
      EXPECT_EQ(a.NextUint64(), b.NextUint64()) << "seed=" << seed;
      EXPECT_EQ(holder.Decrypt(rho).value(), BigInt(0)) << "seed=" << seed;

      const BigInt m(seed % 143);
      Rng c(seed), d(seed), e(seed);
      EXPECT_EQ(eval.Encrypt(m, e).value(),
                Paillier::Encrypt(pk, m, c).value())
          << "seed=" << seed;
      EXPECT_EQ(holder.Decrypt(holder.Encrypt(m, d).value()).value(), m)
          << "seed=" << seed;
    }
  }
}

// The key sizes Protocol 1 is deployed at: 2048 bits, and the paper's
// 3072 (n^2 and p^2 then run 64/96- and 32/48-limb Montgomery products).
// The seeds are fixed ones whose prime searches end quickly, so key
// generation stays short under sanitizers.
struct DeployedKey {
  int bits;
  uint64_t seed;
};

class PaillierDeployedKeyTest : public ::testing::TestWithParam<DeployedKey> {};

TEST_P(PaillierDeployedKeyTest, CrtDecryptTableFoldAndRoundTrip) {
  const DeployedKey param = GetParam();
  Rng rng(param.seed);
  PaillierPublicKey pk;
  PaillierSecretKey sk;
  ASSERT_TRUE(Paillier::GenerateKeyPair(param.bits, rng, &pk, &sk).ok());
  ASSERT_EQ(pk.n.BitLength(), param.bits);
  Rng base(param.seed + 2);
  const PaillierContext ctx(pk, sk, base);

  for (const BigInt& m :
       {BigInt(0), pk.n - BigInt(1), BigInt::RandomBelow(pk.n, rng)}) {
    const BigInt c = ctx.Encrypt(m, rng).value();
    const BigInt crt = ctx.Decrypt(c).value();
    EXPECT_EQ(crt, Paillier::Decrypt(pk, sk, c).value());
    EXPECT_EQ(crt, m);
  }

  const BigInt c = ctx.Encrypt(BigInt::RandomBelow(pk.n, rng), rng).value();
  const FixedBaseTable table = ctx.MakeMulPlaintextTable(c, 4);
  for (const BigInt& k :
       {BigInt(1), pk.n - BigInt(1), BigInt::RandomBelow(pk.n, rng)}) {
    EXPECT_EQ(ctx.MulPlaintextWithTable(table, k), ctx.MulPlaintext(c, k));
  }
}

TEST_P(PaillierDeployedKeyTest, KeyHolderRandomizersAndBatchMatchEvalOnly) {
  const DeployedKey param = GetParam();
  Rng rng(param.seed);
  PaillierPublicKey pk;
  PaillierSecretKey sk;
  ASSERT_TRUE(Paillier::GenerateKeyPair(param.bits, rng, &pk, &sk).ok());
  Rng holder_base(param.seed + 2);
  const PaillierContext holder(pk, sk, holder_base);
  const PaillierContext eval(pk);

  // The combs over p^2 and q^2 give h_s^a mod n^2, an encryption of 0.
  Rng base(param.seed + 1);
  auto fork = [&](size_t i) { return base.Fork(9, i, kRngStreamEncrypt); };
  const size_t count = 4;
  std::vector<BigInt> ms(count);
  std::vector<BigInt> expected(count);
  for (size_t i = 0; i < count; ++i) {
    ms[i] = BigInt::RandomBelow(pk.n, rng);
    Rng a = fork(i), b = fork(i), c = fork(i);
    const BigInt rho = holder.ComputeRandomizer(a);
    EXPECT_EQ(rho, eval.mont_n_squared().MontExp(holder.randomizer_base(),
                                                 DrawExponent(pk, b)))
        << "i=" << i;
    EXPECT_EQ(holder.Decrypt(rho).value(), BigInt(0)) << "i=" << i;
    expected[i] = holder.Encrypt(ms[i], c).value();
    EXPECT_EQ(holder.Decrypt(expected[i]).value(), ms[i]) << "i=" << i;
  }
  for (int threads : {1, 2, 5}) {
    ThreadPool pool(threads);
    auto batch = holder.EncryptBatch(ms, fork, pool);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(batch.value(), expected) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DeployedKeySizes, PaillierDeployedKeyTest,
    ::testing::Values(DeployedKey{2048, 14048}, DeployedKey{3072, 13072}),
    [](const ::testing::TestParamInfo<DeployedKey>& info) {
      return std::to_string(info.param.bits);
    });

TEST(PaillierKeygenParallelTest, ThreadCountInvariant) {
  // The same seed must yield the same key pair whatever pool executes the
  // two prime searches.
  PaillierPublicKey pk1, pk2, pk3;
  PaillierSecretKey sk1, sk2, sk3;
  ThreadPool one(1), three(3);
  Rng r1(2468), r2(2468), r3(2468);
  ASSERT_TRUE(Paillier::GenerateKeyPair(256, r1, &pk1, &sk1, &one).ok());
  ASSERT_TRUE(Paillier::GenerateKeyPair(256, r2, &pk2, &sk2, &three).ok());
  ASSERT_TRUE(Paillier::GenerateKeyPair(256, r3, &pk3, &sk3).ok());
  EXPECT_EQ(pk1.n, pk2.n);
  EXPECT_EQ(sk1.p, sk2.p);
  EXPECT_EQ(sk1.q, sk2.q);
  EXPECT_EQ(pk1.n, pk3.n);
}

TEST(PaillierKeygenParallelTest, SameRngSuccessiveCallsDiffer) {
  // Keygen consumes a salt draw, so two calls on one generator do not
  // repeat keys (the pre-parallelism behavior).
  PaillierPublicKey pk1, pk2;
  PaillierSecretKey sk1, sk2;
  Rng rng(13);
  ASSERT_TRUE(Paillier::GenerateKeyPair(128, rng, &pk1, &sk1).ok());
  ASSERT_TRUE(Paillier::GenerateKeyPair(128, rng, &pk2, &sk2).ok());
  EXPECT_NE(pk1.n, pk2.n);
}

}  // namespace
}  // namespace uldp
