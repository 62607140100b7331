#include "crypto/paillier_ctx.h"

#include "common/check.h"

namespace uldp {

namespace {

// The randomizer combs serve every encryption under the key, so they are
// shaped for many uses: the fastest per-use comb within the entry cap,
// which holds the two tables to 126 KiB at 3072-bit keys on the IFMA
// kernel (95 KiB on the 64-bit rows).
constexpr size_t kRandomizerCombUses = size_t{1} << 20;
constexpr size_t kRandomizerCombEntries = 128;

}  // namespace

PaillierContext::PaillierContext(const PaillierPublicKey& pk)
    : pk_(pk), mont_n2_(pk.n_squared) {
  ULDP_CHECK_MSG(pk_.n_squared == pk_.n * pk_.n,
                 "public key n_squared inconsistent with n");
}

PaillierContext::PaillierContext(const PaillierPublicKey& pk,
                                 const PaillierSecretKey& sk, Rng& base_rng)
    : PaillierContext(pk) {
  ULDP_CHECK_MSG(sk.p * sk.q == pk.n, "secret key factors do not match n");
  has_sk_ = true;
  p_ = sk.p;
  q_ = sk.q;
  p2_ = p_ * p_;
  q2_ = q_ * q_;
  p_minus_1_ = p_ - BigInt(1);
  q_minus_1_ = q_ - BigInt(1);
  mont_p2_ = std::make_unique<Montgomery>(p2_);
  mont_q2_ = std::make_unique<Montgomery>(q2_);
  // Every CRT constant follows from one inverse u = q^{-1} mod p. Write
  // q*u = 1 + k*p, so p^{-1} = -k mod q with 0 < k < q.
  //   * h_p = L_p((1+n)^(p-1) mod p^2)^{-1} mod p. With g = n + 1 and
  //     n^2 = 0 mod p^2, (1+n)^(p-1) = 1 + (p-1)*n mod p^2, so the L_p
  //     value is ((p-1)*n mod p^2) / p = (p-1)*q = -q mod p, and
  //     h_p = -u mod p. Likewise the L_q value is -p mod q, and h_q = k.
  //   * One Newton step lifts u to q^{-1} = u*(2 - q*u) = u*(1 - k*p)
  //     mod p^2, whose square is the Garner constant (q^2)^{-1} mod p^2.
  auto qinv = q_.ModInverse(p_);
  ULDP_CHECK_MSG(qinv.ok(), "CRT precompute: q not invertible mod p");
  q_inv_mod_p_ = std::move(qinv.value());
  const BigInt k = (q_ * q_inv_mod_p_ - BigInt(1)) / p_;
  h_p_ = p_ - q_inv_mod_p_;
  h_q_ = k;
  const BigInt q_inv_mod_p2 = (q_inv_mod_p_ * (BigInt(1) - k * p_)).Mod(p2_);
  q2_inv_mod_p2_ = q_inv_mod_p2.ModMul(q_inv_mod_p2, p2_);
  // Randomizer base: DrawUnit redraws x until gcd(x, n) = 1, so h = -x^2
  // and h_s = h^n are units, and h_s has order dividing p - 1 mod p^2 (an
  // n-th power in a group of order p(p-1)) and q - 1 mod q^2. In that
  // order-(p-1) subgroup an element is the p-th power of its residue mod
  // p, and h^n = h^q mod p, so h^n mod p^2 = ((h mod p)^q mod p)^p mod p^2:
  // two half-size exponents instead of an n-bit one. Likewise over q^2.
  const BigInt x = Paillier::DrawUnit(pk_, base_rng);
  const BigInt h = pk_.n - (x * x).Mod(pk_.n);
  const BigInt hs_p = mont_p2_->MontExp(h.Mod(p_).ModExp(q_, p_), p_);
  const BigInt hs_q = mont_q2_->MontExp(h.Mod(q_).ModExp(p_, q_), q_);
  h_s_ = JoinSquares(hs_p, hs_q);
  // p - 1 has p's bit length, so a mod (p - 1) fits the comb.
  comb_p2_ = std::make_unique<FixedBaseTable>(
      *mont_p2_, hs_p, p_.BitLength(), kRandomizerCombUses,
      kRandomizerCombEntries);
  comb_q2_ = std::make_unique<FixedBaseTable>(
      *mont_q2_, hs_q, q_.BitLength(), kRandomizerCombUses,
      kRandomizerCombEntries);
}

Status PaillierContext::CheckPlaintext(const BigInt& m) const {
  if (m.IsNegative() || m >= pk_.n) {
    return Status::InvalidArgument(
        "Paillier plaintext must be in [0, n); map signed values with the "
        "fixed-point codec first");
  }
  return Status::Ok();
}

Status PaillierContext::CheckCiphertext(const BigInt& c) const {
  if (c.IsNegative() || c >= pk_.n_squared) {
    return Status::InvalidArgument("ciphertext out of range [0, n^2)");
  }
  return Status::Ok();
}

BigInt PaillierContext::JoinSquares(const BigInt& x_p,
                                    const BigInt& x_q) const {
  const BigInt h = x_p.ModSub(x_q.Mod(p2_), p2_).ModMul(q2_inv_mod_p2_, p2_);
  return x_q + q2_ * h;
}

BigInt PaillierContext::ComputeRandomizer(Rng& rng) const {
  if (!has_sk_) return mont_n2_.MontExp(Paillier::DrawUnit(pk_, rng), pk_.n);
  const BigInt a =
      BigInt::RandomBits(pk_.n.BitLength() + kExponentSlackBits, rng);
  return JoinSquares(comb_p2_->Exp(a.Mod(p_minus_1_)),
                     comb_q2_->Exp(a.Mod(q_minus_1_)));
}

Result<BigInt> PaillierContext::Encrypt(const BigInt& m, Rng& rng) const {
  ULDP_RETURN_IF_ERROR(CheckPlaintext(m));
  return Paillier::ComposeCiphertext(pk_, m, ComputeRandomizer(rng));
}

Result<std::vector<BigInt>> PaillierContext::EncryptBatch(
    const std::vector<BigInt>& ms, const std::function<Rng(size_t)>& fork,
    ThreadPool& pool) const {
  // Fail fast on range errors (limb comparisons) before any randomizer.
  for (const BigInt& m : ms) ULDP_RETURN_IF_ERROR(CheckPlaintext(m));
  std::vector<BigInt> out(ms.size());
  pool.ParallelFor(ms.size(), [&](size_t i) {
    Rng rng = fork(i);
    out[i] = Paillier::ComposeCiphertext(pk_, ms[i], ComputeRandomizer(rng));
  });
  return out;
}

Result<BigInt> PaillierContext::Decrypt(const BigInt& c) const {
  if (!has_sk_) {
    return Status::FailedPrecondition(
        "PaillierContext built without a secret key cannot decrypt");
  }
  ULDP_RETURN_IF_ERROR(CheckCiphertext(c));
  // c is a unit mod n^2 iff neither p nor q divides it, and p | c iff
  // p | (c mod p^2): the residues CRT needs anyway answer the check
  // without a gcd.
  const BigInt c_p2 = c.Mod(p2_);
  const BigInt c_q2 = c.Mod(q2_);
  if (c_p2.Mod(p_).IsZero() || c_q2.Mod(q_).IsZero()) {
    return Status::InvalidArgument("ciphertext not in Z*_{n^2}");
  }
  // Write c = (1+n)^a * b^n mod n^2. Then c^(p-1) = 1 + a(p-1)n mod p^2
  // (the b-part has order dividing p-1 . p and vanishes), so
  //   m_p = L_p(c^(p-1) mod p^2) * h_p = a mod p,
  // and symmetrically m_q = a mod q. Garner recombination returns the
  // same a in [0, n) the classic L(c^lambda)*mu path produces.
  BigInt xp = mont_p2_->MontExp(c_p2, p_minus_1_);
  BigInt mp = ((xp - BigInt(1)) / p_).ModMul(h_p_, p_);
  BigInt xq = mont_q2_->MontExp(c_q2, q_minus_1_);
  BigInt mq = ((xq - BigInt(1)) / q_).ModMul(h_q_, q_);
  BigInt h = mp.ModSub(mq.Mod(p_), p_).ModMul(q_inv_mod_p_, p_);
  return mq + q_ * h;
}

BigInt PaillierContext::AddCiphertexts(const BigInt& c1,
                                       const BigInt& c2) const {
  // A lone modular multiply gains nothing from the cached context (plain
  // multiply + reduce beats a Montgomery round trip), so these delegate to
  // the static implementation — one copy of the code, one behavior.
  return Paillier::AddCiphertexts(pk_, c1, c2);
}

BigInt PaillierContext::AddPlaintext(const BigInt& c, const BigInt& k) const {
  return Paillier::AddPlaintext(pk_, c, k);
}

BigInt PaillierContext::MulPlaintext(const BigInt& c, const BigInt& k) const {
  // Match the cold path's base reduction (BigInt::ModExp reduces first) so
  // out-of-range ciphertexts behave identically on both paths; in-range
  // values — the hot path — pay only a limb comparison.
  if (c.IsNegative() || c >= pk_.n_squared) {
    return mont_n2_.MontExp(c.Mod(pk_.n_squared), k.Mod(pk_.n));
  }
  return mont_n2_.MontExp(c, k.Mod(pk_.n));
}

FixedBaseTable PaillierContext::MakeMulPlaintextTable(
    const BigInt& c, size_t expected_uses) const {
  // Same base reduction as MulPlaintext so out-of-range ciphertexts build
  // the table MontExp would have seen.
  if (c.IsNegative() || c >= pk_.n_squared) {
    return FixedBaseTable(mont_n2_, c.Mod(pk_.n_squared), pk_.n.BitLength(),
                          expected_uses);
  }
  return FixedBaseTable(mont_n2_, c, pk_.n.BitLength(), expected_uses);
}

BigInt PaillierContext::MulPlaintextWithTable(const FixedBaseTable& table,
                                              const BigInt& k) const {
  return table.Exp(k.Mod(pk_.n));
}

Result<BigInt> PaillierContext::Rerandomize(const BigInt& c, Rng& rng) const {
  auto zero = Encrypt(BigInt(0), rng);
  if (!zero.ok()) return zero.status();
  return AddCiphertexts(c, zero.value());
}

}  // namespace uldp
