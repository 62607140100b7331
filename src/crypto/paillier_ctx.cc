#include "crypto/paillier_ctx.h"

#include "common/check.h"

namespace uldp {

PaillierContext::PaillierContext(const PaillierPublicKey& pk)
    : pk_(pk), mont_n2_(pk.n_squared) {
  ULDP_CHECK_MSG(pk_.n_squared == pk_.n * pk_.n,
                 "public key n_squared inconsistent with n");
}

PaillierContext::PaillierContext(const PaillierPublicKey& pk,
                                 const PaillierSecretKey& sk)
    : PaillierContext(pk) {
  ULDP_CHECK_MSG(sk.p * sk.q == pk.n, "secret key factors do not match n");
  has_sk_ = true;
  p_ = sk.p;
  q_ = sk.q;
  p2_ = p_ * p_;
  q2_ = q_ * q_;
  p_minus_1_ = p_ - BigInt(1);
  q_minus_1_ = q_ - BigInt(1);
  mont_p_ = std::make_unique<Montgomery>(p_);
  mont_q_ = std::make_unique<Montgomery>(q_);
  mont_p2_ = std::make_unique<Montgomery>(p2_);
  mont_q2_ = std::make_unique<Montgomery>(q2_);
  // h_p = L_p((1+n)^(p-1) mod p^2)^{-1} mod p. With g = n + 1 and
  // n^2 = 0 mod p^2, (1+n)^(p-1) = 1 + (p-1)*n mod p^2, so the L_p value
  // is ((p-1)*n mod p^2) / p = (p-1)*q mod p — a unit of F_p.
  BigInt lp = (p_minus_1_ * pk_.n).Mod(p2_) / p_;
  auto hp = lp.ModInverse(p_);
  ULDP_CHECK_MSG(hp.ok(), "CRT precompute: L_p value not invertible");
  h_p_ = std::move(hp.value());
  BigInt lq = (q_minus_1_ * pk_.n).Mod(q2_) / q_;
  auto hq = lq.ModInverse(q_);
  ULDP_CHECK_MSG(hq.ok(), "CRT precompute: L_q value not invertible");
  h_q_ = std::move(hq.value());
  auto qinv = q_.ModInverse(p_);
  ULDP_CHECK_MSG(qinv.ok(), "CRT precompute: q not invertible mod p");
  q_inv_mod_p_ = std::move(qinv.value());
  auto q2inv = q2_.ModInverse(p2_);
  ULDP_CHECK_MSG(q2inv.ok(), "CRT precompute: q^2 not invertible mod p^2");
  q2_inv_mod_p2_ = std::move(q2inv.value());
}

Status PaillierContext::CheckCiphertext(const BigInt& c) const {
  if (c.IsNegative() || c >= pk_.n_squared) {
    return Status::InvalidArgument("ciphertext out of range [0, n^2)");
  }
  return Status::Ok();
}

BigInt PaillierContext::ComputeRandomizer(Rng& rng) const {
  // Paillier::DrawUnit keeps the draw sequence identical to the static
  // Encrypt; only the exponentiation differs.
  const BigInt r = Paillier::DrawUnit(pk_, rng);
  if (!has_sk_) return mont_n2_.MontExp(r, pk_.n);
  // r^n mod p^2 depends only on r mod p (p | n kills the linear binomial
  // term) and lies in the order-(p-1) subgroup of Z*_{p^2}, which reduction
  // mod p maps one-to-one onto Z*_p. Mod p, r^n = r^q = a with
  // a = (r mod p)^q; a^p mod p^2 is in that subgroup and also reduces to a,
  // so r^n mod p^2 = a^p mod p^2. Symmetrically over q^2.
  const BigInt x_p = mont_p2_->MontExp(mont_p_->MontExp(r.Mod(p_), q_), p_);
  const BigInt x_q = mont_q2_->MontExp(mont_q_->MontExp(r.Mod(q_), p_), q_);
  // Garner over p^2, q^2: the unique value in [0, n^2) with both residues.
  const BigInt h =
      x_p.ModSub(x_q.Mod(p2_), p2_).ModMul(q2_inv_mod_p2_, p2_);
  return x_q + q2_ * h;
}

std::vector<BigInt> PaillierContext::PrecomputeRandomizers(
    size_t count, const std::function<Rng(size_t)>& fork,
    ThreadPool& pool) const {
  std::vector<BigInt> out(count);
  pool.ParallelFor(count, [&](size_t i) {
    Rng rng = fork(i);
    out[i] = ComputeRandomizer(rng);
  });
  return out;
}

Result<BigInt> PaillierContext::EncryptWithRandomizer(
    const BigInt& m, const BigInt& r_n) const {
  if (m.IsNegative() || m >= pk_.n) {
    return Status::InvalidArgument(
        "Paillier plaintext must be in [0, n); map signed values with the "
        "fixed-point codec first");
  }
  // The only per-plaintext work: one modular multiply (shared composition
  // helper — a lone multiply gains nothing from the cached context).
  return Paillier::ComposeCiphertext(pk_, m, r_n);
}

Result<BigInt> PaillierContext::Encrypt(const BigInt& m, Rng& rng) const {
  if (m.IsNegative() || m >= pk_.n) {
    return Status::InvalidArgument(
        "Paillier plaintext must be in [0, n); map signed values with the "
        "fixed-point codec first");
  }
  return EncryptWithRandomizer(m, ComputeRandomizer(rng));
}

Result<std::vector<BigInt>> PaillierContext::EncryptBatch(
    const std::vector<BigInt>& ms, const std::function<Rng(size_t)>& fork,
    ThreadPool& pool) const {
  // Fail fast on range errors (limb comparisons) before spending an
  // n-bit exponentiation per item on randomizers.
  for (const BigInt& m : ms) {
    if (m.IsNegative() || m >= pk_.n) {
      return Status::InvalidArgument(
          "Paillier plaintext must be in [0, n); map signed values with the "
          "fixed-point codec first");
    }
  }
  std::vector<BigInt> randomizers = PrecomputeRandomizers(ms.size(), fork,
                                                          pool);
  std::vector<BigInt> out(ms.size());
  pool.ParallelFor(ms.size(), [&](size_t i) {
    out[i] = Paillier::ComposeCiphertext(pk_, ms[i], randomizers[i]);
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
