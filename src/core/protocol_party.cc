#include "core/protocol_party.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "core/mask_tags.h"
#include "math/multi_exp.h"
#include "obs/trace.h"

namespace uldp {

namespace {

/// Theorem 4 condition (2): the worst-case integer magnitude
///   sum_s sum_u |E| n_su (C_LCM / N_u) + |S| |Z| C_LCM
/// must stay below n/2 (signed fixed-point headroom). |E|,|Z| < 2^63 by
/// the Encode range check.
Status CheckTheorem4Bound(const ProtocolConfig& config, int num_silos,
                          int num_users, const BigInt& c_lcm,
                          const BigInt& n) {
  BigInt e_max = BigInt(1) << 63;
  BigInt bound =
      c_lcm * e_max *
      BigInt(static_cast<uint64_t>(num_silos) *
             (static_cast<uint64_t>(num_users) * config.n_max + 1));
  if (bound >= n >> 1) {
    return Status::FailedPrecondition(
        "Theorem 4 overflow condition violated: increase paillier_bits or "
        "decrease n_max (C_LCM has " +
        std::to_string(c_lcm.BitLength()) + " bits, modulus " +
        std::to_string(n.BitLength()) + ")");
  }
  return Status::Ok();
}

bool IsOddOfBits(const BigInt& v, int bits) {
  return !v.IsNegative() && v.IsOdd() && v.BitLength() == bits;
}

uint64_t SlotCounter(size_t user, size_t slot) {
  return (static_cast<uint64_t>(user) << 32) | static_cast<uint64_t>(slot);
}

// Bits of the `path` arg on the core.accumulate_users trace span: which
// fold raised the batch's active users.
constexpr int64_t kFoldPathStraus = 1;  // one shared Straus chain
constexpr int64_t kFoldPathTables = 2;  // per-user fixed-base tables

}  // namespace

int OtRealSlots(const ProtocolConfig& config) {
  return static_cast<int>(
      std::max(0.0, std::min(1.0, config.ot_sample_rate)) * config.ot_slots +
      0.5);
}

int StreamChunkUsers(const ProtocolConfig& config) {
  return config.stream_chunk_users > 0 ? config.stream_chunk_users : 0;
}

int StreamChunkCoords(const ProtocolConfig& config) {
  if (config.stream_chunk_users <= 0) return 0;
  return config.stream_chunk_coords > 0 ? config.stream_chunk_coords : 256;
}

Status ProtocolParams::Derive() {
  if (num_silos < 2 || num_users < 1) {
    return Status::InvalidArgument("protocol needs >= 2 silos and >= 1 user");
  }
  // A silo takes n and the OT group from the wire, so every value its
  // Montgomery contexts and tables will need is checked here: positive odd
  // moduli of exactly the sizes the join digest pinned, and 1 < g < p.
  if (!IsOddOfBits(public_key.n, config.paillier_bits)) {
    return Status::InvalidArgument(
        "Paillier modulus must be positive and odd with exactly " +
        std::to_string(config.paillier_bits) + " bits");
  }
  public_key.n_squared = public_key.n * public_key.n;
  public_key.modulus_bits = public_key.n.BitLength();
  c_lcm = LcmUpTo(static_cast<uint64_t>(config.n_max));
  codec = FixedPointCodec(public_key.n, config.precision);
  auto pack = PackedCodec::Create(public_key.n, config.precision,
                                  config.pack_slots, config.pack_clip, c_lcm,
                                  num_silos, num_users);
  if (!pack.ok()) return pack.status();
  packed = std::move(pack.value());
  if (config.ot_slots > 0) {
    if (!IsOddOfBits(ot_group.p, config.ot_group_bits)) {
      return Status::InvalidArgument(
          "OT group prime must be positive and odd with exactly " +
          std::to_string(config.ot_group_bits) + " bits");
    }
    if (ot_group.g <= BigInt(1) || ot_group.g >= ot_group.p) {
      return Status::InvalidArgument("OT group generator must be in (1, p)");
    }
    ot_group.EnsureGeneratorTable();
  }
  return CheckTheorem4Bound(config, num_silos, num_users, c_lcm,
                            public_key.n);
}

// ---------------------------------------------------------------------------
// ServerCore

ServerCore::ServerCore(const ProtocolConfig& config, int num_silos,
                       int num_users)
    : root_(config.seed) {
  ULDP_CHECK_GE(num_silos, 2);
  ULDP_CHECK_GE(num_users, 1);
  ULDP_CHECK_GE(config.n_max, 1);
  params_.config = config;
  params_.num_silos = num_silos;
  params_.num_users = num_users;
}

Status ServerCore::GenerateKeys(ThreadPool& pool) {
  obs::TraceSpan span("core.generate_keys");
  const ProtocolConfig& config = params_.config;
  // The key is a pure function of the seed: the keygen entropy comes from a
  // dedicated Fork substream, so nothing else the server (or any silo)
  // draws can shift it.
  Rng keygen_rng = root_.Fork(0, 0, kRngStreamKeygen);
  ULDP_RETURN_IF_ERROR(Paillier::GenerateKeyPair(config.paillier_bits,
                                                 keygen_rng,
                                                 &params_.public_key,
                                                 &secret_key_, &pool));
  paillier_ =
      std::make_unique<PaillierContext>(params_.public_key, secret_key_);
  if (config.ot_slots > 0) {
    Rng ot_rng = root_.Fork(0, 0, kRngStreamOtGroup);
    params_.ot_group =
        DhGroup::GenerateSafePrimeGroup(config.ot_group_bits, ot_rng);
  }
  ULDP_RETURN_IF_ERROR(params_.Derive());
  view_.doubly_blinded_histograms.assign(params_.num_silos, {});
  histogram_absorbed_.assign(params_.num_silos, false);
  keys_done_ = true;
  return Status::Ok();
}

Status ServerCore::AbsorbBlindedHistogram(int silo,
                                          std::vector<BigInt> blinded) {
  if (!keys_done_) {
    return Status::FailedPrecondition("GenerateKeys() has not run");
  }
  if (silo < 0 || silo >= params_.num_silos) {
    return Status::InvalidArgument("blinded histogram from unknown silo " +
                                   std::to_string(silo));
  }
  if (static_cast<int>(blinded.size()) != params_.num_users) {
    return Status::InvalidArgument("blinded histogram size != user count");
  }
  for (const BigInt& b : blinded) {
    if (b.IsNegative() || b >= params_.public_key.n) {
      return Status::InvalidArgument(
          "blinded histogram entry outside the field");
    }
  }
  view_.doubly_blinded_histograms[silo] = std::move(blinded);
  histogram_absorbed_[silo] = true;
  return Status::Ok();
}

Status ServerCore::FinalizeSetup() {
  obs::TraceSpan span("core.finalize_setup");
  if (!keys_done_) {
    return Status::FailedPrecondition("GenerateKeys() has not run");
  }
  for (int s = 0; s < params_.num_silos; ++s) {
    if (!histogram_absorbed_[s]) {
      return Status::FailedPrecondition("silo " + std::to_string(s) +
                                        " has not sent its histogram");
    }
  }
  const BigInt& n = params_.public_key.n;
  // B(N_u) = sum_s B'(n_su) = r_u * N_u mod n (pairwise masks cancel).
  view_.blinded_totals.assign(params_.num_users, BigInt(0));
  for (int u = 0; u < params_.num_users; ++u) {
    BigInt acc(0);
    for (int s = 0; s < params_.num_silos; ++s) {
      acc = acc.ModAdd(view_.doubly_blinded_histograms[s][u], n);
    }
    view_.blinded_totals[u] = std::move(acc);
  }
  b_inv_.assign(params_.num_users, BigInt(0));
  for (int u = 0; u < params_.num_users; ++u) {
    const BigInt& bt = view_.blinded_totals[u];
    if (bt.IsZero()) {
      // N_u = 0: the user holds no records anywhere; weight stays zero.
      continue;
    }
    auto inv = bt.ModInverse(n);
    if (!inv.ok()) return inv.status();
    b_inv_[u] = std::move(inv.value());
  }
  setup_done_ = true;
  return Status::Ok();
}

Result<std::vector<BigInt>> ServerCore::EncryptWeights(
    uint64_t round, const std::vector<bool>& user_sampled, ThreadPool& pool) {
  return EncryptWeightsRange(round, user_sampled, 0, params_.num_users, pool);
}

Result<std::vector<BigInt>> ServerCore::EncryptWeightsRange(
    uint64_t round, const std::vector<bool>& user_sampled, int u0, int u1,
    ThreadPool& pool) {
  obs::TraceSpan span("core.encrypt_weights", "u0",
                      static_cast<int64_t>(u0));
  if (!setup_done_) {
    return Status::FailedPrecondition("setup has not completed");
  }
  if (params_.config.ot_slots > 0) {
    return Status::FailedPrecondition(
        "OT mode derives the sampling mask privately; use OtSenderInit");
  }
  const int num_users = params_.num_users;
  if (static_cast<int>(user_sampled.size()) != num_users) {
    return Status::InvalidArgument("sampling mask size mismatch");
  }
  if (u0 < 0 || u1 > num_users || u0 > u1) {
    return Status::InvalidArgument("user range out of bounds");
  }
  const int count = u1 - u0;
  // Randomizer pipeline: r^n mod n^2 is plaintext-independent, so
  // EncryptBatch batch-computes one randomizer per user on the pool, then
  // encryption itself is a single modular multiply per user. The Fork
  // substream is addressed by the absolute user index u0 + i, so per-user
  // randomness is independent of how the round is chunked.
  std::vector<BigInt> plains(count);
  for (int i = 0; i < count; ++i) {
    if (user_sampled[u0 + i]) plains[i] = b_inv_[u0 + i];
  }
  return paillier_->EncryptBatch(
      plains,
      [&](size_t i) {
        return root_.Fork(round, static_cast<uint64_t>(u0) + i,
                          kRngStreamEncrypt);
      },
      pool);
}

Result<std::vector<OtSenderPublic>> ServerCore::OtSenderInit(uint64_t round,
                                                             ThreadPool& pool) {
  obs::TraceSpan span("core.ot_sender_init", "round",
                      static_cast<int64_t>(round));
  if (!setup_done_) {
    return Status::FailedPrecondition("setup has not completed");
  }
  const ProtocolConfig& config = params_.config;
  if (config.ot_slots <= 0) {
    return Status::FailedPrecondition("OT mode is disabled");
  }
  const int num_users = params_.num_users;
  const size_t n_slots = static_cast<size_t>(config.ot_slots);
  ObliviousTransfer ot(params_.ot_group, n_slots);

  // Flat (user × (slot + 1)) sweep: lanes [0, slots) sample the per-slot
  // group elements C_i; the extra lane draws the sender secret r and runs
  // the A = g^r exponentiation, so sender-side exponentiations parallelize
  // across slots AND users even when one user dominates.
  std::vector<std::vector<BigInt>> slot_elems(num_users,
                                              std::vector<BigInt>(n_slots));
  std::vector<BigInt> secrets(num_users), elements(num_users);
  pool.ParallelFor(
      static_cast<size_t>(num_users) * (n_slots + 1), [&](size_t i) {
        const size_t u = i / (n_slots + 1), lane = i % (n_slots + 1);
        if (lane < n_slots) {
          Rng rng = root_.Fork(round, SlotCounter(u, lane),
                               kRngStreamOtSlotElem);
          slot_elems[u][lane] = ot.SampleSlotElement(rng);
        } else {
          Rng rng = root_.Fork(round, static_cast<uint64_t>(u),
                               kRngStreamOtSender);
          secrets[u] = ot.SampleSenderSecret(rng);
          elements[u] = ot.SenderElement(secrets[u]);
        }
      });

  // Per-user assembly plus the private real/dummy slot shuffle.
  ot_senders_.assign(num_users, {});
  ot_perms_.assign(num_users, {});
  pool.ParallelFor(static_cast<size_t>(num_users), [&](size_t u) {
    ot_senders_[u] = ot.AssembleSender(std::move(slot_elems[u]),
                                       std::move(secrets[u]),
                                       std::move(elements[u]));
    ot_perms_[u].resize(config.ot_slots);
    std::iota(ot_perms_[u].begin(), ot_perms_[u].end(), 0);
    Rng shuffle_rng = root_.Fork(round, static_cast<uint64_t>(u),
                                 kRngStreamOtShuffle);
    shuffle_rng.Shuffle(ot_perms_[u]);
  });
  ot_round_ = round;
  ot_pending_ = true;

  std::vector<OtSenderPublic> publics(num_users);
  for (int u = 0; u < num_users; ++u) {
    publics[u].c = ot_senders_[u].c;
    publics[u].a = ot_senders_[u].a;
  }
  return publics;
}

Result<std::vector<std::vector<std::vector<uint8_t>>>>
ServerCore::OtEncryptSlots(uint64_t round,
                           const std::vector<BigInt>& receiver_bs,
                           ThreadPool& pool) {
  if (!ot_pending_ || ot_round_ != round) {
    return Status::FailedPrecondition(
        "OtEncryptSlots without a matching OtSenderInit");
  }
  const int num_users = params_.num_users;
  if (static_cast<int>(receiver_bs.size()) != num_users) {
    return Status::InvalidArgument("OT receiver message count mismatch");
  }
  const size_t n_slots = static_cast<size_t>(params_.config.ot_slots);
  const int real_slots = OtRealSlots(params_.config);
  const size_t clen = static_cast<size_t>(
                          (params_.public_key.n_squared.BitLength() + 7) / 8) +
                      8;
  ObliviousTransfer ot(params_.ot_group, n_slots);

  // Per-user B^{-1}, amortized across the user's slots.
  std::vector<BigInt> b_invs(num_users);
  std::vector<Status> user_status(num_users, Status::Ok());
  pool.ParallelFor(static_cast<size_t>(num_users), [&](size_t u) {
    auto inv = ot.InvertReceiverMessage(receiver_bs[u]);
    if (!inv.ok()) {
      user_status[u] = inv.status();
      return;
    }
    b_invs[u] = std::move(inv.value());
  });
  ULDP_RETURN_IF_ERROR(FirstError(user_status));

  // Flat (user × slot) sweep: one Paillier encryption plus one OT pad
  // exponentiation per lane, each on its own Fork substream.
  std::vector<std::vector<std::vector<uint8_t>>> encrypted(
      num_users, std::vector<std::vector<uint8_t>>(n_slots));
  std::vector<Status> slot_status(static_cast<size_t>(num_users) * n_slots,
                                  Status::Ok());
  pool.ParallelFor(
      static_cast<size_t>(num_users) * n_slots, [&](size_t i) {
        const size_t u = i / n_slots, slot = i % n_slots;
        Rng enc_rng = root_.Fork(round, SlotCounter(u, slot),
                                 kRngStreamOtSlotEnc);
        const bool real = ot_perms_[u][slot] < real_slots;
        auto c = paillier_->Encrypt(real ? b_inv_[u] : BigInt(0), enc_rng);
        if (!c.ok()) {
          slot_status[i] = c.status();
          return;
        }
        encrypted[u][slot] = ot.SenderEncryptSlot(
            ot_senders_[u], b_invs[u], c.value().ToBytesLE(clen), slot);
      });
  ULDP_RETURN_IF_ERROR(FirstError(slot_status));
  return encrypted;
}

Status ServerCore::AccumulateSiloCipher(const std::vector<BigInt>& cipher,
                                        std::vector<BigInt>* product) const {
  if (cipher.size() != product->size()) {
    return Status::InvalidArgument("silo cipher dimension mismatch");
  }
  return AccumulateSiloCipherRange(cipher, 0, product);
}

Status ServerCore::AccumulateSiloCipherRange(
    const std::vector<BigInt>& chunk, size_t offset,
    std::vector<BigInt>* product) const {
  obs::TraceSpan span("core.accumulate_silo_cipher_range", "offset",
                      static_cast<int64_t>(offset));
  if (!setup_done_) {
    return Status::FailedPrecondition("setup has not completed");
  }
  if (offset > product->size() || chunk.size() > product->size() - offset) {
    return Status::InvalidArgument("silo cipher chunk out of range");
  }
  for (const BigInt& x : chunk) {
    if (x.IsNegative() || x >= params_.public_key.n_squared) {
      return Status::InvalidArgument("silo ciphertext outside Z_{n^2}");
    }
  }
  for (size_t i = 0; i < chunk.size(); ++i) {
    (*product)[offset + i] = Paillier::AddCiphertexts(
        params_.public_key, (*product)[offset + i], chunk[i]);
  }
  return Status::Ok();
}

Result<Vec> ServerCore::DecryptAggregate(const std::vector<BigInt>& product,
                                         ThreadPool& pool,
                                         size_t model_dim) const {
  obs::TraceSpan span("core.decrypt_aggregate");
  if (!setup_done_) {
    return Status::FailedPrecondition("setup has not completed");
  }
  const PackedCodec& packed = params_.packed;
  if (model_dim == 0) {
    if (packed.active()) {
      return Status::InvalidArgument(
          "packed decryption requires the model dimension");
    }
    model_dim = product.size();
  }
  if (packed.PackedDim(model_dim) != product.size()) {
    return Status::InvalidArgument("aggregate dimension mismatch");
  }
  const size_t cdim = product.size();
  const size_t slots = static_cast<size_t>(packed.slots());
  Vec out(model_dim, 0.0);
  std::vector<Status> dim_status(cdim, Status::Ok());
  pool.ParallelFor(cdim, [&](size_t g) {
    auto plain = paillier_->Decrypt(product[g]);
    if (!plain.ok()) {
      dim_status[g] = plain.status();
      return;
    }
    if (packed.active()) {
      const size_t d0 = g * slots;
      dim_status[g] =
          packed.DecodeGroup(plain.value(), params_.codec, params_.c_lcm,
                             std::min(slots, model_dim - d0), &out[d0]);
    } else {
      out[g] = params_.codec.Decode(plain.value(), params_.c_lcm);
    }
  });
  ULDP_RETURN_IF_ERROR(FirstError(dim_status));
  return out;
}

// ---------------------------------------------------------------------------
// SiloCore

SiloCore::SiloCore(ProtocolParams params, int silo_id,
                   std::vector<int> histogram)
    : params_(std::move(params)),
      silo_id_(silo_id),
      histogram_(std::move(histogram)),
      root_(params_.config.seed) {
  ULDP_CHECK_GE(silo_id_, 0);
  ULDP_CHECK_LT(silo_id_, params_.num_silos);
  ULDP_CHECK_EQ(histogram_.size(), static_cast<size_t>(params_.num_users));
  paillier_ = std::make_unique<PaillierContext>(params_.public_key);
  dh_group_ = DhGroup::Rfc3526Modp2048();
  // The key pair is a pure function of (seed, silo id): the distributed
  // silo derives exactly the pair the in-process simulation would.
  Rng dh_rng = root_.Fork(0, static_cast<uint64_t>(silo_id_), kRngStreamDhKey);
  dh_key_ = GenerateDhKeyPair(dh_group_, dh_rng);
}

Status SiloCore::ComputePairKeys(const std::vector<BigInt>& dh_publics) {
  if (static_cast<int>(dh_publics.size()) != params_.num_silos) {
    return Status::InvalidArgument("DH directory size != silo count");
  }
  if (dh_publics[silo_id_] != dh_key_.public_key) {
    return Status::InvalidArgument(
        "DH directory does not contain this silo's public key");
  }
  pair_keys_.assign(params_.num_silos, ChaChaRng::Key{});
  for (int peer = 0; peer < params_.num_silos; ++peer) {
    if (peer == silo_id_) continue;
    auto shared = ComputeSharedSecret(dh_group_, dh_key_.secret_key,
                                      dh_publics[peer]);
    if (!shared.ok()) return shared.status();
    pair_keys_[peer] = ChaChaRng::DeriveKey(DeriveSharedSeedMaterial(
        shared.value(), "pairmask", silo_id_, peer));
  }
  pair_keys_done_ = true;
  return Status::Ok();
}

BigInt SiloCore::MakeSharedSeed() const {
  Rng seed_rng = root_.Fork(0, 0, kRngStreamSharedSeed);
  return BigInt::RandomBits(256, seed_rng);
}

void SiloCore::SetSharedSeed(const BigInt& r_seed) {
  shared_seed_key_ =
      ChaChaRng::DeriveKey("uldp-shared-seed|" + r_seed.ToHex());
  seed_set_ = true;
}

Result<std::vector<uint8_t>> SiloCore::PairStreamXor(
    int peer, uint64_t tag, uint32_t stream_id,
    std::vector<uint8_t> data) const {
  if (!pair_keys_done_) {
    return Status::FailedPrecondition("pairwise keys not derived yet");
  }
  if (peer < 0 || peer >= params_.num_silos || peer == silo_id_) {
    return Status::InvalidArgument("invalid relay peer " +
                                   std::to_string(peer));
  }
  ChaChaRng stream(pair_keys_[peer], ChaChaRng::MakeNonce(tag, stream_id));
  size_t i = 0;
  while (i < data.size()) {
    uint64_t block = stream.NextUint64();
    for (int b = 0; b < 8 && i < data.size(); ++b, ++i) {
      data[i] ^= static_cast<uint8_t>(block >> (8 * b));
    }
  }
  return data;
}

BigInt SiloCore::BlindOf(int user) const {
  // All silos derive the same r_u from the shared seed R; the server never
  // learns R. r_u must be a unit of F_n — overwhelmingly likely (Eq. 4 of
  // the paper); regenerate with a counter otherwise.
  const BigInt& n = params_.public_key.n;
  for (uint32_t attempt = 0;; ++attempt) {
    ChaChaRng stream(shared_seed_key_,
                     ChaChaRng::MakeNonce(
                         MakeMaskTag(MaskPhase::kUserBlind,
                                     static_cast<uint64_t>(user)),
                         /*stream_id=*/attempt));
    BigInt r = stream.UniformBelow(n);
    if (!r.IsZero() && BigInt::Gcd(r, n) == BigInt(1)) return r;
  }
}

BigInt SiloCore::PairMask(int peer, uint64_t tag, int index) const {
  ChaChaRng stream(pair_keys_[peer],
                   ChaChaRng::MakeNonce(tag, static_cast<uint32_t>(index)));
  return stream.UniformBelow(params_.public_key.n);
}

Result<std::vector<BigInt>> SiloCore::BlindHistogram(ThreadPool& pool) const {
  obs::TraceSpan span("core.blind_histogram");
  if (!pair_keys_done_ || !seed_set_) {
    return Status::FailedPrecondition(
        "histogram blinding requires pair keys and the shared seed");
  }
  const BigInt& n = params_.public_key.n;
  const int num_users = params_.num_users;
  const uint64_t histogram_tag =
      MakeMaskTag(MaskPhase::kHistogramBlind, /*round=*/0);
  std::vector<BigInt> blinded(num_users);
  std::vector<Status> user_status(num_users, Status::Ok());
  pool.ParallelFor(static_cast<size_t>(num_users), [&](size_t ui) {
    const int u = static_cast<int>(ui);
    if (histogram_[u] < 0) {
      user_status[u] = Status::InvalidArgument("negative histogram entry");
      return;
    }
    BigInt b = BlindOf(u).ModMul(
        BigInt(static_cast<int64_t>(histogram_[u])), n);
    // Pairwise additive masks (setup e): +mask toward larger peers,
    // -mask toward smaller, so the server-side sum cancels them.
    for (int other = 0; other < params_.num_silos; ++other) {
      if (other == silo_id_) continue;
      BigInt m = PairMask(other, histogram_tag, u);
      b = silo_id_ < other ? b.ModAdd(m, n) : b.ModSub(m, n);
    }
    blinded[u] = std::move(b);
  });
  ULDP_RETURN_IF_ERROR(FirstError(user_status));
  return blinded;
}

Result<std::vector<BigInt>> SiloCore::OtReceiverChoose(
    uint64_t round, const std::vector<OtSenderPublic>& senders,
    ThreadPool& pool) {
  obs::TraceSpan span("core.ot_receiver_choose", "round",
                      static_cast<int64_t>(round));
  if (!seed_set_) {
    return Status::FailedPrecondition("shared seed not set");
  }
  const ProtocolConfig& config = params_.config;
  if (config.ot_slots <= 0) {
    return Status::FailedPrecondition("OT mode is disabled");
  }
  const int num_users = params_.num_users;
  if (static_cast<int>(senders.size()) != num_users) {
    return Status::InvalidArgument("OT sender message count mismatch");
  }
  const size_t n_slots = static_cast<size_t>(config.ot_slots);
  for (const auto& s : senders) {
    if (s.c.size() != n_slots) {
      return Status::InvalidArgument("OT sender slot count mismatch");
    }
  }
  ObliviousTransfer ot(params_.ot_group, n_slots);
  const uint64_t choice_tag = MakeMaskTag(MaskPhase::kOtSlotChoice, round);
  ot_ks_.assign(num_users, BigInt(0));
  ot_sigmas_.assign(num_users, 0);
  std::vector<BigInt> bs(num_users);
  std::vector<Status> user_status(num_users, Status::Ok());
  pool.ParallelFor(static_cast<size_t>(num_users), [&](size_t ui) {
    const int u = static_cast<int>(ui);
    // Shared-seed slot choice: identical across silos, hidden from the
    // server and — post-shuffle — uninformative to the silos.
    ChaChaRng choice(shared_seed_key_,
                     ChaChaRng::MakeNonce(choice_tag,
                                          static_cast<uint32_t>(u)));
    const size_t sigma = choice.NextUint64() % n_slots;
    Rng krng = root_.Fork(round, static_cast<uint64_t>(u),
                          kRngStreamOtReceiver);
    auto state = ot.ReceiverCommit(senders[u].c[sigma], sigma, krng);
    if (!state.ok()) {
      user_status[u] = state.status();
      return;
    }
    ot_ks_[u] = std::move(state.value().k);
    ot_sigmas_[u] = sigma;
    bs[u] = std::move(state.value().b);
  });
  ULDP_RETURN_IF_ERROR(FirstError(user_status));
  ot_round_ = round;
  ot_pending_ = true;
  return bs;
}

Result<std::vector<BigInt>> SiloCore::OtReceiverDecrypt(
    uint64_t round, const std::vector<OtSenderPublic>& senders,
    const std::vector<std::vector<std::vector<uint8_t>>>& encrypted,
    ThreadPool& pool) {
  obs::TraceSpan span("core.ot_receiver_decrypt", "round",
                      static_cast<int64_t>(round));
  if (!ot_pending_ || ot_round_ != round) {
    return Status::FailedPrecondition(
        "OtReceiverDecrypt without a matching OtReceiverChoose");
  }
  const int num_users = params_.num_users;
  const size_t n_slots = static_cast<size_t>(params_.config.ot_slots);
  if (static_cast<int>(senders.size()) != num_users ||
      static_cast<int>(encrypted.size()) != num_users) {
    return Status::InvalidArgument("OT ciphertext count mismatch");
  }
  for (const auto& e : encrypted) {
    if (e.size() != n_slots) {
      return Status::InvalidArgument("OT ciphertext slot count mismatch");
    }
  }
  ObliviousTransfer ot(params_.ot_group, n_slots);
  std::vector<BigInt> enc_weights(num_users);
  std::vector<Status> user_status(num_users, Status::Ok());
  // Flat per-user sweep: the pad exponentiation K = A^k dominates.
  pool.ParallelFor(static_cast<size_t>(num_users), [&](size_t u) {
    auto key = ot.ReceiverKeyElement(senders[u].a, ot_ks_[u]);
    if (!key.ok()) {
      user_status[u] = key.status();
      return;
    }
    std::vector<uint8_t> plain =
        ot.ApplyPad(key.value(), encrypted[u][ot_sigmas_[u]]);
    BigInt c = BigInt::FromBytesLE(plain);
    if (c >= params_.public_key.n_squared) {
      user_status[u] =
          Status::InvalidArgument("OT payload outside Z_{n^2}");
      return;
    }
    enc_weights[u] = std::move(c);
  });
  ULDP_RETURN_IF_ERROR(FirstError(user_status));
  return enc_weights;
}

void WeightTableCache::BeginRound(int num_users, bool keep) {
  if (!keep) {
    tables_.clear();
    base_.clear();
  }
  tables_.resize(num_users);
  base_.resize(num_users);
}

const FixedBaseTable* WeightTableCache::Ensure(const PaillierContext& ctx,
                                               int user,
                                               const BigInt& enc_weight,
                                               size_t uses) {
  if (enc_weight.IsNegative() ||
      enc_weight >= ctx.public_key().n_squared) {
    return nullptr;
  }
  if (tables_[user] != nullptr && base_[user] == enc_weight) {
    hits_.Add(1);
    return tables_[user].get();
  }
  tables_[user] = std::make_unique<FixedBaseTable>(
      ctx.MakeMulPlaintextTable(enc_weight, uses));
  base_[user] = enc_weight;
  return tables_[user].get();
}

void WeightTableCache::DropRange(int u0, int u1) {
  for (int u = u0; u < u1; ++u) tables_[u].reset();
}

std::vector<BigInt> SiloCore::NewCipherAccumulator(size_t dim) {
  return std::vector<BigInt>(dim, BigInt(1));
}

Status SiloCore::AccumulateUsers(
    int u0, int u1, const std::vector<BigInt>& enc_weights,
    const std::vector<std::unique_ptr<FixedBaseTable>>* tables,
    const std::vector<Vec>& deltas, size_t model_dim,
    std::vector<BigInt>* cipher, ThreadPool& pool) const {
  obs::TraceSpan span("core.accumulate_users", "u0",
                      static_cast<int64_t>(u0));
  if (!seed_set_) {
    return Status::FailedPrecondition("weighting requires the shared seed");
  }
  const int num_users = params_.num_users;
  if (static_cast<int>(enc_weights.size()) != num_users) {
    return Status::InvalidArgument("encrypted weight count mismatch");
  }
  if (static_cast<int>(deltas.size()) != num_users) {
    return Status::InvalidArgument("delta matrix size mismatch");
  }
  if (u0 < 0 || u1 > num_users || u0 > u1) {
    return Status::InvalidArgument("user batch out of range");
  }
  if (tables != nullptr && static_cast<int>(tables->size()) != num_users) {
    return Status::InvalidArgument("weight table count mismatch");
  }
  const PackedCodec& packed = params_.packed;
  const size_t cdim = cipher->size();
  if (cdim != packed.PackedDim(model_dim)) {
    return Status::InvalidArgument("cipher accumulator dimension mismatch");
  }
  const size_t slots = static_cast<size_t>(packed.slots());
  const BigInt& n = params_.public_key.n;
  const PaillierPublicKey& pk = params_.public_key;
  const BigInt c_lcm_mod_n = params_.c_lcm.Mod(n);

  // Per-user prep: validation plus the scalar base n_su * r_u * C_LCM
  // mod n (the delta encoding is per coordinate below).
  std::vector<Status> prep_status(u1 - u0, Status::Ok());
  std::vector<BigInt> bases(u1 - u0);
  std::vector<char> active(u1 - u0, 0);
  pool.ParallelFor(static_cast<size_t>(u1 - u0), [&](size_t i) {
    const int u = u0 + static_cast<int>(i);
    if (deltas[u].empty()) return;  // user has no records at this silo
    if (deltas[u].size() != model_dim) {
      prep_status[i] = Status::InvalidArgument("delta dimension mismatch");
      return;
    }
    if (enc_weights[u].IsNegative() || enc_weights[u] >= pk.n_squared) {
      prep_status[i] =
          Status::InvalidArgument("encrypted weight outside Z_{n^2}");
      return;
    }
    if (histogram_[u] == 0) return;
    active[i] = 1;
    bases[i] = BlindOf(u)
                   .ModMul(BigInt(static_cast<int64_t>(histogram_[u])), n)
                   .ModMul(c_lcm_mod_n, n);
  });
  ULDP_RETURN_IF_ERROR(FirstError(prep_status));

  // Active users with a table raise through it; the rest share one
  // Straus chain per coordinate, their odd-power tables built once here.
  std::vector<int> straus_slot(u1 - u0, -1);
  std::vector<BigInt> straus_bases;
  int64_t table_users = 0;
  for (int u = u0; u < u1; ++u) {
    if (!active[u - u0]) continue;
    if (tables != nullptr && (*tables)[u] != nullptr) {
      ++table_users;
      continue;
    }
    straus_slot[u - u0] = static_cast<int>(straus_bases.size());
    straus_bases.push_back(enc_weights[u]);
  }
  const MultiExp straus(paillier_->mont_n_squared(), straus_bases,
                        n.BitLength(), cdim);
  const int64_t path = (straus_bases.empty() ? 0 : kFoldPathStraus) |
                       (table_users == 0 ? 0 : kFoldPathTables);
  span.AddArg("users",
              table_users + static_cast<int64_t>(straus_bases.size()));
  span.AddArg("coords", static_cast<int64_t>(cdim));
  span.AddArg("path", path);
  if (!straus_bases.empty()) straus_batches_.Add(1);
  if (table_users > 0) table_batches_.Add(1);

  // Packed or not, the per-user exponent for coordinate group g is the
  // group's (packed) delta encoding times the user's scalar base — the
  // aggregation stays a mod-n linear form, so slot digits add exactly like
  // unpacked coordinates.
  std::vector<Status> dim_status(cdim, Status::Ok());
  pool.ParallelFor(cdim, [&](size_t g) {
    const size_t d0 = g * slots;
    std::vector<BigInt> exps(straus_bases.size());
    bool any_straus = false;
    for (int u = u0; u < u1; ++u) {
      if (!active[u - u0]) continue;
      Result<BigInt> e =
          packed.active()
              ? packed.EncodeGroup(deltas[u].data() + d0,
                                   std::min(slots, model_dim - d0))
              : params_.codec.Encode(deltas[u][g]);
      if (!e.ok()) {
        dim_status[g] = e.status();
        return;
      }
      if (e.value().IsZero()) continue;
      BigInt scalar = e.value().ModMul(bases[u - u0], n);
      if (straus_slot[u - u0] >= 0) {
        any_straus = any_straus || !scalar.IsZero();
        exps[straus_slot[u - u0]] = std::move(scalar);
        continue;
      }
      BigInt term = paillier_->MulPlaintextWithTable(*(*tables)[u], scalar);
      (*cipher)[g] = Paillier::AddCiphertexts(pk, (*cipher)[g], term);
    }
    if (any_straus) {
      (*cipher)[g] =
          Paillier::AddCiphertexts(pk, (*cipher)[g], straus.Product(exps));
    }
  });
  return FirstError(dim_status);
}

Status SiloCore::AccumulateUsersChunk(const std::vector<BigInt>& enc_chunk,
                                      int u0, int u1,
                                      const std::vector<Vec>& deltas,
                                      size_t model_dim,
                                      std::vector<BigInt>* cipher,
                                      ThreadPool& pool) {
  obs::TraceSpan span("core.accumulate_users_chunk", "u0",
                      static_cast<int64_t>(u0));
  const int num_users = params_.num_users;
  if (u0 < 0 || u1 > num_users || u0 > u1) {
    return Status::InvalidArgument("user chunk out of range");
  }
  if (enc_chunk.size() != static_cast<size_t>(u1 - u0)) {
    return Status::InvalidArgument("encrypted weight chunk size mismatch");
  }
  if (static_cast<int>(enc_scratch_.size()) != num_users) {
    enc_scratch_.assign(static_cast<size_t>(num_users), BigInt());
  }
  for (int u = u0; u < u1; ++u) enc_scratch_[u] = enc_chunk[u - u0];
  Status status =
      FoldUsers(u0, u1, enc_scratch_, deltas, model_dim, cipher, pool);
  for (int u = u0; u < u1; ++u) enc_scratch_[u] = BigInt();
  return status;
}

Status SiloCore::FoldUsers(int u0, int u1,
                           const std::vector<BigInt>& enc_weights,
                           const std::vector<Vec>& deltas, size_t model_dim,
                           std::vector<BigInt>* cipher, ThreadPool& pool) {
  const int num_users = params_.num_users;
  if (static_cast<int>(enc_weights.size()) != num_users ||
      static_cast<int>(deltas.size()) != num_users) {
    return Status::InvalidArgument("per-user input size mismatch");
  }
  if (u0 < 0 || u1 > num_users || u0 > u1) {
    return Status::InvalidArgument("user batch out of range");
  }
  const size_t cdim = cipher->size();
  size_t users = 0;
  for (int u = u0; u < u1; ++u) {
    if (!deltas[u].empty() && histogram_[u] > 0) ++users;
  }
  if (ChooseFoldPath(users, cdim, params_.public_key.n.BitLength()) ==
      FoldPath::kStraus) {
    return AccumulateUsers(u0, u1, enc_weights, nullptr, deltas, model_dim,
                           cipher, pool);
  }
  table_cache_.BeginRound(num_users, /*keep=*/false);
  pool.ParallelFor(static_cast<size_t>(u1 - u0), [&](size_t i) {
    const int u = u0 + static_cast<int>(i);
    if (deltas[u].empty() || histogram_[u] == 0) return;
    table_cache_.Ensure(*paillier_, u, enc_weights[u], cdim);
  });
  Status status = AccumulateUsers(u0, u1, enc_weights, &table_cache_.tables(),
                                  deltas, model_dim, cipher, pool);
  table_cache_.DropRange(u0, u1);
  return status;
}

Status SiloCore::FinishRound(uint64_t round, const Vec& noise,
                             std::vector<BigInt>* cipher,
                             ThreadPool& pool) const {
  obs::TraceSpan span("core.finish_round", "round",
                      static_cast<int64_t>(round));
  if (!pair_keys_done_ || !seed_set_) {
    return Status::FailedPrecondition(
        "weighting requires pair keys and the shared seed");
  }
  const PackedCodec& packed = params_.packed;
  if (packed.PackedDim(noise.size()) != cipher->size()) {
    return Status::InvalidArgument("noise dimension mismatch");
  }
  const size_t cdim = cipher->size();
  const size_t slots = static_cast<size_t>(packed.slots());
  const BigInt& n = params_.public_key.n;
  const PaillierPublicKey& pk = params_.public_key;
  const BigInt c_lcm_mod_n = params_.c_lcm.Mod(n);
  // Encoded noise z' = Encode(z) * C_LCM, then the pairwise additive masks
  // (weighting (c)); the per-(packed-)coordinate lanes are independent, and
  // masks are drawn per ciphertext coordinate so packed and unpacked runs
  // stay within the same PRF tag space.
  const uint64_t weighting_tag =
      MakeMaskTag(MaskPhase::kRoundWeighting, round);
  std::vector<Status> dim_status(cdim, Status::Ok());
  pool.ParallelFor(cdim, [&](size_t g) {
    Result<BigInt> z = BigInt(0);
    if (packed.active()) {
      const size_t d0 = g * slots;
      z = packed.EncodeGroup(noise.data() + d0,
                             std::min(slots, noise.size() - d0));
    } else {
      z = params_.codec.Encode(noise[g]);
    }
    if (!z.ok()) {
      dim_status[g] = z.status();
      return;
    }
    BigInt z_scaled = z.value().ModMul(c_lcm_mod_n, n);
    (*cipher)[g] = Paillier::AddPlaintext(pk, (*cipher)[g], z_scaled);
    BigInt mask(0);
    for (int other = 0; other < params_.num_silos; ++other) {
      if (other == silo_id_) continue;
      BigInt m = PairMask(other, weighting_tag, static_cast<int>(g));
      mask = silo_id_ < other ? mask.ModAdd(m, n) : mask.ModSub(m, n);
    }
    (*cipher)[g] = Paillier::AddPlaintext(pk, (*cipher)[g], mask);
  });
  return FirstError(dim_status);
}

Result<std::vector<BigInt>> SiloCore::WeightMaskRound(
    uint64_t round, const std::vector<BigInt>& enc_weights,
    const std::vector<Vec>& deltas, const Vec& noise, ThreadPool& pool) {
  if (!pair_keys_done_ || !seed_set_) {
    return Status::FailedPrecondition(
        "weighting requires pair keys and the shared seed");
  }
  const int num_users = params_.num_users;
  const size_t dim = noise.size();
  // Users are swept in index-ordered batches, each building and freeing
  // its own fixed-base tables; the round output is an exact modular
  // product, so batching never changes a bit.
  std::vector<BigInt> cipher =
      NewCipherAccumulator(params_.packed.PackedDim(dim));
  for (int u0 = 0; u0 < num_users; u0 += kWeightingBatchUsers) {
    const int u1 = std::min(num_users, u0 + kWeightingBatchUsers);
    ULDP_RETURN_IF_ERROR(
        FoldUsers(u0, u1, enc_weights, deltas, dim, &cipher, pool));
  }
  ULDP_RETURN_IF_ERROR(FinishRound(round, noise, &cipher, pool));
  return cipher;
}

}  // namespace uldp
