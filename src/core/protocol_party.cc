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
constexpr int64_t kFoldPathStraus = 1;   // one shared Straus chain
constexpr int64_t kFoldPathTables = 2;   // per-user fixed-base tables
constexpr int64_t kFoldPathSession = 4;  // Straus over session powers

// Exponent bits of a session fold: every slot's |units| is below 2^63.
constexpr int kUnitsBits = 63;

}  // namespace

int OtRealSlots(const ProtocolConfig& config) {
  return static_cast<int>(
      std::max(0.0, std::min(1.0, config.sample_rate)) * config.ot_slots +
      0.5);
}

bool FullParticipation(const ProtocolConfig& config) {
  return config.ot_slots <= 0 && config.sample_rate == 1.0;
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
  if (!(config.sample_rate > 0.0 && config.sample_rate <= 1.0)) {
    return Status::InvalidArgument("sample_rate must be in (0, 1]");
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
  aggregate_bound = (BigInt(1) << 63) * c_lcm *
                    BigInt(static_cast<int64_t>(num_users) + num_silos);
  return CheckTheorem4Bound(config, num_silos, num_users, c_lcm,
                            public_key.n);
}

double ProtocolParams::DecodedBound() const {
  return static_cast<double>(num_users + num_silos) * 0x1p63 *
         config.precision;
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
  // The randomizer base h_s is a pure function of the seed too, so every
  // server holding the seed encrypts identically; it never goes on the
  // wire.
  Rng base_rng = root_.Fork(0, 0, kRngStreamRandomizerBase);
  paillier_ = std::make_unique<PaillierContext>(params_.public_key,
                                                secret_key_, base_rng);
  if (config.ot_slots > 0) {
    Rng ot_rng = root_.Fork(0, 0, kRngStreamOtGroup);
    params_.ot_group =
        DhGroup::GenerateSafePrimeGroup(config.ot_group_bits, ot_rng);
  }
  ULDP_RETURN_IF_ERROR(params_.Derive());
  b_inv_.assign(params_.num_users, BigInt(0));
  histogram_absorbed_.assign(params_.num_silos, false);
  finalized_ = false;
  return Status::Ok();
}

Status ServerCore::AbsorbBlindedHistogram(int silo,
                                          std::vector<BigInt> blinded) {
  if (paillier_ == nullptr) {
    return Status::FailedPrecondition("GenerateKeys() has not run");
  }
  if (silo < 0 || silo >= params_.num_silos) {
    return Status::InvalidArgument("blinded histogram from unknown silo " +
                                   std::to_string(silo));
  }
  if (histogram_absorbed_[silo]) {
    return Status::InvalidArgument("second blinded histogram from silo " +
                                   std::to_string(silo));
  }
  if (static_cast<int>(blinded.size()) != params_.num_users) {
    return Status::InvalidArgument("blinded histogram size != user count");
  }
  const BigInt& n = params_.public_key.n;
  for (const BigInt& b : blinded) {
    if (b.IsNegative() || b >= n) {
      return Status::InvalidArgument(
          "blinded histogram entry outside the field");
    }
  }
  // Once every silo is in, the masks cancel: B(N_u) = r_u * N_u mod n.
  for (int u = 0; u < params_.num_users; ++u) {
    b_inv_[u] = b_inv_[u].ModAdd(blinded[u], n);
  }
  histogram_absorbed_[silo] = true;
  return Status::Ok();
}

Status ServerCore::FinalizeSetup() {
  obs::TraceSpan span("core.finalize_setup");
  if (paillier_ == nullptr) {
    return Status::FailedPrecondition("GenerateKeys() has not run");
  }
  if (finalized_) {
    return Status::FailedPrecondition("setup is already finalized");
  }
  for (int s = 0; s < params_.num_silos; ++s) {
    if (!histogram_absorbed_[s]) {
      return Status::FailedPrecondition("silo " + std::to_string(s) +
                                        " has not sent its histogram");
    }
  }
  const BigInt& n = params_.public_key.n;
  for (BigInt& b : b_inv_) {
    // N_u = 0: the user holds no records anywhere; weight stays zero.
    if (b.IsZero()) continue;
    auto inv = b.ModInverse(n);
    if (!inv.ok()) {
      // The sums are half inverted now, so only new keys start over.
      paillier_.reset();
      return inv.status();
    }
    b = std::move(inv.value());
  }
  finalized_ = true;
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
  if (!finalized_) {
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
  // A full-participation session sends each user's weight ciphertext
  // unchanged every round. That shows nothing only while every user is in
  // every round: a ciphertext that went missing, or came back after a
  // round of Enc(0), would tell the silos who was sampled.
  const bool session = FullParticipation(params_.config);
  if (session && std::find(user_sampled.begin(), user_sampled.end(),
                           false) != user_sampled.end()) {
    return Status::InvalidArgument(
        "a full-participation session (sample_rate 1, no OT) weights every "
        "user, but the sampling mask drops one; set sample_rate below 1 to "
        "sample users");
  }
  const int count = u1 - u0;
  // One comb randomizer per user on the pool. The Fork substream is
  // addressed by the absolute user index u0 + i, so per-user randomness is
  // independent of how the round is chunked, and in a session by no round.
  std::vector<BigInt> plains(count);
  for (int i = 0; i < count; ++i) {
    if (user_sampled[u0 + i]) plains[i] = b_inv_[u0 + i];
  }
  return paillier_->EncryptBatch(
      plains,
      [&](size_t i) {
        const uint64_t user = static_cast<uint64_t>(u0) + i;
        return session ? root_.Fork(0, user, kRngStreamSessionEncrypt)
                       : root_.Fork(round, user, kRngStreamEncrypt);
      },
      pool);
}

Result<std::vector<OtSenderPublic>> ServerCore::OtSenderInit(uint64_t round,
                                                             ThreadPool& pool) {
  obs::TraceSpan span("core.ot_sender_init", "round",
                      static_cast<int64_t>(round));
  ot_pending_.reset();  // a new init voids an unanswered one
  if (!finalized_) {
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
  OtSenderRound state;
  state.round = round;
  state.senders.resize(num_users);
  state.shuffles.resize(num_users);
  pool.ParallelFor(static_cast<size_t>(num_users), [&](size_t u) {
    state.senders[u] = ot.AssembleSender(std::move(slot_elems[u]),
                                         std::move(secrets[u]),
                                         std::move(elements[u]));
    state.shuffles[u].resize(config.ot_slots);
    std::iota(state.shuffles[u].begin(), state.shuffles[u].end(), 0);
    Rng shuffle_rng = root_.Fork(round, static_cast<uint64_t>(u),
                                 kRngStreamOtShuffle);
    shuffle_rng.Shuffle(state.shuffles[u]);
  });

  std::vector<OtSenderPublic> publics(num_users);
  for (int u = 0; u < num_users; ++u) {
    publics[u].c = state.senders[u].c;
    publics[u].a = state.senders[u].a;
  }
  ot_pending_ = std::move(state);
  return publics;
}

Result<std::vector<std::vector<std::vector<uint8_t>>>>
ServerCore::OtEncryptSlots(uint64_t round,
                           const std::vector<BigInt>& receiver_bs,
                           ThreadPool& pool) {
  // One-shot: the sender secrets and shuffles answer one receiver message.
  const std::optional<OtSenderRound> state =
      std::exchange(ot_pending_, std::nullopt);
  if (!state || state->round != round) {
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
        const bool real = state->shuffles[u][slot] < real_slots;
        auto c = paillier_->Encrypt(real ? b_inv_[u] : BigInt(0), enc_rng);
        if (!c.ok()) {
          slot_status[i] = c.status();
          return;
        }
        encrypted[u][slot] = ot.SenderEncryptSlot(
            state->senders[u], b_invs[u], c.value().ToBytesLE(clen), slot);
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
  if (!finalized_) {
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
  if (!finalized_) {
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
  // m centers to m or m - n, so |centered| <= bound iff m <= bound or
  // m >= n - bound.
  const BigInt& bound = params_.aggregate_bound;
  const BigInt upper = params_.public_key.n - bound;
  const Status beyond = Status::OutOfRange(
      "the aggregate is beyond what an honest round can reach, for example "
      "because a user holds more than N_max records or a silo sent a "
      "malformed cipher");
  Vec out(model_dim, 0.0);
  std::vector<Status> dim_status(cdim, Status::Ok());
  pool.ParallelFor(cdim, [&](size_t g) {
    auto plain = paillier_->Decrypt(product[g]);
    if (!plain.ok()) {
      dim_status[g] = plain.status();
      return;
    }
    const BigInt& m = plain.value();
    if (packed.active()) {
      const size_t d0 = g * slots;
      if (!packed.DecodeGroup(m, params_.codec, params_.c_lcm,
                              std::min(slots, model_dim - d0), &out[d0])
               .ok()) {
        dim_status[g] = beyond;
      }
    } else if (m > bound && m < upper) {
      dim_status[g] = beyond;
    } else {
      out[g] = params_.codec.Decode(m, params_.c_lcm);
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
  // Scalars and powers cached under an earlier seed hold that seed's
  // blinds.
  fold_scalars_.clear();
  session_powers_.clear();
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
  blind_derivations_.Add(1);
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

Result<std::vector<BigInt>> SiloCore::BlindHistogram(ThreadPool& pool) {
  obs::TraceSpan span("core.blind_histogram");
  if (!pair_keys_done_ || !seed_set_) {
    return Status::FailedPrecondition(
        "histogram blinding requires pair keys and the shared seed");
  }
  // Protocol 1 decodes exactly only if every N_u <= N_max, and a silo can
  // check its own share of that. The refusal crosses to the server in an
  // Error frame, so it names neither the user nor the count.
  for (int count : histogram_) {
    if (count < 0) return Status::InvalidArgument("negative histogram entry");
    if (count > params_.config.n_max) {
      return Status::InvalidArgument(
          "this silo holds more than N_max records of a user");
    }
  }
  const BigInt& n = params_.public_key.n;
  const BigInt c_lcm_mod_n = params_.c_lcm.Mod(n);
  const int num_users = params_.num_users;
  const uint64_t histogram_tag =
      MakeMaskTag(MaskPhase::kHistogramBlind, /*round=*/0);
  std::vector<BigInt> blinded(num_users);
  fold_scalars_.assign(num_users, BigInt(0));
  pool.ParallelFor(static_cast<size_t>(num_users), [&](size_t ui) {
    const int u = static_cast<int>(ui);
    BigInt b = BlindOf(u).ModMul(
        BigInt(static_cast<int64_t>(histogram_[u])), n);
    // The user's fold scalar r_u * n_su * C_LCM, for every round of the
    // session; the server only ever sees b masked.
    if (histogram_[u] > 0) fold_scalars_[u] = b.ModMul(c_lcm_mod_n, n);
    // Pairwise additive masks (setup e): +mask toward larger peers,
    // -mask toward smaller, so the server-side sum cancels them.
    for (int other = 0; other < params_.num_silos; ++other) {
      if (other == silo_id_) continue;
      BigInt m = PairMask(other, histogram_tag, u);
      b = silo_id_ < other ? b.ModAdd(m, n) : b.ModSub(m, n);
    }
    blinded[u] = std::move(b);
  });
  return blinded;
}

Result<std::vector<BigInt>> SiloCore::OtReceiverChoose(
    uint64_t round, const std::vector<OtSenderPublic>& senders,
    ThreadPool& pool) {
  obs::TraceSpan span("core.ot_receiver_choose", "round",
                      static_cast<int64_t>(round));
  ot_pending_.reset();  // a new choice voids an unopened one
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
  OtReceiverRound state;
  state.round = round;
  state.keys.resize(num_users);
  state.choices.resize(num_users);
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
    auto commit = ot.ReceiverCommit(senders[u].c[sigma], sigma, krng);
    if (!commit.ok()) {
      user_status[u] = commit.status();
      return;
    }
    state.keys[u] = std::move(commit.value().k);
    state.choices[u] = sigma;
    bs[u] = std::move(commit.value().b);
  });
  ULDP_RETURN_IF_ERROR(FirstError(user_status));
  ot_pending_ = std::move(state);
  return bs;
}

Result<std::vector<BigInt>> SiloCore::OtReceiverDecrypt(
    uint64_t round, const std::vector<OtSenderPublic>& senders,
    const std::vector<std::vector<std::vector<uint8_t>>>& encrypted,
    ThreadPool& pool) {
  obs::TraceSpan span("core.ot_receiver_decrypt", "round",
                      static_cast<int64_t>(round));
  // One-shot: the keys and choices open one slot per user.
  const std::optional<OtReceiverRound> state =
      std::exchange(ot_pending_, std::nullopt);
  if (!state || state->round != round) {
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
    auto key = ot.ReceiverKeyElement(senders[u].a, state->keys[u]);
    if (!key.ok()) {
      user_status[u] = key.status();
      return;
    }
    std::vector<uint8_t> plain =
        ot.ApplyPad(key.value(), encrypted[u][state->choices[u]]);
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

Status SiloCore::CheckBatch(int u0, int u1,
                            const std::vector<BigInt>& enc_weights,
                            const std::vector<Vec>& deltas, size_t model_dim,
                            size_t cdim, std::vector<char>* active) const {
  if (fold_scalars_.empty()) {
    return Status::FailedPrecondition(
        "weighting requires BlindHistogram under the current shared seed");
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
  if (cdim != params_.packed.PackedDim(model_dim)) {
    return Status::InvalidArgument("cipher accumulator dimension mismatch");
  }
  // Per-user validation. Each active user's scalar base
  // r_u * n_su * C_LCM mod n is the one BlindHistogram cached; the delta
  // encoding is per coordinate.
  active->assign(u1 - u0, 0);
  for (int u = u0; u < u1; ++u) {
    if (deltas[u].empty()) continue;  // user has no records at this silo
    if (deltas[u].size() != model_dim) {
      return Status::InvalidArgument("delta dimension mismatch");
    }
    if (enc_weights[u].IsNegative() ||
        enc_weights[u] >= params_.public_key.n_squared) {
      return Status::InvalidArgument("encrypted weight outside Z_{n^2}");
    }
    (*active)[u - u0] = histogram_[u] > 0;
  }
  return Status::Ok();
}

Status SiloCore::AccumulateUsers(
    int u0, int u1, const std::vector<BigInt>& enc_weights,
    const std::vector<std::unique_ptr<FixedBaseTable>>* tables,
    const std::vector<Vec>& deltas, size_t model_dim,
    std::vector<BigInt>* cipher, ThreadPool& pool) const {
  obs::TraceSpan span("core.accumulate_users", "u0",
                      static_cast<int64_t>(u0));
  const size_t cdim = cipher->size();
  std::vector<char> active;
  ULDP_RETURN_IF_ERROR(
      CheckBatch(u0, u1, enc_weights, deltas, model_dim, cdim, &active));
  if (tables != nullptr &&
      static_cast<int>(tables->size()) != params_.num_users) {
    return Status::InvalidArgument("weight table count mismatch");
  }
  const PackedCodec& packed = params_.packed;
  const size_t slots = static_cast<size_t>(packed.slots());
  const BigInt& n = params_.public_key.n;
  const PaillierPublicKey& pk = params_.public_key;

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
      BigInt scalar = e.value().ModMul(fold_scalars_[u], n);
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
  if (FullParticipation(params_.config)) {
    return SessionFold(u0, u1, enc_weights, deltas, model_dim, cipher, pool);
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

Status SiloCore::SessionFold(int u0, int u1,
                             const std::vector<BigInt>& enc_weights,
                             const std::vector<Vec>& deltas, size_t model_dim,
                             std::vector<BigInt>* cipher, ThreadPool& pool) {
  obs::TraceSpan span("core.accumulate_users", "u0",
                      static_cast<int64_t>(u0));
  const size_t cdim = cipher->size();
  std::vector<char> active;
  ULDP_RETURN_IF_ERROR(
      CheckBatch(u0, u1, enc_weights, deltas, model_dim, cdim, &active));
  const PackedCodec& packed = params_.packed;
  const size_t slots = static_cast<size_t>(packed.slots());
  const PaillierPublicKey& pk = params_.public_key;
  const Montgomery& mont = paillier_->mont_n_squared();

  // Derive the powers of every active user whose ciphertext is new: one
  // |n|-bit exponentiation, then B squarings per further slot, and one
  // inversion per slot.
  session_powers_.resize(params_.num_users);
  std::vector<int> fresh;
  for (int u = u0; u < u1; ++u) {
    const SessionPowers& p = session_powers_[u];
    if (active[u - u0] && (p.pos.empty() || p.cipher != enc_weights[u])) {
      fresh.push_back(u);
    }
  }
  if (!fresh.empty()) {
    obs::TraceSpan derive("core.session_powers", "users",
                          static_cast<int64_t>(fresh.size()));
    const BigInt slot_base = BigInt(1) << packed.slot_bits();
    std::vector<Status> user_status(fresh.size(), Status::Ok());
    pool.ParallelFor(fresh.size(), [&](size_t i) {
      const int u = fresh[i];
      SessionPowers p;
      for (size_t j = 0; j < slots; ++j) {
        p.pos.push_back(j == 0 ? mont.MontExp(enc_weights[u], fold_scalars_[u])
                               : mont.MontExp(p.pos.back(), slot_base));
        auto inv = p.pos.back().ModInverse(pk.n_squared);
        if (!inv.ok()) {
          user_status[i] =
              Status::InvalidArgument("encrypted weight is not a unit mod n^2");
          return;
        }
        p.neg.push_back(std::move(inv.value()));
      }
      p.cipher = enc_weights[u];
      session_powers_[u] = std::move(p);
    });
    ULDP_RETURN_IF_ERROR(FirstError(user_status));
    session_derivations_.Add(fresh.size());
  }

  // Bases per active user: (P_{u,j}, P_{u,j}^-1) for each slot j. The
  // tables are sized as for one product, a window of 3 at 63-bit
  // exponents: a base's table grows as 2^(w-1) and a session holds 2k
  // bases per active user, so the window does not grow with the
  // coordinate count.
  std::vector<int> first_base(u1 - u0, -1);
  std::vector<BigInt> bases;
  for (int u = u0; u < u1; ++u) {
    if (!active[u - u0]) continue;
    first_base[u - u0] = static_cast<int>(bases.size());
    for (size_t j = 0; j < slots; ++j) {
      bases.push_back(session_powers_[u].pos[j]);
      bases.push_back(session_powers_[u].neg[j]);
    }
  }
  const MultiExp straus(mont, bases, kUnitsBits, /*products=*/1);
  span.AddArg("users", static_cast<int64_t>(bases.size() / (2 * slots)));
  span.AddArg("coords", static_cast<int64_t>(cdim));
  span.AddArg("path", bases.empty() ? 0 : kFoldPathSession);
  if (!bases.empty()) straus_batches_.Add(1);

  // Coordinate group g raises each slot power to the slot's |units|, the
  // inverse taking negative units: Σ_j units_j 2^(jB) s_u is the exponent
  // the fresh-ciphertext fold reduces mod n, so both decrypt alike.
  std::vector<Status> dim_status(cdim, Status::Ok());
  pool.ParallelFor(cdim, [&](size_t g) {
    const size_t d0 = g * slots;
    const size_t count = packed.active() ? std::min(slots, model_dim - d0) : 1;
    std::vector<BigInt> exps(bases.size());
    std::vector<int64_t> units(slots, 0);
    bool any = false;
    for (int u = u0; u < u1; ++u) {
      if (!active[u - u0]) continue;
      if (packed.active()) {
        dim_status[g] =
            packed.GroupUnits(deltas[u].data() + d0, count, units.data());
      } else {
        Result<int64_t> unit = params_.codec.Units(deltas[u][g]);
        dim_status[g] = unit.status();
        if (unit.ok()) units[0] = unit.value();
      }
      if (!dim_status[g].ok()) return;
      for (size_t j = 0; j < count; ++j) {
        if (units[j] == 0) continue;
        const bool negative = units[j] < 0;
        exps[first_base[u - u0] + 2 * j + (negative ? 1 : 0)] =
            BigInt(static_cast<uint64_t>(negative ? -units[j] : units[j]));
        any = true;
      }
    }
    if (any) {
      (*cipher)[g] =
          Paillier::AddCiphertexts(pk, (*cipher)[g], straus.Product(exps));
    }
  });
  return FirstError(dim_status);
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

}  // namespace uldp
