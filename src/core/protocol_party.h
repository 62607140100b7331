// Per-party phase logic for Protocol 1, factored behind message
// boundaries. ServerCore holds everything the aggregation server computes
// (Paillier keys, blinded-histogram aggregation, weight encryption, OT
// sender side, ciphertext aggregation and decryption); SiloCore holds
// everything one silo computes (DH keys, pairwise masks, histogram
// blinding, OT receiver side, the encrypted weighted sum). Every value
// crossing between them is a plain message payload — BigInt vectors, OT
// flows, byte strings — never shared state.
//
// Both the in-process simulation (core/private_weighting.h orchestrates a
// ServerCore plus N SiloCores with direct calls) and the distributed
// driver (net/protocol_node.h moves the same payloads over a Transport)
// run on these cores, so a distributed round is bitwise identical to an
// in-process round by construction.
//
// Determinism contract: no core ever draws from a shared sequential
// generator. Every random value is a Rng::Fork substream of the protocol
// seed addressed by (round, party/user, stream id) — see rng.h — so a
// remote endpoint holding only the public ProtocolConfig reconstructs
// exactly the randomness the simulation would have used. (The shared seed
// makes this a faithful *simulation* of the message flow, not a deployment
// key-management scheme; see the class comments.)

#ifndef ULDP_CORE_PROTOCOL_PARTY_H_
#define ULDP_CORE_PROTOCOL_PARTY_H_

#include <atomic>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "crypto/chacha.h"
#include "crypto/dh.h"
#include "crypto/fixed_point.h"
#include "crypto/oblivious_transfer.h"
#include "crypto/paillier.h"
#include "crypto/paillier_ctx.h"
#include "math/fixed_base.h"
#include "nn/tensor.h"
#include "obs/metrics.h"

namespace uldp {

struct ProtocolConfig {
  /// Paillier modulus bits (the paper's security parameter lambda is 3072;
  /// tests and the scaled-down benches use smaller).
  int paillier_bits = 1024;
  /// Upper bound N_max on records per user; C_LCM = lcm(1..N_max). Must be
  /// small enough that C_LCM plus slack fits below the modulus (Theorem 4
  /// condition (2)) — validated during key generation.
  int n_max = 100;
  /// Fixed-point precision P.
  double precision = 1e-10;
  uint64_t seed = 7;
  /// > 0 enables the OT-based private user-level sub-sampling extension
  /// (§4.1): the server offers P ciphertext slots per user (real Enc(B_inv)
  /// in a q-fraction of them after a private shuffle, Enc(0) in the rest)
  /// and silos fetch one slot via 1-out-of-P OT, so neither side learns the
  /// sampling outcome. The value is P (the slot count); representable
  /// rates are multiples of 1/P. In OT mode silos cannot skip unsampled
  /// users (they do not know who is sampled), which is exactly the extra
  /// cost §4.1 warns about.
  int ot_slots = 0;
  /// Sub-sampling rate used in OT mode (quantized to multiples of
  /// 1/ot_slots). Ignored when ot_slots == 0 (the server-side mask passed
  /// to WeightingRound is used instead).
  double ot_sample_rate = 1.0;
  /// Bit size of the safe-prime DH group backing the OT (simulation-scale
  /// default; a deployment would use a standardized group).
  int ot_group_bits = 384;
  /// Thread count for the protocol's parallel phases (per-user weight
  /// encryption, per-silo encrypted weighting and masking, per-coordinate
  /// aggregation and decryption). <= 0 resolves via ULDP_THREADS env /
  /// hardware concurrency. Results are bitwise independent of this value:
  /// all encryption randomness comes from Rng::Fork substreams and every
  /// reduction is an exact modular product.
  int num_threads = 0;
  /// Ciphertext packing factor: k > 1 packs k fixed-point weights into
  /// every Paillier plaintext as signed radix-2^B slots, so the weighting
  /// phase ships and folds ceil(dim/k) ciphertexts instead of dim. B is
  /// sized from C_LCM · (pack_clip/precision) · (users + silos) plus guard
  /// bits, so aggregation provably cannot carry across slots; Setup
  /// rejects configs where k·B cannot fit the modulus. Packed aggregates
  /// decode bitwise identical to unpacked ones (crypto/fixed_point.h).
  /// Both endpoints must agree (part of the wire digest).
  int pack_slots = 1;
  /// Per-coordinate magnitude bound |delta|, |noise| <= pack_clip the
  /// packing carry guard is sized for; violations are hard errors at
  /// encode time. Ignored when pack_slots == 1 (the unpacked path keeps
  /// the original n/2 headroom of Theorem 4).
  double pack_clip = 64.0;
  /// > 0 enables memory-bounded streaming rounds: the server encrypts and
  /// ships Enc(B_inv) in chunks of this many users, each silo folds a
  /// chunk into its running cipher accumulator and discards it before the
  /// next arrives, and the silo->server cipher travels as chunked frames
  /// the server folds on arrival. Peak resident per-user ciphertexts drop
  /// from O(users) to O(stream_chunk_users); because every per-user value
  /// comes from a Fork(round, user) substream and every fold is an exact
  /// modular product, streamed rounds are bitwise identical to
  /// materializing ones. Changes the distributed message flow, so both
  /// endpoints must agree (part of the wire digest). 0 = materialize (the
  /// classic path).
  int stream_chunk_users = 0;
  /// Ciphertext coordinates per chunked SiloCipher/MaskedVector wire
  /// frame when streaming is on (stream_chunk_users > 0). Bounds the
  /// largest weighting-phase frame to ~chunk * ciphertext_bytes instead
  /// of dim * ciphertext_bytes. <= 0 picks a default (256). Part of the
  /// wire digest (both endpoints must frame identically).
  int stream_chunk_coords = 0;
};

/// Users per weighting batch when streaming is off: each batch builds and
/// frees its own per-user tables (Straus odd powers, or fixed-base tables
/// when the fold's cost model picks them), so transient table memory stays
/// O(batch) instead of O(num_users).
inline constexpr int kWeightingBatchUsers = 128;

/// Effective chunk sizes for streaming mode (resolving the <= 0 defaults);
/// both return 0 when streaming is off.
int StreamChunkUsers(const ProtocolConfig& config);
int StreamChunkCoords(const ProtocolConfig& config);

/// Derived slot count of real (non-dummy) ciphertexts in OT mode.
int OtRealSlots(const ProtocolConfig& config);

/// Public protocol parameters every party ends up holding after key setup.
/// The server generates them; remote silos receive the non-derivable parts
/// (Paillier n, the OT group) in the SetupParams message and rebuild the
/// rest (C_LCM, the codec) locally.
struct ProtocolParams {
  ProtocolConfig config;
  int num_silos = 0;
  int num_users = 0;
  PaillierPublicKey public_key;
  BigInt c_lcm;
  DhGroup ot_group;  // populated iff config.ot_slots > 0
  FixedPointCodec codec{BigInt(5), 1e-10};
  /// Slot layout for config.pack_slots > 1 (inactive otherwise); built by
  /// Derive(), which rejects configurations whose carry guard cannot fit
  /// the modulus.
  PackedCodec packed;

  /// Rebuilds the derived fields (n², C_LCM, codec, OT Montgomery state)
  /// from config + public_key (+ ot_group p, g if OT is on). Used by
  /// remote silos after receiving the SetupParams message, so it rejects
  /// (InvalidArgument) an n that is even or not exactly
  /// config.paillier_bits long and, with OT on, a p that is even or not
  /// exactly config.ot_group_bits long, or a g outside (1, p).
  Status Derive();
};

/// What the server observed (for privacy assertions).
struct ServerProtocolView {
  /// Doubly blinded per-silo histograms as received in setup (e).
  std::vector<std::vector<BigInt>> doubly_blinded_histograms;  // [silo][user]
  /// Aggregated blinded totals B(N_u) = r_u * N_u mod n.
  std::vector<BigInt> blinded_totals;  // [user]
};

/// Public half of one user's OT sender state: the per-slot group elements
/// and A = g^r. This is exactly the first OT message on the wire.
struct OtSenderPublic {
  std::vector<BigInt> c;
  BigInt a;
};

/// Server-side phase logic. Owns the Paillier secret key, the inverted
/// blinded totals B_inv(N_u), and the OT sender state; never sees a raw
/// histogram, an unmasked silo sum, or the OT sampling outcome.
class ServerCore {
 public:
  ServerCore(const ProtocolConfig& config, int num_silos, int num_users);

  /// Setup (a): generates the Paillier key pair (and the OT group when
  /// enabled) from Fork substreams of config.seed, derives C_LCM and the
  /// codec, and checks the Theorem-4 overflow condition.
  Status GenerateKeys(ThreadPool& pool);
  const ProtocolParams& params() const { return params_; }
  bool keys_done() const { return keys_done_; }

  /// Setup (e): records silo `silo`'s doubly blinded histogram. Values
  /// must be field elements (< n).
  Status AbsorbBlindedHistogram(int silo, std::vector<BigInt> blinded);
  /// Setup (e)-(f): sums the blinded histograms (masks cancel) and inverts
  /// the blinded totals. Requires every silo's histogram absorbed.
  Status FinalizeSetup();
  bool setup_done() const { return setup_done_; }
  const ServerProtocolView& view() const { return view_; }

  /// Weighting (a), server-side sampling (OT off): Enc(B_inv(N_u)) for
  /// sampled users, Enc(0) otherwise; randomness from Fork(round, user).
  /// Same as EncryptWeightsRange over [0, num_users).
  Result<std::vector<BigInt>> EncryptWeights(
      uint64_t round, const std::vector<bool>& user_sampled, ThreadPool& pool);
  /// Encrypts only users [u0, u1) (returning u1 - u0 ciphertexts).
  /// Randomness comes from Fork(round, u) addressed by the *absolute* user
  /// index, so concatenated range calls are bitwise identical to one
  /// full-range call while holding only one chunk resident.
  Result<std::vector<BigInt>> EncryptWeightsRange(
      uint64_t round, const std::vector<bool>& user_sampled, int u0, int u1,
      ThreadPool& pool);

  /// Weighting (a), OT mode, sender step 1: per-user slot elements, sender
  /// secrets (A = g^r runs inside the flat user × slot sweep), and the
  /// private real/dummy slot shuffles. Returns the public sender messages.
  Result<std::vector<OtSenderPublic>> OtSenderInit(uint64_t round,
                                                   ThreadPool& pool);
  /// Weighting (a), OT mode, sender step 2: encrypts every (user, slot)
  /// payload — Enc(B_inv) in shuffled real slots, Enc(0) in dummies —
  /// under the per-slot OT pads derived from the receiver commitments.
  Result<std::vector<std::vector<std::vector<uint8_t>>>> OtEncryptSlots(
      uint64_t round, const std::vector<BigInt>& receiver_bs,
      ThreadPool& pool);
  /// Ground-truth slot shuffles of the last OtSenderInit — simulation
  /// diagnostic only (a real server never learns the receiver's slot).
  const std::vector<std::vector<int>>& ot_perms() const { return ot_perms_; }

  /// Weighting (c), server side: folds one silo's masked cipher into the
  /// running per-coordinate product as it lands (pairwise masks cancel
  /// once every silo is folded). Ciphertext aggregation is an exact
  /// modular product — commutative and associative — so any arrival order
  /// yields bitwise-identical aggregates. `product` starts as dim
  /// ciphertext identities (BigInt(1)).
  Status AccumulateSiloCipher(const std::vector<BigInt>& cipher,
                              std::vector<BigInt>* product) const;
  /// Chunked-streaming variant: folds `chunk` into product coordinates
  /// [offset, offset + chunk.size()). The fold is the same exact modular
  /// product, so folding a cipher chunk-by-chunk as frames arrive is
  /// bitwise identical to folding it whole.
  Status AccumulateSiloCipherRange(const std::vector<BigInt>& chunk,
                                   size_t offset,
                                   std::vector<BigInt>* product) const;
  /// Decrypts and decodes the aggregate — the only plaintext the server
  /// ever sees. With packing active, `product` holds ceil(dim/k) group
  /// ciphertexts and `model_dim` (the unpacked coordinate count) is
  /// required to size the output; 0 means "unpacked, infer from product".
  Result<Vec> DecryptAggregate(const std::vector<BigInt>& product,
                               ThreadPool& pool, size_t model_dim = 0) const;

 private:
  ProtocolParams params_;
  PaillierSecretKey secret_key_;
  std::unique_ptr<PaillierContext> paillier_;
  std::vector<BigInt> b_inv_;  // B_inv(N_u)
  ServerProtocolView view_;
  std::vector<bool> histogram_absorbed_;
  bool keys_done_ = false;
  bool setup_done_ = false;
  Rng root_;  // Fork-only root; never drawn from directly

  // OT sender round state.
  uint64_t ot_round_ = 0;
  bool ot_pending_ = false;
  std::vector<ObliviousTransfer::SenderState> ot_senders_;
  std::vector<std::vector<int>> ot_perms_;
};

/// Ciphertext-keyed cache of per-user fixed-base MulPlaintext tables for
/// the silo-weighting loop's table path. Every SiloCore owns one for the
/// batches its fold cost model sends down that path. Entries persist
/// across rounds only when BeginRound runs with keep = true: the key is
/// the ciphertext itself, so fresh round randomness or a changed sampling
/// mask invalidates an entry automatically.
class WeightTableCache {
 public:
  /// Sizes the cache for the round; keep = false drops every old entry.
  void BeginRound(int num_users, bool keep);
  /// Returns the table for (user, enc_weight), building it over `ctx`'s
  /// cached n² context when missing or stale and counting a hit
  /// otherwise. Returns null (caching nothing) when enc_weight is outside
  /// Z_{n²} — the weighting sweep rejects such inputs with a proper
  /// Status. Safe to call concurrently for distinct users.
  const FixedBaseTable* Ensure(const PaillierContext& ctx, int user,
                               const BigInt& enc_weight, size_t uses);
  /// Frees the tables of users [u0, u1) — the batch-bounded transient
  /// memory discipline of the weighting sweep.
  void DropRange(int u0, int u1);
  const std::vector<std::unique_ptr<FixedBaseTable>>& tables() const {
    return tables_;
  }
  uint64_t hits() const { return hits_.value(); }

 private:
  std::vector<BigInt> base_;
  std::vector<std::unique_ptr<FixedBaseTable>> tables_;
  obs::Counter hits_{"core.weight_table_cache_hits"};
};

/// Silo-side phase logic. Owns the silo's private histogram, its DH key
/// pair, the pairwise mask keys, and the silo-shared seed R; never sees
/// the Paillier secret key or another silo's counts.
class SiloCore {
 public:
  /// `params` must have public_key (and ot_group in OT mode) populated.
  SiloCore(ProtocolParams params, int silo_id, std::vector<int> histogram);

  int silo_id() const { return silo_id_; }
  const ProtocolParams& params() const { return params_; }
  /// Setup (b): this silo's DH key pair — a pure function of
  /// (seed, silo id), so the remote silo derives the same pair the
  /// simulation would.
  const DhKeyPair& dh_key() const { return dh_key_; }
  /// Setup (b): derives the pairwise mask keys from the full directory of
  /// silo DH public keys (relayed by the server).
  Status ComputePairKeys(const std::vector<BigInt>& dh_publics);

  /// Setup (c), silo 0 only: derives the shared random seed R.
  BigInt MakeSharedSeed() const;
  void SetSharedSeed(const BigInt& r_seed);
  bool has_shared_seed() const { return seed_set_; }

  /// XOR-stream encryption under the pairwise key with `peer`, addressed
  /// by a typed mask tag and a stream id. Symmetric (the same call
  /// decrypts); used for the seed and OT-weight relays the server only
  /// ever sees as opaque bytes.
  Result<std::vector<uint8_t>> PairStreamXor(
      int peer, uint64_t tag, uint32_t stream_id,
      std::vector<uint8_t> data) const;

  /// Setup (d)-(e): multiplicatively blinds the histogram with r_u and
  /// applies the pairwise additive masks.
  Result<std::vector<BigInt>> BlindHistogram(ThreadPool& pool) const;

  /// Weighting (a), OT mode, receiver step: the shared-seed slot choice
  /// sigma and the commitment B = C_sigma * g^{-k} per user.
  Result<std::vector<BigInt>> OtReceiverChoose(
      uint64_t round, const std::vector<OtSenderPublic>& senders,
      ThreadPool& pool);
  /// Weighting (a), OT mode, receiver step 2: decrypts the chosen slot of
  /// every user (the pad exponentiation K = A^k runs in a flat sweep).
  Result<std::vector<BigInt>> OtReceiverDecrypt(
      uint64_t round, const std::vector<OtSenderPublic>& senders,
      const std::vector<std::vector<std::vector<uint8_t>>>& encrypted,
      ThreadPool& pool);
  /// Slot choices of the last OT round — simulation diagnostic.
  const std::vector<size_t>& ot_sigmas() const { return ot_sigmas_; }

  /// Weighting (b) + (c) for this silo: the encrypted weighted sum over
  /// its users, the encoded noise, and the pairwise additive masks.
  /// `deltas[u]` is empty when user u has no records here; non-empty
  /// entries must all have noise.size() coordinates. This is the
  /// self-contained entry point a distributed silo endpoint uses in OT
  /// mode: FoldUsers over kWeightingBatchUsers batches, then FinishRound —
  /// the same batch fold the streamed endpoints and the in-process
  /// orchestrator run.
  Result<std::vector<BigInt>> WeightMaskRound(
      uint64_t round, const std::vector<BigInt>& enc_weights,
      const std::vector<Vec>& deltas, const Vec& noise, ThreadPool& pool);

  /// Fresh per-coordinate accumulator for phase (b): one ciphertext
  /// identity per shipped coordinate — PackedDim(model dim) of them when
  /// packing is active.
  static std::vector<BigInt> NewCipherAccumulator(size_t dim);

  /// This silo's evaluation-only Paillier context. Tables built over it
  /// are a pure function of the ciphertext and modulus, so a caller may
  /// build them itself (a WeightTableCache over this context) and pass
  /// them to AccumulateUsers, as the ledger's layer replay does.
  const PaillierContext* eval_context() const { return paillier_.get(); }

  /// Phase (b) for users [u0, u1): accumulates this silo's encrypted
  /// weighted terms into `cipher` (from NewCipherAccumulator, size =
  /// PackedDim(model_dim); model_dim is the unpacked coordinate count,
  /// i.e. the noise dimension). `tables`, when non-null, maps user →
  /// fixed-base table for enc_weights[u]; users with a null entry (every
  /// user when `tables` is null) fold through one Straus MultiExp over the
  /// batch, one Product per coordinate. Parallelizes over coordinates on
  /// `pool`; the result is an exact modular product, so batching,
  /// scheduling, packing and the fold path never change a bit.
  Status AccumulateUsers(
      int u0, int u1, const std::vector<BigInt>& enc_weights,
      const std::vector<std::unique_ptr<FixedBaseTable>>* tables,
      const std::vector<Vec>& deltas, size_t model_dim,
      std::vector<BigInt>* cipher, ThreadPool& pool) const;

  /// Streaming phase (b): folds users [u0, u1) given only that chunk of
  /// ciphertexts (enc_chunk[i] = Enc(B_inv) for user u0 + i) through
  /// FoldUsers. The caller discards enc_chunk afterwards, so peak
  /// resident ciphertexts stay at O(chunk) instead of O(users);
  /// concatenated chunk folds reproduce WeightMaskRound's accumulator bit
  /// for bit (exact modular products). Finish with FinishRound as usual.
  Status AccumulateUsersChunk(const std::vector<BigInt>& enc_chunk, int u0,
                              int u1, const std::vector<Vec>& deltas,
                              size_t model_dim, std::vector<BigInt>* cipher,
                              ThreadPool& pool);

  /// The batch fold: phase (b) for users [u0, u1) of the absolute-indexed
  /// `enc_weights`. ChooseFoldPath (math/fixed_base.h) weighs one Straus
  /// chain per coordinate against one fixed-base table per active user
  /// from the active-user count, the coordinate count and the exponent
  /// bits — never the thread count — and the fold either passes no tables
  /// to AccumulateUsers or builds this silo's tables, folds and drops
  /// them. Both paths produce the same bits.
  Status FoldUsers(int u0, int u1, const std::vector<BigInt>& enc_weights,
                   const std::vector<Vec>& deltas, size_t model_dim,
                   std::vector<BigInt>* cipher, ThreadPool& pool);

  /// Phase (b) tail + (c): adds the encoded noise (packed into groups when
  /// packing is active), then this silo's pairwise additive masks for the
  /// round — one mask per shipped coordinate.
  Status FinishRound(uint64_t round, const Vec& noise,
                     std::vector<BigInt>* cipher, ThreadPool& pool) const;

 private:
  BigInt BlindOf(int user) const;
  BigInt PairMask(int peer, uint64_t tag, int index) const;

  ProtocolParams params_;
  int silo_id_ = 0;
  std::vector<int> histogram_;
  std::unique_ptr<PaillierContext> paillier_;  // evaluation-only
  DhGroup dh_group_;
  DhKeyPair dh_key_;
  std::vector<ChaChaRng::Key> pair_keys_;  // [peer]; self entry unused
  bool pair_keys_done_ = false;
  ChaChaRng::Key shared_seed_key_{};
  bool seed_set_ = false;
  Rng root_;  // Fork-only root

  // OT receiver round state.
  uint64_t ot_round_ = 0;
  bool ot_pending_ = false;
  std::vector<BigInt> ot_ks_;
  std::vector<size_t> ot_sigmas_;

  // Per-user fixed-base tables for FoldUsers' table path. Built with the
  // core, so core.weight_table_cache_hits is registered wherever a silo
  // core exists.
  WeightTableCache table_cache_;

  // Batches AccumulateUsers folded through a Straus chain / per-user
  // tables (a batch mixing both counts in each).
  mutable obs::Counter straus_batches_{"core.fold.straus_batches"};
  mutable obs::Counter table_batches_{"core.fold.table_batches"};

  // AccumulateUsersChunk scratch: a full-size vector of (mostly empty)
  // BigInts so the chunk can be addressed by absolute user index through
  // AccumulateUsers. Holds at most one chunk's ciphertexts at a time.
  std::vector<BigInt> enc_scratch_;
};

}  // namespace uldp

#endif  // ULDP_CORE_PROTOCOL_PARTY_H_
