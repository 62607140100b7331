// 1-out-of-P oblivious transfer (Bellare-Micali style over a DH group),
// used by the *private user-level sub-sampling* extension (§4.1): the
// server offers P ciphertext slots per user (one real Enc(B_inv), P-1
// dummies Enc(0)); the silo retrieves one slot without the server learning
// which, and without the silo learning the sampling outcome (the payload is
// Paillier-encrypted either way).
//
// Semi-honest security: receiver privacy is information-theoretic (the
// choice message is uniform); sender privacy reduces to CDH in the group.

#ifndef ULDP_CRYPTO_OBLIVIOUS_TRANSFER_H_
#define ULDP_CRYPTO_OBLIVIOUS_TRANSFER_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "crypto/dh.h"
#include "math/bigint.h"

namespace uldp {

/// One 1-out-of-P OT, as per-step calls the protocol's party cores
/// (core/protocol_party.h) run in flat parallel sweeps over users and
/// slots:
///   sender:   SampleSlotElement() per slot, SampleSenderSecret(),
///             SenderElement(r), AssembleSender()
///                                     -> publishes {C_0..C_{P-1}, A}
///   receiver: ReceiverCommit(C_sigma) -> sends B
///   sender:   InvertReceiverMessage(B), then SenderEncryptSlot() per slot
///                                     -> sends {E_0..E_{P-1}}
///   receiver: ReceiverKeyElement(A, k), ApplyPad(E_sigma) -> m_sigma
class ObliviousTransfer {
 public:
  struct SenderState {
    std::vector<BigInt> c;  // random group elements, one per slot (public)
    BigInt a;               // A = g^r (public)
    BigInt r;               // sender secret
  };

  struct ReceiverState {
    BigInt b;  // B = C_sigma * g^{-k} (sent to sender)
    BigInt k;  // receiver secret
    size_t sigma = 0;
  };

  ObliviousTransfer(DhGroup group, size_t num_slots);

  /// Samples one random element of the cyclic subgroup (one slot's C_i).
  /// Slot elements are independent, so batched senders draw each from its
  /// own Rng::Fork substream.
  BigInt SampleSlotElement(Rng& rng) const;

  /// Samples the sender secret r (uniform in [2, p-2]) without computing
  /// A, so the exponentiation A = g^r can join a flat parallel sweep.
  BigInt SampleSenderSecret(Rng& rng) const;

  /// A = g^r for a secret from SampleSenderSecret: the one exponentiation
  /// of sender initialization.
  BigInt SenderElement(const BigInt& r) const;

  /// Assembles a sender state from independently computed parts (`a` must
  /// equal SenderElement(r); `slots` must have num_slots() entries).
  SenderState AssembleSender(std::vector<BigInt> slots, BigInt r,
                             BigInt a) const;

  /// Receiver side: commits to slot `sigma` (0-based) given that slot's
  /// element. The message `b` is uniform in the group regardless of sigma,
  /// so the sender learns nothing. Rejects (InvalidArgument) a sigma past
  /// the last slot and a c_sigma outside (1, p - 1), as
  /// ComputeSharedSecret rejects DH publics.
  Result<ReceiverState> ReceiverCommit(const BigInt& c_sigma, size_t sigma,
                                       Rng& rng) const;

  /// Range-checks the receiver message B and returns B^{-1} mod p, the
  /// per-receiver value SenderEncryptSlot amortizes across slots.
  Result<BigInt> InvertReceiverMessage(const BigInt& receiver_b) const;

  /// Sender side: encrypts one slot under K_i = (C_i / B)^r; only slot
  /// sigma's key is computable by the receiver. Each slot costs a group
  /// exponentiation, so one receiver's slots may be encrypted concurrently
  /// and in any order. `receiver_b_inv` comes from InvertReceiverMessage.
  std::vector<uint8_t> SenderEncryptSlot(const SenderState& sender,
                                         const BigInt& receiver_b_inv,
                                         const std::vector<uint8_t>& message,
                                         size_t slot) const;

  /// Receiver side: K_sigma = A^k, the one exponentiation of recovering
  /// m_sigma. Rejects (InvalidArgument) an A outside (1, p - 1): it comes
  /// off the wire.
  Result<BigInt> ReceiverKeyElement(const BigInt& sender_a,
                                    const BigInt& k) const;

  /// XOR-pads `data` with the stream derived from `key_element`: the
  /// symmetric half shared by SenderEncryptSlot (pad with K_i) and the
  /// receiver (un-pad E_sigma with K_sigma).
  std::vector<uint8_t> ApplyPad(const BigInt& key_element,
                                std::vector<uint8_t> data) const;

  size_t num_slots() const { return num_slots_; }

 private:
  /// The range every peer-supplied group element must fall in: (1, p - 1).
  bool InGroupRange(const BigInt& x) const;

  /// XOR pad of `len` bytes derived from a group element via SHA-256 in
  /// counter mode.
  std::vector<uint8_t> Pad(const BigInt& key_element, size_t len) const;

  DhGroup group_;
  size_t num_slots_;
};

}  // namespace uldp

#endif  // ULDP_CRYPTO_OBLIVIOUS_TRANSFER_H_
