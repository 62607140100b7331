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

/// One 1-out-of-P OT execution. Message flow:
///   sender:   SenderInit()            -> publishes {C_0..C_{P-1}, A}
///   receiver: ReceiverChoose(sigma)   -> sends B
///   sender:   SenderEncrypt(messages) -> sends {E_0..E_{P-1}}
///   receiver: ReceiverDecrypt(E)      -> m_sigma
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

  /// Sender side: samples per-slot group elements and the sender secret.
  SenderState SenderInit(Rng& rng) const;

  /// Samples one random element of the cyclic subgroup (one slot's C_i).
  /// Slot elements are independent, so callers batching across a pool can
  /// draw each from its own Rng::Fork substream and assemble the state
  /// with SenderInitWithSlots — SenderInit is exactly that, serially.
  BigInt SampleSlotElement(Rng& rng) const;

  /// Builds the sender state from pre-sampled slot elements (`slots` must
  /// have num_slots() entries); samples only the sender secret from `rng`.
  SenderState SenderInitWithSlots(std::vector<BigInt> slots, Rng& rng) const;

  /// Samples the sender secret r (uniform in [2, p-2], as
  /// SenderInitWithSlots draws it) without computing A — so the
  /// exponentiation A = g^r can join a flat parallel sweep.
  BigInt SampleSenderSecret(Rng& rng) const;

  /// A = g^r for a secret from SampleSenderSecret: the one exponentiation
  /// of sender initialization, exposed as a pure function so batched
  /// senders can run it inside a flat (user × slot) sweep.
  BigInt SenderElement(const BigInt& r) const;

  /// Assembles a sender state from independently computed parts (`a` must
  /// equal SenderElement(r); `slots` must have num_slots() entries).
  SenderState AssembleSender(std::vector<BigInt> slots, BigInt r,
                             BigInt a) const;

  /// Receiver side: commits to slot `sigma` (0-based). The message `b` is
  /// uniform in the group regardless of sigma, so the sender learns nothing.
  Result<ReceiverState> ReceiverChoose(const SenderState& sender_public,
                                       size_t sigma, Rng& rng) const;

  /// Receiver commitment from the chosen slot element alone — the unit of
  /// ReceiverChoose, for batched receivers that hold sender messages in a
  /// different layout than SenderState. Rejects (InvalidArgument) a
  /// c_sigma outside (1, p - 1), as ComputeSharedSecret rejects DH publics.
  Result<ReceiverState> ReceiverCommit(const BigInt& c_sigma, size_t sigma,
                                       Rng& rng) const;

  /// Sender side: encrypts every slot. messages[i] must all have equal
  /// length. Key for slot i is H((C_i / B)^r); only slot sigma's key is
  /// computable by the receiver.
  Result<std::vector<std::vector<uint8_t>>> SenderEncrypt(
      const SenderState& sender, const BigInt& receiver_b,
      const std::vector<std::vector<uint8_t>>& messages) const;

  /// Range-checks the receiver message B and returns B^{-1} mod p, the
  /// per-receiver value SenderEncryptSlot amortizes across slots.
  Result<BigInt> InvertReceiverMessage(const BigInt& receiver_b) const;

  /// Encrypts a single slot: the per-slot unit of SenderEncrypt, exposed so
  /// one receiver's slots can be encrypted concurrently (each slot costs a
  /// group exponentiation). `receiver_b_inv` comes from
  /// InvertReceiverMessage; slots of one sender state may run in any order.
  std::vector<uint8_t> SenderEncryptSlot(const SenderState& sender,
                                         const BigInt& receiver_b_inv,
                                         const std::vector<uint8_t>& message,
                                         size_t slot) const;

  /// Receiver side: recovers m_sigma from its slot.
  Result<std::vector<uint8_t>> ReceiverDecrypt(
      const ReceiverState& receiver, const SenderState& sender_public,
      const std::vector<std::vector<uint8_t>>& encrypted) const;

  /// K_sigma = A^k — the one exponentiation of ReceiverDecrypt, exposed so
  /// batched receivers can run it inside a flat parallel sweep. Rejects
  /// (InvalidArgument) an A outside (1, p - 1): it comes off the wire.
  Result<BigInt> ReceiverKeyElement(const BigInt& sender_a,
                                    const BigInt& k) const;

  /// XOR-pads `data` with the stream derived from `key_element` — the
  /// symmetric-encryption half shared by SenderEncryptSlot (pad with K_i)
  /// and ReceiverDecrypt (un-pad with K_sigma).
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
