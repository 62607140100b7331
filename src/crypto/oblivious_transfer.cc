#include "crypto/oblivious_transfer.h"

#include "common/check.h"
#include "crypto/sha256.h"

namespace uldp {

ObliviousTransfer::ObliviousTransfer(DhGroup group, size_t num_slots)
    : group_(std::move(group)), num_slots_(num_slots) {
  ULDP_CHECK_GE(num_slots_, 2u);
  // Build the group's cached Montgomery context now: per-user OT
  // executions run concurrently on the protocol pool and share this
  // object. The generator fixed-base table is NOT built here — its cost
  // only amortizes across many users' slots, so callers with that shape
  // (PrivateWeightingProtocol::Setup) call EnsureGeneratorTable() on the
  // group once up front; a one-shot OT falls back to sliding-window
  // exponentiation, which is cheaper than building a throwaway table.
  group_.EnsureMont();
}

BigInt ObliviousTransfer::SampleSlotElement(Rng& rng) const {
  // Random element of the cyclic subgroup generated by g.
  BigInt e = BigInt::RandomBelow(group_.p - BigInt(3), rng) + BigInt(2);
  return group_.ExpG(e);
}

BigInt ObliviousTransfer::SampleSenderSecret(Rng& rng) const {
  return BigInt::RandomBelow(group_.p - BigInt(3), rng) + BigInt(2);
}

BigInt ObliviousTransfer::SenderElement(const BigInt& r) const {
  return group_.ExpG(r);
}

ObliviousTransfer::SenderState ObliviousTransfer::AssembleSender(
    std::vector<BigInt> slots, BigInt r, BigInt a) const {
  ULDP_CHECK_EQ(slots.size(), num_slots_);
  SenderState state;
  state.c = std::move(slots);
  state.r = std::move(r);
  state.a = std::move(a);
  return state;
}

Result<ObliviousTransfer::ReceiverState> ObliviousTransfer::ReceiverCommit(
    const BigInt& c_sigma, size_t sigma, Rng& rng) const {
  if (sigma >= num_slots_) {
    return Status::InvalidArgument("OT choice index out of range");
  }
  if (!InGroupRange(c_sigma)) {
    return Status::InvalidArgument("sender OT slot element out of range");
  }
  ReceiverState state;
  state.sigma = sigma;
  state.k = BigInt::RandomBelow(group_.p - BigInt(3), rng) + BigInt(2);
  // B = C_sigma * g^{-k} mod p. g^{-k} = (g^k)^{-1}.
  BigInt g_k = group_.ExpG(state.k);
  auto g_k_inv = g_k.ModInverse(group_.p);
  if (!g_k_inv.ok()) return g_k_inv.status();
  state.b = c_sigma.ModMul(g_k_inv.value(), group_.p);
  return state;
}

std::vector<uint8_t> ObliviousTransfer::Pad(const BigInt& key_element,
                                            size_t len) const {
  std::vector<uint8_t> pad;
  pad.reserve(len + 32);
  uint32_t counter = 0;
  std::string base = "uldp-ot-pad|" + key_element.ToHex() + "|";
  while (pad.size() < len) {
    Sha256Digest d = Sha256(base + std::to_string(counter++));
    pad.insert(pad.end(), d.begin(), d.end());
  }
  pad.resize(len);
  return pad;
}

bool ObliviousTransfer::InGroupRange(const BigInt& x) const {
  return x > BigInt(1) && x < group_.p - BigInt(1);
}

Result<BigInt> ObliviousTransfer::InvertReceiverMessage(
    const BigInt& receiver_b) const {
  if (!InGroupRange(receiver_b)) {
    return Status::InvalidArgument("receiver OT message out of range");
  }
  return receiver_b.ModInverse(group_.p);
}

std::vector<uint8_t> ObliviousTransfer::ApplyPad(const BigInt& key_element,
                                                 std::vector<uint8_t> data) const {
  std::vector<uint8_t> pad = Pad(key_element, data.size());
  for (size_t j = 0; j < data.size(); ++j) data[j] ^= pad[j];
  return data;
}

std::vector<uint8_t> ObliviousTransfer::SenderEncryptSlot(
    const SenderState& sender, const BigInt& receiver_b_inv,
    const std::vector<uint8_t>& message, size_t slot) const {
  ULDP_CHECK_LT(slot, num_slots_);
  // K_i = (C_i / B)^r.
  BigInt ratio = sender.c[slot].ModMul(receiver_b_inv, group_.p);
  BigInt key = group_.Exp(ratio, sender.r);
  return ApplyPad(key, message);
}

Result<BigInt> ObliviousTransfer::ReceiverKeyElement(const BigInt& sender_a,
                                                     const BigInt& k) const {
  if (!InGroupRange(sender_a)) {
    return Status::InvalidArgument("sender OT element A out of range");
  }
  // K_sigma = (C_sigma / B)^r = (g^k)^r = A^k.
  return group_.Exp(sender_a, k);
}

}  // namespace uldp
