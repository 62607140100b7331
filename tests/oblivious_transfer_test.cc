#include <gtest/gtest.h>

#include "crypto/oblivious_transfer.h"

namespace uldp {
namespace {

class OtFixture : public ::testing::Test {
 protected:
  OtFixture() : rng_(7) {
    group_ = DhGroup::GenerateSafePrimeGroup(192, rng_);
  }

  /// The sender's first step as the protocol's sender core runs it: one
  /// element per slot, then the secret r and A = g^r.
  ObliviousTransfer::SenderState Sender(const ObliviousTransfer& ot) {
    std::vector<BigInt> slots;
    for (size_t i = 0; i < ot.num_slots(); ++i) {
      slots.push_back(ot.SampleSlotElement(rng_));
    }
    BigInt r = ot.SampleSenderSecret(rng_);
    BigInt a = ot.SenderElement(r);
    return ot.AssembleSender(std::move(slots), std::move(r), std::move(a));
  }

  /// The sender's second step: every slot padded under the receiver's B.
  std::vector<std::vector<uint8_t>> EncryptAll(
      const ObliviousTransfer& ot, const ObliviousTransfer::SenderState& s,
      const BigInt& receiver_b,
      const std::vector<std::vector<uint8_t>>& messages) {
    auto b_inv = ot.InvertReceiverMessage(receiver_b);
    EXPECT_TRUE(b_inv.ok());
    std::vector<std::vector<uint8_t>> out;
    for (size_t slot = 0; slot < messages.size(); ++slot) {
      out.push_back(
          ot.SenderEncryptSlot(s, b_inv.value(), messages[slot], slot));
    }
    return out;
  }

  /// The receiver's last step: K = A^k un-pads slot `slot`.
  std::vector<uint8_t> Open(const ObliviousTransfer& ot,
                            const ObliviousTransfer::SenderState& s,
                            const ObliviousTransfer::ReceiverState& receiver,
                            const std::vector<uint8_t>& slot) {
    auto key = ot.ReceiverKeyElement(s.a, receiver.k);
    EXPECT_TRUE(key.ok());
    return ot.ApplyPad(key.value(), slot);
  }

  Rng rng_;
  DhGroup group_;
};

TEST_F(OtFixture, ReceiverGetsEveryChosenSlot) {
  const size_t slots = 5;
  ObliviousTransfer ot(group_, slots);
  std::vector<std::vector<uint8_t>> messages;
  for (size_t i = 0; i < slots; ++i) {
    messages.push_back(std::vector<uint8_t>(16, static_cast<uint8_t>(i + 1)));
  }
  for (size_t sigma = 0; sigma < slots; ++sigma) {
    const auto sender = Sender(ot);
    auto receiver = ot.ReceiverCommit(sender.c[sigma], sigma, rng_);
    ASSERT_TRUE(receiver.ok());
    const auto enc = EncryptAll(ot, sender, receiver.value().b, messages);
    EXPECT_EQ(Open(ot, sender, receiver.value(), enc[sigma]),
              messages[sigma]);
  }
}

TEST_F(OtFixture, NonChosenSlotsAreNotRecoverable) {
  const size_t slots = 3;
  ObliviousTransfer ot(group_, slots);
  std::vector<std::vector<uint8_t>> messages = {
      std::vector<uint8_t>(16, 0xAA), std::vector<uint8_t>(16, 0xBB),
      std::vector<uint8_t>(16, 0xCC)};
  const auto sender = Sender(ot);
  const auto receiver = ot.ReceiverCommit(sender.c[1], 1, rng_).value();
  const auto enc = EncryptAll(ot, sender, receiver.b, messages);
  // The receiver's key decrypts only its slot; applying its pad to other
  // slots yields garbage (not equal to the plaintext).
  EXPECT_EQ(Open(ot, sender, receiver, enc[1]), messages[1]);
  for (size_t wrong : {0u, 2u}) {
    EXPECT_NE(Open(ot, sender, receiver, enc[wrong]), messages[wrong]);
  }
}

TEST_F(OtFixture, HostileSenderElementsAreRejected) {
  // A and the chosen C_sigma come off the wire. Outside (1, p - 1) they
  // are refused before any exponentiation, as DH publics are.
  const size_t slots = 3;
  ObliviousTransfer ot(group_, slots);
  const auto sender = Sender(ot);
  const auto receiver = ot.ReceiverCommit(sender.c[1], 1, rng_).value();
  for (const BigInt& bad : {BigInt(-5), BigInt(1) << 5000, BigInt(0),
                            BigInt(1), group_.p - BigInt(1), group_.p}) {
    EXPECT_EQ(ot.ReceiverKeyElement(bad, receiver.k).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(ot.ReceiverCommit(bad, 1, rng_).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(ot.InvertReceiverMessage(bad).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST_F(OtFixture, ChoiceMessageIndependentOfSigma) {
  // Receiver privacy: B is a uniformly random group element whatever sigma
  // is; sanity-check that repeated choices of different sigma produce
  // messages with no fixed relation to the slot.
  ObliviousTransfer ot(group_, 4);
  const auto sender = Sender(ot);
  auto r0 = ot.ReceiverCommit(sender.c[0], 0, rng_).value();
  auto r0b = ot.ReceiverCommit(sender.c[0], 0, rng_).value();
  auto r3 = ot.ReceiverCommit(sender.c[3], 3, rng_).value();
  EXPECT_NE(r0.b, r0b.b);  // fresh randomness each run
  EXPECT_NE(r0.b, r3.b);
}

TEST_F(OtFixture, RejectsBadParameters) {
  ObliviousTransfer ot(group_, 3);
  const auto sender = Sender(ot);
  // A choice past the last slot.
  EXPECT_FALSE(ot.ReceiverCommit(sender.c[0], 3, rng_).ok());
  // A receiver message of 0 has no inverse to pad the slots with.
  EXPECT_FALSE(ot.InvertReceiverMessage(BigInt(0)).ok());
}

TEST_F(OtFixture, LargePayloads) {
  ObliviousTransfer ot(group_, 2);
  std::vector<std::vector<uint8_t>> messages(2,
                                             std::vector<uint8_t>(1024, 0));
  for (size_t i = 0; i < 1024; ++i) {
    messages[0][i] = static_cast<uint8_t>(i);
    messages[1][i] = static_cast<uint8_t>(255 - (i % 256));
  }
  const auto sender = Sender(ot);
  const auto receiver = ot.ReceiverCommit(sender.c[1], 1, rng_).value();
  const auto enc = EncryptAll(ot, sender, receiver.b, messages);
  EXPECT_EQ(Open(ot, sender, receiver, enc[1]), messages[1]);
}

}  // namespace
}  // namespace uldp
