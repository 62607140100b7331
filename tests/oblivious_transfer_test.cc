#include <gtest/gtest.h>

#include "crypto/oblivious_transfer.h"

namespace uldp {
namespace {

class OtFixture : public ::testing::Test {
 protected:
  OtFixture() : rng_(7) {
    group_ = DhGroup::GenerateSafePrimeGroup(192, rng_);
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
    auto sender = ot.SenderInit(rng_);
    auto receiver = ot.ReceiverChoose(sender, sigma, rng_);
    ASSERT_TRUE(receiver.ok());
    auto enc = ot.SenderEncrypt(sender, receiver.value().b, messages);
    ASSERT_TRUE(enc.ok());
    auto got = ot.ReceiverDecrypt(receiver.value(), sender, enc.value());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), messages[sigma]);
  }
}

TEST_F(OtFixture, NonChosenSlotsAreNotRecoverable) {
  const size_t slots = 3;
  ObliviousTransfer ot(group_, slots);
  std::vector<std::vector<uint8_t>> messages = {
      std::vector<uint8_t>(16, 0xAA), std::vector<uint8_t>(16, 0xBB),
      std::vector<uint8_t>(16, 0xCC)};
  auto sender = ot.SenderInit(rng_);
  auto receiver = ot.ReceiverChoose(sender, 1, rng_);
  auto enc = ot.SenderEncrypt(sender, receiver.value().b, messages);
  ASSERT_TRUE(enc.ok());
  // The receiver's key decrypts only its slot; applying its pad to other
  // slots yields garbage (not equal to the plaintext).
  auto state = receiver.value();
  for (size_t wrong : {0u, 2u}) {
    auto hacked = state;
    hacked.sigma = wrong;
    auto got = ot.ReceiverDecrypt(hacked, sender, enc.value());
    ASSERT_TRUE(got.ok());
    EXPECT_NE(got.value(), messages[wrong]);
  }
}

TEST_F(OtFixture, HostileSenderElementsAreRejected) {
  // A and the chosen C_sigma come off the wire. Outside (1, p - 1) they
  // are refused before any exponentiation, as DH publics are.
  const size_t slots = 3;
  ObliviousTransfer ot(group_, slots);
  const auto sender = ot.SenderInit(rng_);
  const auto receiver = ot.ReceiverChoose(sender, 1, rng_).value();
  const std::vector<std::vector<uint8_t>> enc(slots,
                                              std::vector<uint8_t>(16, 0));
  for (const BigInt& bad : {BigInt(-5), BigInt(1) << 5000, BigInt(0),
                            BigInt(1), group_.p - BigInt(1), group_.p}) {
    EXPECT_EQ(ot.ReceiverKeyElement(bad, receiver.k).status().code(),
              StatusCode::kInvalidArgument);
    auto hostile = sender;
    hostile.a = bad;
    EXPECT_EQ(ot.ReceiverDecrypt(receiver, hostile, enc).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(ot.ReceiverCommit(bad, 1, rng_).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST_F(OtFixture, ChoiceMessageIndependentOfSigma) {
  // Receiver privacy: B is a uniformly random group element whatever sigma
  // is; sanity-check that repeated choices of different sigma produce
  // messages with no fixed relation to the slot.
  ObliviousTransfer ot(group_, 4);
  auto sender = ot.SenderInit(rng_);
  auto r0 = ot.ReceiverChoose(sender, 0, rng_).value();
  auto r0b = ot.ReceiverChoose(sender, 0, rng_).value();
  auto r3 = ot.ReceiverChoose(sender, 3, rng_).value();
  EXPECT_NE(r0.b, r0b.b);  // fresh randomness each run
  EXPECT_NE(r0.b, r3.b);
}

TEST_F(OtFixture, RejectsBadParameters) {
  ObliviousTransfer ot(group_, 3);
  auto sender = ot.SenderInit(rng_);
  EXPECT_FALSE(ot.ReceiverChoose(sender, 3, rng_).ok());  // out of range
  auto receiver = ot.ReceiverChoose(sender, 0, rng_).value();
  std::vector<std::vector<uint8_t>> wrong_count = {{1}, {2}};
  EXPECT_FALSE(ot.SenderEncrypt(sender, receiver.b, wrong_count).ok());
  std::vector<std::vector<uint8_t>> ragged = {{1}, {2, 2}, {3}};
  EXPECT_FALSE(ot.SenderEncrypt(sender, receiver.b, ragged).ok());
  EXPECT_FALSE(ot.SenderEncrypt(sender, BigInt(0), {{1}, {2}, {3}}).ok());
}

TEST_F(OtFixture, LargePayloads) {
  ObliviousTransfer ot(group_, 2);
  std::vector<std::vector<uint8_t>> messages(2,
                                             std::vector<uint8_t>(1024, 0));
  for (size_t i = 0; i < 1024; ++i) {
    messages[0][i] = static_cast<uint8_t>(i);
    messages[1][i] = static_cast<uint8_t>(255 - (i % 256));
  }
  auto sender = ot.SenderInit(rng_);
  auto receiver = ot.ReceiverChoose(sender, 1, rng_).value();
  auto enc = ot.SenderEncrypt(sender, receiver.b, messages).value();
  EXPECT_EQ(ot.ReceiverDecrypt(receiver, sender, enc).value(), messages[1]);
}

}  // namespace
}  // namespace uldp
