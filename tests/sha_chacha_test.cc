#include <gtest/gtest.h>

#include "crypto/chacha.h"
#include "crypto/sha256.h"

namespace uldp {
namespace {

// FIPS 180-4 known-answer vectors.
TEST(Sha256Test, KnownAnswerVectors) {
  EXPECT_EQ(DigestToHex(Sha256(std::string(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(DigestToHex(Sha256(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(DigestToHex(Sha256(std::string(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  std::string a(1000000, 'a');
  EXPECT_EQ(DigestToHex(Sha256(a)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, PaddingBoundaries) {
  // Lengths around the 55/56/64-byte padding boundaries must not crash and
  // must be distinct.
  std::string prev;
  for (size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string cur = DigestToHex(Sha256(std::string(len, 'x')));
    EXPECT_NE(cur, prev);
    prev = cur;
  }
}

TEST(Sha256Test, ByteVectorOverloadMatchesString) {
  std::string s = "hello world";
  std::vector<uint8_t> v(s.begin(), s.end());
  EXPECT_EQ(DigestToHex(Sha256(s)), DigestToHex(Sha256(v)));
}

TEST(ChaChaTest, MatchesRfc8439BlockVector) {
  // RFC 8439 §2.3.2: key 00..1f, nonce 00:00:00:09:00:00:00:4a:00:00:00:00,
  // block counter 1. The stream starts at counter 0, so block 1 is words
  // 8..15; each word is the next 8 keystream bytes read little-endian.
  ChaChaRng::Key key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<uint8_t>(i);
  const ChaChaRng::Nonce nonce = {0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0};
  ChaChaRng rng(key, nonce);
  for (int i = 0; i < 8; ++i) rng.NextUint64();
  const uint64_t block1[8] = {
      0x15593bd1e4e7f110ull, 0xc47120a31fdd0f50ull, 0x0368c033c7f4d1c7ull,
      0x4e6cd4c39aaa2204ull, 0x09aa9f07466482d2ull, 0xa2028bd905d7c214ull,
      0xb94e16ded19c12b5ull, 0x4e3c50a2e883d0cbull};
  for (int i = 0; i < 8; ++i) EXPECT_EQ(rng.NextUint64(), block1[i]) << i;
}

TEST(ChaChaTest, DeterministicForSameKeyNonce) {
  auto key = ChaChaRng::DeriveKey("seed material");
  auto nonce = ChaChaRng::MakeNonce(42);
  ChaChaRng a(key, nonce), b(key, nonce);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(ChaChaTest, DifferentNonceDiffers) {
  auto key = ChaChaRng::DeriveKey("seed material");
  ChaChaRng a(key, ChaChaRng::MakeNonce(1));
  ChaChaRng b(key, ChaChaRng::MakeNonce(2));
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextUint64() == b.NextUint64();
  EXPECT_EQ(same, 0);
}

TEST(ChaChaTest, DifferentStreamIdDiffers) {
  auto key = ChaChaRng::DeriveKey("k");
  ChaChaRng a(key, ChaChaRng::MakeNonce(1, 0));
  ChaChaRng b(key, ChaChaRng::MakeNonce(1, 1));
  EXPECT_NE(a.NextUint64(), b.NextUint64());
}

TEST(ChaChaTest, DifferentKeyDiffers) {
  ChaChaRng a(ChaChaRng::DeriveKey("k1"), ChaChaRng::MakeNonce(1));
  ChaChaRng b(ChaChaRng::DeriveKey("k2"), ChaChaRng::MakeNonce(1));
  EXPECT_NE(a.NextUint64(), b.NextUint64());
}

TEST(ChaChaTest, UniformBelowInRangeAndCoversValues) {
  auto key = ChaChaRng::DeriveKey("range");
  ChaChaRng rng(key, ChaChaRng::MakeNonce(7));
  BigInt bound = BigInt::FromDecimal("1000000000000000000000").value();
  for (int i = 0; i < 200; ++i) {
    BigInt v = rng.UniformBelow(bound);
    EXPECT_TRUE(v >= BigInt(0) && v < bound);
  }
  // Small bound: all residues appear.
  ChaChaRng rng2(key, ChaChaRng::MakeNonce(8));
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 200; ++i) {
    ++seen[rng2.UniformBelow(BigInt(5)).LowUint64()];
  }
  for (int c : seen) EXPECT_GT(c, 0);
}

TEST(ChaChaTest, KeystreamLooksBalanced) {
  // Crude statistical check: bit balance of 64k bits within 2%.
  ChaChaRng rng(ChaChaRng::DeriveKey("balance"), ChaChaRng::MakeNonce(3));
  int64_t ones = 0;
  const int words = 1024;
  for (int i = 0; i < words; ++i) ones += __builtin_popcountll(rng.NextUint64());
  double frac = static_cast<double>(ones) / (64.0 * words);
  EXPECT_NEAR(frac, 0.5, 0.02);
}

}  // namespace
}  // namespace uldp
