// Cross-kernel tests: the 16-block AVX-512F and AVX2 ChaCha20 kernels
// against the scalar RFC 8439 block, through the stream's public readers,
// at block counters that straddle batch boundaries and the 2^32 wrap.
// Cases for a kernel the CPU lacks are skipped.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "crypto/chacha.h"
#include "crypto/secure_agg.h"
#include "math/limbs.h"
#include "obs/metrics.h"

namespace uldp {
namespace {

constexpr ChaChaKernel kAllKernels[] = {
    ChaChaKernel::kScalar, ChaChaKernel::kAvx2, ChaChaKernel::kAvx512};

const char* Name(ChaChaKernel kernel) {
  switch (kernel) {
    case ChaChaKernel::kScalar:
      return "scalar";
    case ChaChaKernel::kAvx2:
      return "avx2";
    case ChaChaKernel::kAvx512:
      return "avx512";
  }
  return "?";
}

// The SIMD kernels this CPU runs.
std::vector<ChaChaKernel> SimdKernels() {
  std::vector<ChaChaKernel> out;
  for (ChaChaKernel k : {ChaChaKernel::kAvx2, ChaChaKernel::kAvx512}) {
    if (ChaChaKernels::Available(k)) out.push_back(k);
  }
  return out;
}

std::vector<uint8_t> FromHex(const std::string& hex) {
  std::string digits;
  for (char c : hex) {
    if (std::isxdigit(static_cast<unsigned char>(c))) digits += c;
  }
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < digits.size(); i += 2) {
    out.push_back(static_cast<uint8_t>(std::stoi(digits.substr(i, 2),
                                                 nullptr, 16)));
  }
  return out;
}

// The next n keystream bytes, read through NextUint64 (little endian).
std::vector<uint8_t> ReadBytes(ChaChaRng& stream, size_t n) {
  std::vector<uint8_t> out;
  while (out.size() < n) {
    const uint64_t v = stream.NextUint64();
    for (int i = 0; i < 8 && out.size() < n; ++i) {
      out.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  return out;
}

std::vector<uint64_t> ReadWords(ChaChaRng& stream, size_t n) {
  std::vector<uint64_t> out(n);
  for (uint64_t& w : out) w = stream.NextUint64();
  return out;
}

uint64_t CounterValue(const std::string& name) {
  for (const auto& m : obs::MetricsRegistry::Global().Snapshot()) {
    if (m.name == name) return m.counter_value;
  }
  return 0;
}

TEST(ChaChaKernelTest, ProcessPicksTheWidestKernelCpuidReports) {
  // libgcc reads the same CPUID leaves and XCR0 state independently.
  EXPECT_EQ(ChaChaKernels::Available(ChaChaKernel::kAvx512),
            __builtin_cpu_supports("avx512f") != 0);
  EXPECT_EQ(ChaChaKernels::Available(ChaChaKernel::kAvx2),
            __builtin_cpu_supports("avx2") != 0);
  EXPECT_TRUE(ChaChaKernels::Available(ChaChaKernel::kScalar));
  const ChaChaKernel want =
      ChaChaKernels::Available(ChaChaKernel::kAvx512) ? ChaChaKernel::kAvx512
      : ChaChaKernels::Available(ChaChaKernel::kAvx2) ? ChaChaKernel::kAvx2
                                                      : ChaChaKernel::kScalar;
  EXPECT_EQ(ChaChaKernels::Picked(), want) << Name(want);
}

TEST(ChaChaKernelTest, Rfc8439CipherKeystreamOnEveryKernel) {
  // RFC 8439 §2.4.2: key 00..1f, nonce 00:00:00:00:00:00:00:4a:00:00:00:00,
  // initial counter 1. Keystream XOR plaintext must give the ciphertext.
  ChaChaRng::Key key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<uint8_t>(i);
  const ChaChaRng::Nonce nonce = {0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0};
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.";
  const std::vector<uint8_t> ciphertext = FromHex(
      "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
      "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
      "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
      "5af90bbf74a35be6b40b8eedf2785e42874d");
  ASSERT_EQ(ciphertext.size(), plaintext.size());
  for (ChaChaKernel kernel : kAllKernels) {
    if (!ChaChaKernels::Available(kernel)) continue;
    // Through the public stream, which starts at block 0: skip it.
    ChaChaRng from_zero = ChaChaKernels::On(key, nonce, kernel);
    ReadWords(from_zero, 8);
    ChaChaRng from_one = ChaChaKernels::On(key, nonce, kernel, 1);
    for (ChaChaRng* stream : {&from_zero, &from_one}) {
      const std::vector<uint8_t> ks = ReadBytes(*stream, plaintext.size());
      for (size_t i = 0; i < plaintext.size(); ++i) {
        ASSERT_EQ(static_cast<uint8_t>(plaintext[i]) ^ ks[i], ciphertext[i])
            << Name(kernel) << " byte " << i;
      }
    }
  }
}

TEST(ChaChaKernelTest, Rfc8439AppendixBlockVectorsOnEveryKernel) {
  // RFC 8439 Appendix A.1, test vectors 1-5: one 64-byte block each.
  struct Vector {
    int key_byte;
    uint8_t key_value;
    int nonce_byte;
    uint8_t nonce_value;
    uint32_t counter;
    const char* keystream;
  };
  const Vector vectors[] = {
      {0, 0, 0, 0, 0,
       "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
       "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586"},
      {0, 0, 0, 0, 1,
       "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed"
       "29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f"},
      {31, 1, 0, 0, 1,
       "3aeb5224ecf849929b9d828db1ced4dd832025e8018b8160b82284f3c949aa5a"
       "8eca00bbb4a73bdad192b5c42f73f2fd4e273644c8b36125a64addeb006c13a0"},
      {1, 0xff, 0, 0, 2,
       "72d54dfbf12ec44b362692df94137f328fea8da73990265ec1bbbea1ae9af0ca"
       "13b25aa26cb4a648cb9b9d1be65b2c0924a66c54d545ec1b7374f4872e99f096"},
      {0, 0, 11, 2, 0,
       "c2c64d378cd536374ae204b9ef933fcd1a8b2288b3dfa49672ab765b54ee27c7"
       "8a970e0e955c14f3a88e741b97c286f75f8fc299e8148362fa198a39531bed6d"},
  };
  for (ChaChaKernel kernel : kAllKernels) {
    if (!ChaChaKernels::Available(kernel)) continue;
    for (const Vector& v : vectors) {
      ChaChaRng::Key key{};
      key[v.key_byte] = v.key_value;
      ChaChaRng::Nonce nonce{};
      nonce[v.nonce_byte] = v.nonce_value;
      ChaChaRng stream = ChaChaKernels::On(key, nonce, kernel);
      ReadWords(stream, 8 * v.counter);
      EXPECT_EQ(ReadBytes(stream, 64), FromHex(v.keystream))
          << Name(kernel) << " counter " << v.counter;
    }
  }
}

TEST(ChaChaKernelTest, KernelsMatchScalarBlockAcrossBatchesAndTheWrap) {
  std::vector<uint32_t> starts = {0, 1, 15, 16, 17, 1u << 31};
  for (uint32_t back = 20; back >= 1; --back) {
    starts.push_back(static_cast<uint32_t>((uint64_t{1} << 32) - back));
  }
  const ChaChaRng::Key key = ChaChaRng::DeriveKey("cross-kernel");
  const ChaChaRng::Nonce nonces[] = {ChaChaRng::MakeNonce(7),
                                     ChaChaRng::MakeNonce(0xfeedULL, 5)};
  const std::vector<ChaChaKernel> kernels = SimdKernels();
  if (kernels.empty()) GTEST_SKIP() << "no SIMD ChaCha kernel on this CPU";
  for (ChaChaKernel kernel : kernels) {
    for (const ChaChaRng::Nonce& nonce : nonces) {
      for (uint32_t start : starts) {
        // Up to 40 blocks (two and a half batches), stopping at the last
        // block before the counter is exhausted.
        const uint64_t usable = 0xFFFFFFFFull - start;
        const size_t blocks =
            static_cast<size_t>(std::min<uint64_t>(usable, 40));
        ChaChaRng scalar =
            ChaChaKernels::On(key, nonce, ChaChaKernel::kScalar, start);
        ChaChaRng simd = ChaChaKernels::On(key, nonce, kernel, start);
        EXPECT_EQ(ReadWords(simd, 8 * blocks), ReadWords(scalar, 8 * blocks))
            << Name(kernel) << " start " << start;
      }
    }
  }
}

/// One draw of [0, m) as the rejection loop defines it, word by word
/// through NextUint64: k words, the top one masked to m's bit length, kept
/// iff below m.
void ReferenceDraw(ChaChaRng& stream, const std::vector<uint64_t>& m,
                   uint64_t* out) {
  const size_t k = m.size();
  const int top_bits = 64 - __builtin_clzll(m[k - 1]);
  const uint64_t top_mask =
      top_bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << top_bits) - 1;
  do {
    for (size_t i = 0; i < k; ++i) out[i] = stream.NextUint64();
    out[k - 1] &= top_mask;
  } while (limbs::Compare(out, m.data(), k) >= 0);
}

TEST(ChaChaKernelTest, UniformBelowDrawsMatchScalarAcrossRefills) {
  const ChaChaRng::Key key = ChaChaRng::DeriveKey("draws");
  // From block 0, and from 40 blocks before the 2^32 wrap, where a SIMD
  // stream takes two batches and then falls back to scalar blocks. Near
  // the wrap the draws use about half of the 39 usable blocks' words.
  for (const uint32_t start : {0u, 0xFFFFFFFFu - 40}) {
    const size_t words = start == 0 ? 8192 : 312;
    for (size_t k : {1, 2, 4, 16, 32}) {
      // Top limb 2^63 + 1 keeps every bit of the top word, so about half
      // of all attempts are rejected and refills land mid-attempt.
      std::vector<uint64_t> m(k, 0x9e3779b97f4a7c15ull);
      m[k - 1] = (uint64_t{1} << 63) + 1;
      const size_t draws = words / (4 * k);
      const ChaChaRng::Nonce nonce = ChaChaRng::MakeNonce(k);
      ChaChaRng reference =
          ChaChaKernels::On(key, nonce, ChaChaKernel::kScalar, start);
      std::vector<uint64_t> want(draws * k);
      for (size_t i = 0; i < draws; ++i) {
        ReferenceDraw(reference, m, want.data() + i * k);
        ASSERT_LT(limbs::Compare(want.data() + i * k, m.data(), k), 0);
      }
      const uint64_t next = reference.NextUint64();
      for (ChaChaKernel kernel : kAllKernels) {
        if (!ChaChaKernels::Available(kernel)) continue;
        SCOPED_TRACE(std::string(Name(kernel)) + " k=" + std::to_string(k) +
                     " start " + std::to_string(start));
        // One draw per call, all draws in one call, and two calls that
        // split the draws mid-refill.
        ChaChaRng single = ChaChaKernels::On(key, nonce, kernel, start);
        ChaChaRng bulk = ChaChaKernels::On(key, nonce, kernel, start);
        ChaChaRng split = ChaChaKernels::On(key, nonce, kernel, start);
        std::vector<uint64_t> got_single(draws * k), got_bulk(draws * k),
            got_split(draws * k);
        for (size_t i = 0; i < draws; ++i) {
          single.UniformBelow(m.data(), k, got_single.data() + i * k);
        }
        bulk.UniformBelow(m.data(), k, got_bulk.data(), draws);
        const size_t first = draws / 3;
        split.UniformBelow(m.data(), k, got_split.data(), first);
        split.UniformBelow(m.data(), k, got_split.data() + first * k,
                           draws - first);
        EXPECT_EQ(got_single, want);
        EXPECT_EQ(got_bulk, want);
        EXPECT_EQ(got_split, want);
        // Each consumed the same words, rejections included.
        EXPECT_EQ(single.NextUint64(), next);
        EXPECT_EQ(bulk.NextUint64(), next);
        EXPECT_EQ(split.NextUint64(), next);
      }
    }
  }
}

TEST(ChaChaKernelTest, AddMasksMatchesScalarStreams) {
  // 1001 two-limb elements: 4004 keystream words, not a multiple of a
  // 256-word batch, and a serial draw ends mid-chunk.
  const size_t dim = 1001;
  const int parties = 3;
  SecureAggregator agg(AggregationPrime(), parties);
  std::vector<ChaChaRng::Key> keys(parties);
  for (int j = 0; j < parties; ++j) {
    keys[j] = ChaChaRng::DeriveKey("pair|" + std::to_string(j));
  }
  const size_t k = agg.limbs();
  const uint64_t* n = AggregationPrime().limbs().data();
  for (int me = 0; me < parties; ++me) {
    // The reference: every peer's stream on the scalar block.
    FieldVector want(dim, k);
    std::vector<uint64_t> mask(k);
    for (int other = 0; other < parties; ++other) {
      if (other == me) continue;
      ChaChaRng stream = ChaChaKernels::On(
          keys[other], ChaChaRng::MakeNonce(42), ChaChaKernel::kScalar);
      for (size_t d = 0; d < dim; ++d) {
        stream.UniformBelow(n, k, mask.data());
        if (me < other) {
          limbs::ModAdd(want.element(d), mask.data(), n, k);
        } else {
          limbs::ModSub(want.element(d), mask.data(), n, k);
        }
      }
    }
    FieldVector got(dim, k);
    agg.AddMasks(me, keys, 42, got);
    EXPECT_TRUE(got == want) << "me=" << me;
  }
}

TEST(ChaChaKernelTest, BlocksAreCountedPerKernel) {
  const ChaChaRng::Key key = ChaChaRng::DeriveKey("count");
  for (ChaChaKernel kernel : kAllKernels) {
    if (!ChaChaKernels::Available(kernel)) continue;
    const std::string name =
        std::string("crypto.chacha.") + Name(kernel) + "_blocks";
    const uint64_t before = CounterValue(name);
    {
      // 17 blocks: one batch and one more on a SIMD kernel.
      ChaChaRng stream =
          ChaChaKernels::On(key, ChaChaRng::MakeNonce(1), kernel);
      ReadWords(stream, 8 * 17);
      EXPECT_EQ(CounterValue(name), before) << "counted before destruction";
    }
    const uint64_t blocks = kernel == ChaChaKernel::kScalar ? 17 : 32;
    EXPECT_EQ(CounterValue(name) - before, blocks) << name;
  }
  // Near the wrap a SIMD stream falls back to scalar blocks.
  const std::vector<ChaChaKernel> kernels = SimdKernels();
  if (kernels.empty()) return;
  const uint64_t scalar_before = CounterValue("crypto.chacha.scalar_blocks");
  {
    ChaChaRng stream = ChaChaKernels::On(key, ChaChaRng::MakeNonce(1),
                                         kernels.back(), 0xFFFFFFFFu - 3);
    ReadWords(stream, 8 * 3);
  }
  EXPECT_EQ(CounterValue("crypto.chacha.scalar_blocks") - scalar_before, 3u);
  for (const char* name : {"crypto.chacha.scalar_blocks",
                           "crypto.chacha.avx2_blocks",
                           "crypto.chacha.avx512_blocks"}) {
    bool found = false;
    for (const auto& m : obs::MetricsRegistry::Global().Snapshot()) {
      found = found || m.name == name;
    }
    EXPECT_TRUE(found) << name << " is registered with the first stream";
  }
}

#ifdef GTEST_HAS_DEATH_TEST
TEST(ChaChaKernelDeathTest, StreamNearTheWrapDiesAtTheScalarWord) {
  // Streams started 1 to 18 blocks before the exhausted counter. 16 is the
  // last start that still takes a 16-block batch and 15 the first that
  // must not. Each yields the scalar words, then aborts on the read that
  // would need block 2^32 - 1.
  const ChaChaRng::Key key = ChaChaRng::DeriveKey("wrap");
  const ChaChaRng::Nonce nonce = ChaChaRng::MakeNonce(3, 9);
  for (ChaChaKernel kernel : kAllKernels) {
    if (!ChaChaKernels::Available(kernel)) continue;
    for (uint32_t left : {1u, 5u, 15u, 16u, 17u, 18u}) {
      const uint32_t start = 0xFFFFFFFFu - left;
      ChaChaRng scalar =
          ChaChaKernels::On(key, nonce, ChaChaKernel::kScalar, start);
      ChaChaRng stream = ChaChaKernels::On(key, nonce, kernel, start);
      const size_t words = 8 * static_cast<size_t>(left);
      EXPECT_EQ(ReadWords(stream, words), ReadWords(scalar, words))
          << Name(kernel) << " start " << start;
      EXPECT_DEATH(stream.NextUint64(), "ChaCha20 block counter exhausted")
          << Name(kernel) << " start " << start;
    }
  }
}
#endif

}  // namespace
}  // namespace uldp
