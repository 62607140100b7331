#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/parallel.h"
#include "crypto/fixed_point.h"
#include "crypto/secure_agg.h"
#include "fl/local_trainer.h"
#include "math/primes.h"
#include "net/messages.h"
#include "net/wire.h"

namespace uldp {
namespace {

std::vector<std::vector<ChaChaRng::Key>> MakePairKeys(int parties,
                                                      const std::string& tag) {
  std::vector<std::vector<ChaChaRng::Key>> keys(
      parties, std::vector<ChaChaRng::Key>(parties));
  for (int i = 0; i < parties; ++i) {
    for (int j = i + 1; j < parties; ++j) {
      auto key = ChaChaRng::DeriveKey(tag + "|" + std::to_string(i) + "," +
                                      std::to_string(j));
      keys[i][j] = key;
      keys[j][i] = key;
    }
  }
  return keys;
}

/// Party `p`'s mask vector alone: its masks added to zeros.
FieldVector MaskOf(const SecureAggregator& agg,
                   const std::vector<ChaChaRng::Key>& keys, int p,
                   uint64_t tag, size_t dim, ThreadPool* pool = nullptr) {
  FieldVector mask(dim, agg.limbs());
  agg.AddMasks(p, keys, tag, mask, pool);
  return mask;
}

class SecureAggSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SecureAggSweep, MasksCancelInSum) {
  auto [parties, dim] = GetParam();
  Rng rng(99);
  BigInt q = GeneratePrime(96, rng);
  SecureAggregator agg(q, parties);
  auto keys = MakePairKeys(parties, "t1");

  std::vector<BigInt> expect(dim, BigInt(0));
  std::vector<FieldVector> masked;
  for (int p = 0; p < parties; ++p) {
    std::vector<BigInt> v(dim);
    for (int d = 0; d < dim; ++d) {
      v[d] = BigInt::RandomBelow(q, rng);
      expect[d] = expect[d].ModAdd(v[d], q);
    }
    FieldVector flat(v, agg.limbs());
    agg.AddMasks(p, keys[p], /*tag=*/5, flat);
    masked.push_back(std::move(flat));
  }
  EXPECT_EQ(agg.Sum(masked).ToBigInts(), expect);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SecureAggSweep,
    ::testing::Combine(::testing::Values(2, 3, 5, 10),
                       ::testing::Values(1, 7, 32)));

TEST(SecureAggTest, MaskedValuesHideInputs) {
  Rng rng(100);
  BigInt q = GeneratePrime(96, rng);
  SecureAggregator agg(q, 3);
  auto keys = MakePairKeys(3, "t2");
  FieldVector v({BigInt(42)}, agg.limbs());
  agg.AddMasks(0, keys[0], 1, v);
  EXPECT_NE(v.ToBigInts()[0], BigInt(42));
}

TEST(SecureAggTest, MasksSumToZeroAcrossParties) {
  Rng rng(101);
  BigInt q = GeneratePrime(80, rng);
  const int parties = 4;
  SecureAggregator agg(q, parties);
  auto keys = MakePairKeys(parties, "t3");
  std::vector<FieldVector> masks;
  for (int p = 0; p < parties; ++p) {
    masks.push_back(MaskOf(agg, keys[p], p, 9, 3));
  }
  EXPECT_EQ(agg.Sum(masks), FieldVector(3, agg.limbs()));
}

TEST(SecureAggTest, PooledMaskGenerationCancelsAtAnyThreadCount) {
  // Property test guarding the parallel mask pipeline: for random shapes,
  // the per-party masks must sum to zero across all parties, and the
  // pooled path must be bitwise identical to the serial one at every
  // thread count (the mask streams come from Fork-style independent PRF
  // evaluations combined in fixed peer order).
  Rng shape_rng(7341);
  for (int trial = 0; trial < 6; ++trial) {
    const int parties = 2 + static_cast<int>(shape_rng.UniformInt(9));
    const size_t dim = 1 + shape_rng.UniformInt(40);
    const uint64_t tag = shape_rng.NextUint64();
    Rng rng(1000 + trial);
    BigInt q = GeneratePrime(96, rng);
    SecureAggregator agg(q, parties);
    auto keys = MakePairKeys(parties, "pool" + std::to_string(trial));

    std::vector<FieldVector> serial;
    for (int p = 0; p < parties; ++p) {
      serial.push_back(MaskOf(agg, keys[p], p, tag, dim));
    }
    EXPECT_EQ(agg.Sum(serial), FieldVector(dim, agg.limbs()))
        << "masks leak at trial " << trial;

    for (int threads : {1, 2, 5}) {
      ThreadPool pool(threads);
      for (int p = 0; p < parties; ++p) {
        EXPECT_EQ(MaskOf(agg, keys[p], p, tag, dim, &pool), serial[p])
            << "thread count " << threads << " changed party " << p
            << "'s masks (trial " << trial << ")";
      }
    }
  }
}

TEST(SecureAggTest, DifferentTagsGiveDifferentMasks) {
  Rng rng(102);
  BigInt q = GeneratePrime(80, rng);
  SecureAggregator agg(q, 2);
  auto keys = MakePairKeys(2, "t4");
  EXPECT_NE(MaskOf(agg, keys[0], 0, 1, 4), MaskOf(agg, keys[0], 0, 2, 4));
}

// ---------------------------------------------------------------------------
// The flat core against the BigInt formulation it replaced: the per-draw
// BigInt loop, encode and decode inlined below, BigInt::ModAdd/ModSub,
// FixedPointCodec::Encode/DecodePlain and WireWriter::BigVec. Limbs, frame
// bytes and decoded doubles must all be identical.

constexpr double kPrecision = 1e-10;

/// One draw as the BigInt rejection loop made it: k keystream words, the
/// top one masked to the modulus's bit length, kept iff below it.
BigInt ReferenceDraw(ChaChaRng& stream, const BigInt& modulus,
                     int* rejected) {
  const int bits = modulus.BitLength();
  const size_t nlimbs = (bits + 63) / 64;
  const int top_bits = bits - static_cast<int>(nlimbs - 1) * 64;
  const uint64_t top_mask =
      top_bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << top_bits) - 1;
  for (;;) {
    std::vector<uint64_t> limbs(nlimbs);
    for (auto& l : limbs) l = stream.NextUint64();
    limbs.back() &= top_mask;
    BigInt candidate = BigInt::FromLimbs(std::move(limbs));
    if (candidate < modulus) return candidate;
    ++*rejected;
  }
}

/// Encode every coordinate, build the mask vector from zero peer by peer,
/// then add it: the BigInt MaskVector + AddMasks pipeline.
std::vector<BigInt> ReferenceMasked(const FixedPointCodec& codec,
                                    const Vec& delta, int me, int parties,
                                    const std::vector<ChaChaRng::Key>& keys,
                                    uint64_t tag, int* rejected) {
  const BigInt& q = codec.modulus();
  std::vector<BigInt> mask(delta.size(), BigInt(0));
  for (int other = 0; other < parties; ++other) {
    if (other == me) continue;
    ChaChaRng stream(keys[other], ChaChaRng::MakeNonce(tag));
    for (size_t d = 0; d < delta.size(); ++d) {
      BigInt m = ReferenceDraw(stream, q, rejected);
      mask[d] = me < other ? mask[d].ModAdd(m, q) : mask[d].ModSub(m, q);
    }
  }
  std::vector<BigInt> out(delta.size());
  for (size_t d = 0; d < delta.size(); ++d) {
    // Encode: x/P rounded, reduced into [0, q).
    const BigInt enc =
        BigInt(static_cast<int64_t>(std::llround(delta[d] / kPrecision)))
            .Mod(q);
    auto codec_enc = codec.Encode(delta[d]);
    EXPECT_TRUE(codec_enc.ok()) << codec_enc.status().ToString();
    EXPECT_EQ(codec_enc.value(), enc);
    out[d] = enc.ModAdd(mask[d], q);
  }
  return out;
}

/// DecodePlain: center into (-q/2, q/2], then scale by P.
double ReferenceDecode(const BigInt& x, const BigInt& q) {
  const BigInt centered = x > (q >> 1) ? x - q : x;
  return centered.ToDouble() * kPrecision;
}

/// Deltas at 0, +-1 unit, near +-4.6e18 units and in between.
Vec EdgeDeltas(size_t dim, uint64_t seed) {
  Rng rng(seed);
  const double edges[] = {0.0, kPrecision, -kPrecision,
                          4.5999999e18 * kPrecision,
                          -4.5999999e18 * kPrecision};
  Vec delta(dim);
  for (size_t d = 0; d < dim; ++d) {
    delta[d] = d % 6 < 5 ? edges[d % 6] : 6.0 * rng.Uniform() - 3.0;
  }
  return delta;
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

struct FlatCase {
  int prime_bits;  // 256: AggregationPrime(); 96: the first prime past 2^95
  bool pooled;
};

/// The smallest prime above 2^95: a draw masked to 96 bits lands at or
/// above it about half the time, so the rejection retry runs constantly.
BigInt SmallestPrimeAbove2To95() {
  Rng rng(4096);
  BigInt q = (BigInt(1) << 95) + BigInt(1);
  while (!IsProbablePrime(q, rng)) q += BigInt(2);
  return q;
}

class FlatCoreReferenceTest : public ::testing::TestWithParam<FlatCase> {};

TEST_P(FlatCoreReferenceTest, LimbsFrameBytesAndDecodedDoublesMatch) {
  const FlatCase c = GetParam();
  const BigInt q =
      c.prime_bits == 256 ? AggregationPrime() : SmallestPrimeAbove2To95();
  FixedPointCodec codec(q, kPrecision);
  ThreadPool pool(3);
  ThreadPool* maybe_pool = c.pooled ? &pool : nullptr;
  int rejected = 0;
  for (int parties = 2; parties <= 5; ++parties) {
    SecureAggregator agg(q, parties);
    // The production pair keys, so the aggregation prime's case also pins
    // MaskDelta/UnmaskSum.
    const auto keys = MakePairKeys(parties, "agg-sim");
    for (size_t dim : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
      SCOPED_TRACE("parties " + std::to_string(parties) + " dim " +
                   std::to_string(dim));
      const uint64_t tag = 17 + dim;
      std::vector<std::vector<BigInt>> reference;
      std::vector<FieldVector> flat;
      for (int p = 0; p < parties; ++p) {
        const Vec delta = EdgeDeltas(dim, 31 * parties + p);
        reference.push_back(ReferenceMasked(codec, delta, p, parties,
                                            keys[p], tag, &rejected));
        FieldVector v(dim, codec.limbs());
        for (size_t d = 0; d < dim; ++d) {
          ASSERT_TRUE(codec.EncodeLimbs(delta[d], v.element(d)).ok());
        }
        agg.AddMasks(p, keys[p], tag, v, maybe_pool);
        // Limbs: the flat vector holds exactly the reference values.
        EXPECT_EQ(v, FieldVector(reference[p], codec.limbs()));
        EXPECT_EQ(v.ToBigInts(), reference[p]);
        // Frame bytes: FieldVec writes BigVec's bytes.
        net::WireWriter big_bytes, flat_bytes;
        big_bytes.BigVec(reference[p]);
        flat_bytes.FieldVec(v);
        EXPECT_EQ(flat_bytes.buffer(), big_bytes.buffer());
        net::WireReader reader(flat_bytes.buffer());
        FieldVector parsed;
        ASSERT_TRUE(reader.FieldVec(q, &parsed).ok());
        EXPECT_TRUE(reader.AtEnd());
        EXPECT_EQ(parsed, v);
        if (c.prime_bits == 256) {
          auto produced = MaskDelta(delta, p, parties, tag, maybe_pool);
          ASSERT_TRUE(produced.ok()) << produced.status().ToString();
          EXPECT_EQ(produced.value(), v);
          // The BigInt API: MaskSiloDelta, assigned to the message as
          // BigInts.
          EXPECT_EQ(MaskSiloDelta(delta, p, parties, tag, maybe_pool),
                    reference[p]);
          net::MaskedVectorMsg msg;
          msg.phase_tag = MakeMaskTag(MaskPhase::kFlAggregation, tag);
          msg.party_id = static_cast<uint32_t>(p);
          msg.values = reference[p];
          net::WireWriter payload;
          payload.U64(msg.phase_tag);
          payload.U32(msg.party_id);
          payload.BigVec(reference[p]);
          const net::Frame frame = net::ToFrame(msg);
          EXPECT_EQ(frame.payload, payload.buffer());
          auto back = net::FromFrame<net::MaskedVectorMsg>(frame);
          ASSERT_TRUE(back.ok()) << back.status().ToString();
          EXPECT_EQ(back.value().values, v);
        }
        flat.push_back(std::move(v));
      }
      // Decoded doubles: BigInt ModAdd sum from zero, then DecodePlain.
      std::vector<BigInt> total(dim, BigInt(0));
      for (const auto& v : reference) {
        for (size_t d = 0; d < dim; ++d) total[d] = total[d].ModAdd(v[d], q);
      }
      const FieldVector flat_total = agg.Sum(flat);
      EXPECT_EQ(flat_total.ToBigInts(), total);
      Vec decoded(dim);
      codec.DecodePlainLimbs(flat_total.element(0), dim, decoded.data());
      const Vec unmasked = c.prime_bits == 256 ? UnmaskSum(flat) : decoded;
      const Vec unmasked_big =
          c.prime_bits == 256 ? UnmaskMaskedSum(reference) : decoded;
      for (size_t d = 0; d < dim; ++d) {
        const double expect = ReferenceDecode(total[d], q);
        EXPECT_EQ(Bits(codec.DecodePlain(total[d])), Bits(expect));
        EXPECT_EQ(Bits(decoded[d]), Bits(expect)) << "coordinate " << d;
        EXPECT_EQ(Bits(unmasked[d]), Bits(expect)) << "coordinate " << d;
        EXPECT_EQ(Bits(unmasked_big[d]), Bits(expect)) << "coordinate " << d;
      }
    }
  }
  // Only the small prime rejects often enough to exercise the retry
  // (about 40k draws per case).
  if (c.prime_bits < 256) {
    EXPECT_GT(rejected, 10000);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PrimesAndPools, FlatCoreReferenceTest,
    ::testing::Values(FlatCase{256, false}, FlatCase{256, true},
                      FlatCase{96, false}, FlatCase{96, true}),
    [](const ::testing::TestParamInfo<FlatCase>& info) {
      return "Prime" + std::to_string(info.param.prime_bits) +
             (info.param.pooled ? "Pooled" : "Serial");
    });

}  // namespace
}  // namespace uldp
