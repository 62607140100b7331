#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "crypto/fixed_point.h"
#include "crypto/secure_agg.h"
#include "fl/local_trainer.h"
#include "math/limbs.h"
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
                   uint64_t tag, size_t dim) {
  FieldVector mask(dim, agg.limbs());
  agg.AddMasks(p, keys, tag, mask);
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

TEST(SecureAggTest, MasksCancelForRandomShapes) {
  // Property test: for random shapes, the per-party masks must sum to
  // zero across all parties. (fl_common_test checks the secure reduce's
  // thread-count independence through AggregateDeltas.)
  Rng shape_rng(7341);
  for (int trial = 0; trial < 6; ++trial) {
    const int parties = 2 + static_cast<int>(shape_rng.UniformInt(9));
    const size_t dim = 1 + shape_rng.UniformInt(40);
    const uint64_t tag = shape_rng.NextUint64();
    Rng rng(1000 + trial);
    BigInt q = GeneratePrime(96, rng);
    SecureAggregator agg(q, parties);
    auto keys = MakePairKeys(parties, "pool" + std::to_string(trial));

    std::vector<FieldVector> masks;
    for (int p = 0; p < parties; ++p) {
      masks.push_back(MaskOf(agg, keys[p], p, tag, dim));
    }
    EXPECT_EQ(agg.Sum(masks), FieldVector(dim, agg.limbs()))
        << "masks leak at trial " << trial;
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
// BigInt loop, encode and decode inlined below, BigInt::ModAdd/ModSub and
// FixedPointCodec::Encode/DecodePlain. Limbs and decoded doubles must be
// identical, and the frame codec must carry the limbs unchanged.

constexpr double kPrecision = 1e-10;

/// The 256-bit P-256 prime: the aggregation field before 2^127 - 1, kept
/// as the wide reference the narrow field must decode identically to.
BigInt P256() {
  auto p = BigInt::FromHex(
      "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
  EXPECT_TRUE(p.ok());
  return p.value();
}

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


/// The smallest prime above 2^95: a draw masked to 96 bits lands at or
/// above it about half the time, so the rejection retry runs constantly.
BigInt SmallestPrimeAbove2To95() {
  Rng rng(4096);
  BigInt q = (BigInt(1) << 95) + BigInt(1);
  while (!IsProbablePrime(q, rng)) q += BigInt(2);
  return q;
}

// The parameter is the prime's bit length. 256: P-256; 127:
// AggregationPrime(); 96: the first prime past 2^95.
class FlatCoreReferenceTest : public ::testing::TestWithParam<int> {};

TEST_P(FlatCoreReferenceTest, LimbsFrameBytesAndDecodedDoublesMatch) {
  const int prime_bits = GetParam();
  const bool production = prime_bits == 127;
  const BigInt q = prime_bits == 256 ? P256()
                   : production      ? AggregationPrime()
                                     : SmallestPrimeAbove2To95();
  FixedPointCodec codec(q, kPrecision);
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
        agg.AddMasks(p, keys[p], tag, v);
        // Limbs: the flat vector holds exactly the reference values.
        EXPECT_EQ(v, FieldVector(reference[p], codec.limbs()));
        EXPECT_EQ(v.ToBigInts(), reference[p]);
        // Frame bytes: a count, then 8 bytes per limb, read back exactly.
        net::WireWriter flat_bytes;
        flat_bytes.FieldVec(v);
        EXPECT_EQ(flat_bytes.buffer().size(), 4 + 8 * codec.limbs() * dim);
        net::WireReader reader(flat_bytes.buffer());
        FieldVector parsed;
        ASSERT_TRUE(reader.FieldVec(q, &parsed).ok());
        EXPECT_TRUE(reader.AtEnd());
        EXPECT_EQ(parsed, v);
        if (production) {
          auto produced = MaskDelta(delta, p, parties, tag);
          ASSERT_TRUE(produced.ok()) << produced.status().ToString();
          EXPECT_EQ(produced.value(), v);
          // The BigInt API: MaskSiloDelta, assigned to the message as
          // BigInts.
          EXPECT_EQ(MaskSiloDelta(delta, p, parties, tag), reference[p]);
          net::MaskedVectorMsg msg;
          msg.phase_tag = MakeMaskTag(MaskPhase::kFlAggregation, tag);
          msg.party_id = static_cast<uint32_t>(p);
          msg.values = reference[p];
          net::WireWriter payload;
          payload.U64(msg.phase_tag);
          payload.U32(msg.party_id);
          payload.FieldVec(v);
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
      const Vec unmasked = production ? UnmaskSum(flat) : decoded;
      const Vec unmasked_big =
          production ? UnmaskMaskedSum(reference) : decoded;
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
  if (prime_bits == 96) {
    EXPECT_GT(rejected, 10000);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Primes, FlatCoreReferenceTest, ::testing::Values(256, 127, 96),
    [](const ::testing::TestParamInfo<int>& info) {
      return "Prime" + std::to_string(info.param);
    });

// ---------------------------------------------------------------------------
// Cross-width reference: the aggregation field shrank from P-256 to
// 2^127 - 1. The unmasked total is the same exact integer below n/2 in
// either field, so the same deltas must decode to bitwise-identical
// doubles, including sums whose magnitude passes 2^64.

/// N(0, 1) coordinates, every 97th one up to +-4e8, and +-4.5999999e18
/// units (just inside the encode range) at coordinates 1 and 2, so five
/// parties' sums there pass 2^64 in magnitude.
Vec CrossWidthDeltas(size_t dim, uint64_t seed) {
  Rng rng(seed);
  Vec delta(dim);
  for (size_t d = 0; d < dim; ++d) {
    delta[d] = d % 97 == 0 ? rng.Uniform(-4e8, 4e8) : rng.Gaussian();
  }
  delta[1] = 4.5999999e18 * kPrecision;
  delta[2] = -4.5999999e18 * kPrecision;
  return delta;
}

TEST(SecureAggCrossWidthTest, P256AndAggregationPrimeDecodeIdentically) {
  const BigInt wide_prime = P256();
  FixedPointCodec wide_codec(wide_prime, kPrecision);
  ASSERT_EQ(wide_codec.limbs(), 4u);
  ASSERT_EQ(AggregationPrime().limbs().size(), kAggregationLimbs);
  ASSERT_EQ(kAggregationLimbs, 2u);
  const size_t dim = 2000;
  for (int parties = 2; parties <= 5; ++parties) {
    SCOPED_TRACE("parties " + std::to_string(parties));
    const uint64_t tag = 40 + parties;
    SecureAggregator wide(wide_prime, parties);
    const auto keys = MakePairKeys(parties, "agg-sim");
    std::vector<Vec> deltas;
    std::vector<FieldVector> wide_masked, narrow_masked;
    for (int p = 0; p < parties; ++p) {
      deltas.push_back(CrossWidthDeltas(dim, 977 * parties + p));
      FieldVector v(dim, wide_codec.limbs());
      for (size_t d = 0; d < dim; ++d) {
        ASSERT_TRUE(wide_codec.EncodeLimbs(deltas[p][d], v.element(d)).ok());
      }
      wide.AddMasks(p, keys[p], tag, v);
      wide_masked.push_back(std::move(v));
      auto narrow = MaskDelta(deltas[p], p, parties, tag);
      ASSERT_TRUE(narrow.ok()) << narrow.status().ToString();
      ASSERT_EQ(narrow.value().limbs(), kAggregationLimbs);
      narrow_masked.push_back(std::move(narrow.value()));
    }
    const FieldVector wide_total = wide.Sum(wide_masked);
    Vec wide_decoded(dim);
    wide_codec.DecodePlainLimbs(wide_total.element(0), dim,
                                wide_decoded.data());
    const Vec narrow_decoded = UnmaskSum(narrow_masked);
    const Vec reduced = AggregateDeltas(deltas, /*secure=*/true, tag);
    for (size_t d = 0; d < dim; ++d) {
      // The exact total in units, decoded the way DecodePlainLimbs does.
      __int128 units = 0;
      for (const Vec& delta : deltas) {
        units += std::llround(delta[d] / kPrecision);
      }
      const unsigned __int128 mag = static_cast<unsigned __int128>(
          units < 0 ? -units : units);
      const uint64_t mag_limbs[2] = {static_cast<uint64_t>(mag),
                                     static_cast<uint64_t>(mag >> 64)};
      const double magnitude = limbs::ToDouble(mag_limbs, 2) * kPrecision;
      const double expect = units < 0 ? -magnitude : magnitude;
      ASSERT_EQ(Bits(wide_decoded[d]), Bits(expect)) << "coordinate " << d;
      ASSERT_EQ(Bits(narrow_decoded[d]), Bits(expect)) << "coordinate " << d;
      ASSERT_EQ(Bits(reduced[d]), Bits(expect)) << "coordinate " << d;
    }
    if (parties == 5) {
      // Five parties at +-4.5999999e18 units each: both totals pass 2^64
      // units, so they need a second limb in either field.
      const double two_to_64 = 18446744073709551616.0 * kPrecision;
      EXPECT_GT(narrow_decoded[1], two_to_64);
      EXPECT_LT(narrow_decoded[2], -two_to_64);
    }
  }
}

// ---------------------------------------------------------------------------
// The branch-free limb ModAdd/ModSub under AddMasks and Sum, against
// BigInt::ModAdd/ModSub, at the widths production runs them: two limbs
// as a compile-time constant (limbs::WithWidth), any other width as a
// runtime loop.

/// `x` as exactly `k` limbs.
std::vector<uint64_t> LimbsOf(const BigInt& x, size_t k) {
  std::vector<uint64_t> out = x.limbs();
  EXPECT_LE(out.size(), k);
  out.resize(k, 0);
  return out;
}

TEST(LimbModArithmeticTest, ModAddAndModSubMatchBigIntAtEveryWidth) {
  const BigInt one(1);
  const struct {
    BigInt m;
    size_t k;
  } cases[] = {
      // 2^64 - 59: a + b carries out of the only limb.
      {(one << 64) - BigInt(59), 1},
      {AggregationPrime(), 2},
      // a + b carries out of the top limb.
      {(one << 128) - BigInt(159), 2},
      {P256(), 4},
      // The two-limb moduli zero-padded: the runtime loop on their values.
      {AggregationPrime(), 4},
      {(one << 128) - BigInt(159), 4},
  };
  Rng rng(2027);
  for (const auto& c : cases) {
    SCOPED_TRACE(c.m.ToHex() + " at " + std::to_string(c.k) + " limbs");
    const BigInt& m = c.m;
    const BigInt top = m - one;
    const BigInt half = m >> 1;
    std::vector<std::pair<BigInt, BigInt>> operands = {
        {BigInt(0), BigInt(0)},
        {BigInt(0), top},
        {top, BigInt(0)},
        {one, top},             // a + b = m
        {top, one},             // a + b = m
        {half, m - half},       // a + b = m
        {m - half, half},       // a + b = m
        {top, top},             // a + b = 2m - 2, and a = b
        {half, half},           // a = b
        {top, top - one},
    };
    for (int i = 0; i < 64; ++i) {
      const BigInt a = BigInt::RandomBelow(m, rng);
      operands.push_back({a, BigInt::RandomBelow(m, rng)});
      operands.push_back({a, a});
    }
    const std::vector<uint64_t> mod = LimbsOf(m, c.k);
    for (const auto& [a, b] : operands) {
      std::vector<uint64_t> sum = LimbsOf(a, c.k);
      std::vector<uint64_t> diff = LimbsOf(a, c.k);
      const std::vector<uint64_t> rhs = LimbsOf(b, c.k);
      limbs::WithWidth(c.k, [&](auto k) {
        limbs::ModAdd(sum.data(), rhs.data(), mod.data(), k);
        limbs::ModSub(diff.data(), rhs.data(), mod.data(), k);
      });
      EXPECT_EQ(sum, LimbsOf(a.ModAdd(b, m), c.k))
          << a.ToHex() << " + " << b.ToHex();
      EXPECT_EQ(diff, LimbsOf(a.ModSub(b, m), c.k))
          << a.ToHex() << " - " << b.ToHex();
    }
  }
}

}  // namespace
}  // namespace uldp
