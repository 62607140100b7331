#include "crypto/secure_agg.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "math/limbs.h"

namespace uldp {

namespace {

// Elements per chunk of a mask draw: 4 KiB of two-limb draws.
constexpr size_t kMaskChunk = 256;

// a[i] = a[i] + b[i] mod n (a[i] - b[i] when `subtract`) over `count`
// k-limb elements in [0, n): the one add loop under AddMasks and Sum.
void AddElements(uint64_t* a, const uint64_t* b, size_t count,
                 const uint64_t* n, size_t k, bool subtract) {
  limbs::WithWidth(k, [&](auto k) {
    if (subtract) {
      for (size_t i = 0; i < count * k; i += k) {
        limbs::ModSub(a + i, b + i, n, k);
      }
    } else {
      for (size_t i = 0; i < count * k; i += k) {
        limbs::ModAdd(a + i, b + i, n, k);
      }
    }
  });
}

}  // namespace

const BigInt& AggregationPrime() {
  static const BigInt prime = [] {
    BigInt p = (BigInt(1) << 127) - BigInt(1);
    ULDP_CHECK_EQ(p.limbs().size(), kAggregationLimbs);
    // FixedPointCodec admits |x/P| < 2^63 per party, so a sum over any
    // party count an int can hold stays below INT_MAX * 2^63 in
    // magnitude. With n/2 above that, no such sum of encodable values
    // wraps, centering recovers it exactly, and no per-run check is needed.
    ULDP_CHECK((p >> 1) > (BigInt(std::numeric_limits<int>::max()) << 63));
    return p;
  }();
  return prime;
}

FieldVector::FieldVector(size_t dim, size_t limbs)
    : limbs_(limbs), data_(dim * limbs, 0) {
  ULDP_CHECK_GE(limbs, size_t{1});
}

FieldVector::FieldVector(const std::vector<BigInt>& values, size_t limbs)
    : FieldVector(values.size(), limbs) {
  for (size_t i = 0; i < values.size(); ++i) {
    const std::vector<uint64_t>& v = values[i].limbs();
    ULDP_CHECK(!values[i].IsNegative() && v.size() <= limbs);
    std::copy(v.begin(), v.end(), element(i));
  }
}

std::vector<BigInt> FieldVector::ToBigInts() const {
  std::vector<BigInt> out;
  out.reserve(size());
  for (size_t i = 0; i < size(); ++i) {
    out.push_back(BigInt::FromLimbs(
        std::vector<uint64_t>(element(i), element(i) + limbs_)));
  }
  return out;
}

SecureAggregator::SecureAggregator(BigInt modulus, int num_parties)
    : modulus_(std::move(modulus)), num_parties_(num_parties) {
  ULDP_CHECK_GE(num_parties_, 2);
  ULDP_CHECK(modulus_ > BigInt(1));
}

void SecureAggregator::AddMasks(
    int me, const std::vector<ChaChaRng::Key>& pairwise_keys, uint64_t tag,
    FieldVector& values) const {
  ULDP_CHECK_GE(me, 0);
  ULDP_CHECK_LT(me, num_parties_);
  ULDP_CHECK_EQ(static_cast<int>(pairwise_keys.size()), num_parties_);
  const size_t k = limbs();
  ULDP_CHECK_EQ(values.limbs(), k);
  const uint64_t* n = modulus_.limbs().data();
  const size_t dim = values.size();
  // One peer's stream at a time, drawn a chunk at a time into a buffer
  // that stays in L1 and folded in before the next chunk is drawn. Both
  // parties of a pair seed the identical stream; the smaller index adds
  // the mask, the larger subtracts, so the pair cancels in the sum.
  std::vector<uint64_t> chunk(std::min(dim, kMaskChunk) * k);
  for (int other = 0; other < num_parties_; ++other) {
    if (other == me) continue;
    ChaChaRng stream(pairwise_keys[other], ChaChaRng::MakeNonce(tag));
    for (size_t d = 0; d < dim; d += kMaskChunk) {
      const size_t count = std::min(kMaskChunk, dim - d);
      stream.UniformBelow(n, k, chunk.data(), count);
      AddElements(values.element(d), chunk.data(), count, n, k, other < me);
    }
  }
}

FieldVector SecureAggregator::Sum(
    const std::vector<FieldVector>& vectors) const {
  ULDP_CHECK(!vectors.empty());
  const size_t k = limbs();
  const uint64_t* n = modulus_.limbs().data();
  FieldVector out = vectors[0];
  ULDP_CHECK_EQ(out.limbs(), k);
  for (size_t v = 1; v < vectors.size(); ++v) {
    ULDP_CHECK_EQ(vectors[v].limbs(), k);
    ULDP_CHECK_EQ(vectors[v].size(), out.size());
    AddElements(out.element(0), vectors[v].element(0), out.size(), n, k,
                /*subtract=*/false);
  }
  return out;
}

}  // namespace uldp
