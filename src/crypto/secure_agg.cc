#include "crypto/secure_agg.h"

#include <algorithm>

#include "common/check.h"
#include "common/parallel.h"
#include "math/limbs.h"

namespace uldp {

const BigInt& AggregationPrime() {
  static const BigInt prime = [] {
    auto p = BigInt::FromHex(
        "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
    ULDP_CHECK(p.ok());
    ULDP_CHECK_EQ(p.value().limbs().size(), kAggregationLimbs);
    return std::move(p.value());
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
    FieldVector& values, ThreadPool* pool) const {
  ULDP_CHECK_GE(me, 0);
  ULDP_CHECK_LT(me, num_parties_);
  ULDP_CHECK_EQ(static_cast<int>(pairwise_keys.size()), num_parties_);
  const size_t k = limbs();
  ULDP_CHECK_EQ(values.limbs(), k);
  const uint64_t* n = modulus_.limbs().data();
  const size_t dim = values.size();
  // Both parties of a pair seed the identical stream; the smaller index
  // adds the mask, the larger subtracts, so the pair cancels in the sum.
  auto apply = [&](int other, size_t d, const uint64_t* mask) {
    if (me < other) {
      limbs::ModAdd(values.element(d), mask, n, k);
    } else {
      limbs::ModSub(values.element(d), mask, n, k);
    }
  };
  if (pool != nullptr) {
    // Each peer's stream is one sequential ChaCha evaluation, so generation
    // parallelizes across peers; the combine afterwards walks peers in
    // index order.
    std::vector<std::vector<uint64_t>> streams(num_parties_);
    pool->ParallelFor(static_cast<size_t>(num_parties_), [&](size_t other) {
      if (static_cast<int>(other) == me) return;
      ChaChaRng stream(pairwise_keys[other], ChaChaRng::MakeNonce(tag));
      std::vector<uint64_t>& masks = streams[other];
      masks.resize(dim * k);
      for (size_t d = 0; d < dim; ++d) {
        stream.UniformBelow(n, k, masks.data() + d * k);
      }
    });
    for (int other = 0; other < num_parties_; ++other) {
      if (other == me) continue;
      for (size_t d = 0; d < dim; ++d) {
        apply(other, d, streams[other].data() + d * k);
      }
    }
    return;
  }
  std::vector<uint64_t> mask(k);
  for (int other = 0; other < num_parties_; ++other) {
    if (other == me) continue;
    ChaChaRng stream(pairwise_keys[other], ChaChaRng::MakeNonce(tag));
    for (size_t d = 0; d < dim; ++d) {
      stream.UniformBelow(n, k, mask.data());
      apply(other, d, mask.data());
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
    for (size_t d = 0; d < out.size(); ++d) {
      limbs::ModAdd(out.element(d), vectors[v].element(d), n, k);
    }
  }
  return out;
}

}  // namespace uldp
