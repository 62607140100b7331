#include "fl/local_trainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "crypto/fixed_point.h"
#include "crypto/secure_agg.h"

namespace uldp {

void TrainLocalSgd(Model& model, const std::vector<Example>& examples,
                   int epochs, int batch_size, double learning_rate,
                   Rng& rng) {
  ULDP_CHECK_GE(epochs, 1);
  ULDP_CHECK_GE(batch_size, 1);
  if (examples.empty()) return;
  std::vector<size_t> order(examples.size());
  std::iota(order.begin(), order.end(), 0);
  Vec params = model.GetParams();
  Vec grad(params.size(), 0.0);
  std::vector<const Example*> batch;
  for (int e = 0; e < epochs; ++e) {
    rng.Shuffle(order);
    for (size_t start = 0; start < order.size();
         start += static_cast<size_t>(batch_size)) {
      size_t end = std::min(order.size(), start + batch_size);
      batch.clear();
      for (size_t i = start; i < end; ++i) batch.push_back(&examples[order[i]]);
      std::fill(grad.begin(), grad.end(), 0.0);
      model.LossAndGrad(batch, &grad);
      Axpy(-learning_rate, grad, params);
      model.SetParams(params);
    }
  }
}

namespace {

// One fixed-point unit of the secure-aggregation encoding.
constexpr double kAggPrecision = 1e-10;

// Pairwise keys for `party`: in production these come from the DH
// exchange; the simulation derives them from the public pair id (masks
// still cancel and the code path is identical).
std::vector<ChaChaRng::Key> PairwiseAggKeys(int party, int num_parties) {
  std::vector<ChaChaRng::Key> keys(std::max(num_parties, 2));
  for (int j = 0; j < num_parties; ++j) {
    if (j == party) continue;
    const int lo = std::min(party, j);
    const int hi = std::max(party, j);
    keys[j] = ChaChaRng::DeriveKey("agg-sim|" + std::to_string(lo) + "," +
                                   std::to_string(hi));
  }
  return keys;
}

}  // namespace

double AsyncNoiseMargin(const FlConfig& config, int num_silos) {
  if (!config.async_rounds) return 1.0;
  const int k =
      config.async_buffer <= 0 ? num_silos : config.async_buffer;
  // Exactly 1.0 at the barrier defaults (K = |S|, max_staleness = 0), so
  // scaling by it keeps the async barrier bitwise identical to sync.
  return (1.0 + config.max_staleness) *
         std::sqrt(static_cast<double>(num_silos) / k);
}

Result<FieldVector> MaskDelta(const Vec& delta, int party, int num_parties,
                              uint64_t round_tag, ThreadPool* pool) {
  const BigInt& prime = AggregationPrime();
  FixedPointCodec codec(prime, kAggPrecision);
  FieldVector masked(delta.size(), codec.limbs());
  for (size_t d = 0; d < delta.size(); ++d) {
    Status encoded = codec.EncodeLimbs(delta[d], masked.element(d));
    if (!encoded.ok()) {
      return Status::InvalidArgument("delta coordinate " + std::to_string(d) +
                                     ": " + encoded.message());
    }
  }
  if (num_parties >= 2) {
    SecureAggregator agg(prime, num_parties);
    agg.AddMasks(party, PairwiseAggKeys(party, num_parties), round_tag,
                 masked, pool);
  }
  return masked;
}

Vec UnmaskSum(const std::vector<FieldVector>& masked) {
  ULDP_CHECK(!masked.empty());
  const BigInt& prime = AggregationPrime();
  SecureAggregator agg(prime, std::max(static_cast<int>(masked.size()), 2));
  FixedPointCodec codec(prime, kAggPrecision);
  const FieldVector total = agg.Sum(masked);
  Vec out(total.size());
  codec.DecodePlainLimbs(total.element(0), total.size(), out.data());
  return out;
}

std::vector<BigInt> MaskSiloDelta(const Vec& delta, int party,
                                  int num_parties, uint64_t round_tag,
                                  ThreadPool* pool) {
  auto masked = MaskDelta(delta, party, num_parties, round_tag, pool);
  ULDP_CHECK_MSG(masked.ok(), masked.status().ToString());
  return masked.value().ToBigInts();
}

Vec UnmaskMaskedSum(const std::vector<std::vector<BigInt>>& masked) {
  return UnmaskSum(std::vector<FieldVector>(masked.begin(), masked.end()));
}

Vec AggregateDeltas(const std::vector<Vec>& silo_deltas, bool secure,
                    uint64_t round_tag, ThreadPool* pool) {
  ULDP_CHECK(!silo_deltas.empty());
  if (!secure) {
    return SumVecs(silo_deltas);
  }
  const int parties = static_cast<int>(silo_deltas.size());
  std::vector<FieldVector> masked;
  masked.reserve(parties);
  for (int s = 0; s < parties; ++s) {
    auto vec = MaskDelta(silo_deltas[s], s, parties, round_tag, pool);
    ULDP_CHECK_MSG(vec.ok(), vec.status().ToString());
    masked.push_back(std::move(vec.value()));
  }
  return UnmaskSum(masked);
}

}  // namespace uldp
