// Deterministic random-number utilities used across the simulator.
//
// All stochastic components in the library take an explicit `Rng&` (or a
// seed) so that experiments are exactly reproducible. The statistical
// samplers (Gaussian, Poisson trial, Zipf) live here so every module draws
// from one audited implementation.

#ifndef ULDP_COMMON_RNG_H_
#define ULDP_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

namespace uldp {

/// Reserved stream ids for `Rng::Fork`'s third argument. User-indexed
/// streams use the user id directly; whole-silo streams use 0; the values
/// below are far outside any valid user id so the streams never collide
/// within one generator.
constexpr uint64_t kRngStreamNoise = ~0ull;         // per-silo noise share
constexpr uint64_t kRngStreamSampling = ~0ull - 1;  // server user sampling
constexpr uint64_t kRngStreamServer = ~0ull - 2;    // central server noise
constexpr uint64_t kRngStreamEncrypt = ~0ull - 3;   // per-user encryption
constexpr uint64_t kRngStreamKeygen = ~0ull - 4;    // Paillier prime search
// OT-mode private sub-sampling (§4.1). The per-slot streams pack
// (user, slot) into Fork's second counter, so one stream id serves every
// slot of every user without colliding with the per-user streams above.
constexpr uint64_t kRngStreamOtShuffle = ~0ull - 5;   // per-user slot shuffle
constexpr uint64_t kRngStreamOtFlow = ~0ull - 6;      // per-user OT messages
constexpr uint64_t kRngStreamOtSlotEnc = ~0ull - 7;   // per-(user, slot) enc
constexpr uint64_t kRngStreamOtSlotElem = ~0ull - 8;  // per-(user, slot) C_i
// Distributed Protocol 1 (src/net/): every per-party value is derived from
// its own Fork substream of the protocol seed, never from a shared
// sequentially-consumed generator, so a remote endpoint reconstructs
// exactly the value the in-process simulation would have drawn.
constexpr uint64_t kRngStreamOtSender = ~0ull - 9;    // per-user OT sender r
constexpr uint64_t kRngStreamOtReceiver = ~0ull - 10;  // per-user OT recv k
constexpr uint64_t kRngStreamDhKey = ~0ull - 11;       // per-silo DH key pair
constexpr uint64_t kRngStreamSharedSeed = ~0ull - 12;  // silo 0's seed R
constexpr uint64_t kRngStreamOtGroup = ~0ull - 13;     // OT safe-prime group
constexpr uint64_t kRngStreamRandomizerBase = ~0ull - 14;  // key holder's x
constexpr uint64_t kRngStreamSessionEncrypt = ~0ull - 15;  // per-user, q = 1

/// Deterministic pseudo-random generator (mt19937_64 core) with the
/// distribution helpers the Uldp-FL algorithms need.
class Rng {
 public:
  explicit Rng(uint64_t seed) : seed_(seed), engine_(seed) {}

  /// Counter-based substream derivation: returns an independent generator
  /// whose seed is a pure function of this generator's *constructor seed*
  /// and the (a, b, c) counters — typically (round, silo, user). Forking
  /// does not consume or depend on draws from this generator, so a run
  /// that schedules work items across N threads produces bitwise-identical
  /// streams to a serial run.
  Rng Fork(uint64_t a, uint64_t b = 0, uint64_t c = 0) const;

  /// Raw 64 random bits.
  uint64_t NextUint64() { return engine_(); }

  /// Uniform double in [0, 1).
  double Uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n) {
    return std::uniform_int_distribution<uint64_t>(0, n - 1)(engine_);
  }

  /// Standard normal sample.
  double Gaussian() { return normal_(engine_); }

  /// Normal sample with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) {
    return mean + stddev * normal_(engine_);
  }

  /// Bernoulli trial: true with probability p (the "Poisson sampling"
  /// primitive used for record- and user-level sub-sampling).
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Samples an index in [0, n) from a (not necessarily normalized)
  /// non-negative weight vector.
  size_t Categorical(const std::vector<double>& weights);

  /// Samples from a Zipf distribution over ranks {1, ..., n} with exponent
  /// alpha: P(rank = r) ∝ r^{-alpha}. Returns a value in [1, n].
  /// Matches the record-allocation scheme of the paper (§5.1.1).
  uint64_t Zipf(uint64_t n, double alpha);

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = UniformInt(i);
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Underlying engine, for std distributions not wrapped here.
  std::mt19937_64& engine() { return engine_; }

 private:
  uint64_t seed_;
  std::mt19937_64 engine_;
  std::normal_distribution<double> normal_{0.0, 1.0};
};

/// Adds i.i.d. N(0, stddev^2) noise to every coordinate of `v`.
void AddGaussianNoise(std::vector<double>& v, double stddev, Rng& rng);

}  // namespace uldp

#endif  // ULDP_COMMON_RNG_H_
