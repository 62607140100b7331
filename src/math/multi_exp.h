// Simultaneous multi-exponentiation: Π_i bases[i]^exps[i] mod n over a
// cached Montgomery context, via Straus's interleaved sliding windows
// (Straus 1964, "Addition chains of vectors").
//
// The per-ciphertext fold the silo weighting phase would otherwise run —
//   for each user u: acc = acc * MontExp(enc_weight_u, scalar_u) mod n²
// — pays ~|exp| squarings per user. Straus runs one squaring chain for
// the whole batch: every base keeps a table of its odd powers, every
// exponent is cut into MontExp's greedy sliding windows, and the chain
// walks from the top bit down, squaring once per bit and multiplying in
// each base's odd-power entry at the bit where one of its windows ends. A
// Product() costs ~bits squarings plus ~batch·bits/(w+1) multiplies
// instead of ~batch·bits squarings. The odd-power tables (2^(w-1)
// entries per base) are built once, in the constructor, so every
// Product() call — one per packed coordinate in the weighting fold —
// reuses them.
//
// Because modular arithmetic is exact and results are canonical in [0, n),
// Product() is bitwise identical to the sequential MontExp fold for every
// input — the protocol's determinism contract holds under the fast path.

#ifndef ULDP_MATH_MULTI_EXP_H_
#define ULDP_MATH_MULTI_EXP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "math/bigint.h"
#include "math/montgomery.h"

namespace uldp {

/// Multi-exponentiation over a fixed batch of bases. The bases' odd-power
/// tables are built in the Montgomery domain at construction, so one
/// instance amortizes across many Product() calls. The context must
/// outlive the instance. Immutable after construction — safe to share
/// across threads.
class MultiExp {
 public:
  /// Widest window WindowBits() returns: 2^(kMaxWindow-1) table entries
  /// per base bound the tables' memory.
  static constexpr int kMaxWindow = 8;

  /// `bases` must be non-negative and reduced into [0, n). `exp_bits` and
  /// `products` are sizing hints — the expected exponent length (<= 0:
  /// the modulus length) and the number of Product() calls the instance
  /// will serve — and pick the window width only: Product() accepts
  /// exponents of any length.
  MultiExp(const Montgomery& mont, const std::vector<BigInt>& bases,
           int exp_bits = 0, size_t products = 1);

  MultiExp(MultiExp&&) = default;
  MultiExp& operator=(MultiExp&&) = default;

  /// Π_i bases[i]^exps[i] mod n, bitwise identical to folding
  /// mont.MontExp(bases[i], exps[i]) with ModMul. Requires
  /// exps.size() == size() and every exponent >= 0. An empty batch (or
  /// all-zero exponents) yields 1 mod n.
  BigInt Product(const std::vector<BigInt>& exps) const;

  /// The window width w in [1, kMaxWindow] minimizing the modeled
  /// multiplies per base: a 2^(w-1)-entry table build plus `products`
  /// chains of ~exp_bits/(w+1) window multiplies. Deterministic.
  static int WindowBits(int exp_bits, size_t products);

  size_t size() const { return odd_.size(); }
  int window_bits() const { return w_; }
  const Montgomery& mont() const { return *mont_; }

 private:
  const Montgomery* mont_;
  int w_;
  // odd_[i][j] = bases[i]^(2j+1) in the Montgomery domain, k-limb little
  // endian.
  std::vector<std::vector<std::vector<uint64_t>>> odd_;
};

}  // namespace uldp

#endif  // ULDP_MATH_MULTI_EXP_H_
