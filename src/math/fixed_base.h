// Fixed-base modular exponentiation: a per-base precomputed Lim-Lee comb
// over a cached Montgomery context. The exponent's bit matrix (h teeth ×
// a columns, the columns split into v sub-blocks of b columns) is
// precomputed as
//   comb[k][u-1] = Π_{j : bit j of u} base^(2^(j*a + k*b)),
// v * (2^h - 1) entries, so each exponentiation costs b-1 squarings plus
// at most v*b multiplies. A deterministic cost model sizes h and b for the
// promised reuse count. Outputs are bitwise identical to
// Montgomery::MontExp for every (base, exponent).

#ifndef ULDP_MATH_FIXED_BASE_H_
#define ULDP_MATH_FIXED_BASE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "math/bigint.h"
#include "math/montgomery.h"

namespace uldp {

/// Precomputed power table for one base under one Montgomery context. The
/// context must outlive the table. Immutable after construction, so one
/// table is safe to share across pool threads.
class FixedBaseTable {
 public:
  /// Default cap on stored entries: 8192 entries of a 2048-bit modulus
  /// hold 2 MB.
  static constexpr size_t kMaxEntries = 8192;

  /// Builds the table for exponents of at most `max_exp_bits` bits.
  /// `base` must be non-negative with bit length at most the modulus's limb
  /// capacity (any value MontExp accepts). `expected_uses` sizes the
  /// teeth and sub-blocks: small reuse counts get cheap builds, large ones
  /// fast per-use costs, within at most `max_entries` stored entries (a
  /// one-entry table when the cap is below every comb shape).
  FixedBaseTable(const Montgomery& mont, const BigInt& base, int max_exp_bits,
                 size_t expected_uses = 256,
                 size_t max_entries = kMaxEntries);

  FixedBaseTable(FixedBaseTable&&) = default;
  FixedBaseTable& operator=(FixedBaseTable&&) = default;

  /// base^exp mod n, bitwise identical to mont.MontExp(base, exp).
  /// exp must be non-negative with at most max_exp_bits() bits.
  BigInt Exp(const BigInt& exp) const;

  int max_exp_bits() const { return max_bits_; }
  /// Comb teeth count h — the knob the reuse hint steers.
  int window_bits() const { return w_; }
  /// Stored table entries (modulus-sized each) — the memory footprint.
  size_t entries() const;
  const Montgomery& mont() const { return *mont_; }

 private:
  void BuildComb(const BigInt& base);

  const Montgomery* mont_;
  int max_bits_;
  int w_;  // comb teeth h
  // Comb geometry: a_ columns of h teeth, v_used_ sub-blocks of b_ columns.
  int comb_a_ = 0;
  int comb_b_ = 0;
  int comb_v_ = 0;
  // comb_[k][u-1] = Π_{j: bit j of u} base^(2^(j*a + k*b)), Montgomery
  // domain.
  std::vector<std::vector<std::vector<uint64_t>>> comb_;
};

/// The two ways to compute Π_i bases[i]^exps[c][i] for `products`
/// exponent vectors c over one batch of bases.
enum class FoldPath {
  kStraus,  // one MultiExp over the batch: one squaring chain per product
  kTables,  // one FixedBaseTable per base, built once, used per product
};

/// Deterministic cost model, in modular multiplies, picking the cheaper
/// FoldPath for `bases` bases, `products` exponent vectors and exponents
/// of `exp_bits` bits. Per-base tables cost
///   bases · (build + products · per-use)
/// for the comb FixedBaseTable would build for `products` uses; Straus
/// costs
///   bases · 2^(w-1) + products · (σ · exp_bits + bases · exp_bits/(w+1))
/// with w = MultiExp::WindowBits(exp_bits, products) and σ a chain
/// squaring's cost in multiplies, calibrated against measured folds.
/// Ties go to Straus, which holds less memory.
FoldPath ChooseFoldPath(size_t bases, size_t products, int exp_bits);

}  // namespace uldp

#endif  // ULDP_MATH_FIXED_BASE_H_
