// Fixed-base modular exponentiation: per-base precomputed tables over a
// cached Montgomery context, with two layouts behind one API.
//
//  - Radix (Brickell-Gordon-McCurley-Wilson): tables of
//      powers[i][j-1] = base^(j * 2^(w*i))   (j in [1, 2^w))
//    turn each exponentiation into at most ceil(bits/w) Montgomery
//    multiplies with no squarings, at the price of levels * (2^w - 1)
//    stored entries.
//  - Lim-Lee comb: the exponent's bit matrix (h teeth × a columns, the
//    columns split into v sub-blocks of b columns) is precomputed as
//      comb[k][u-1] = Π_{j : bit j of u} base^(2^(j*a + k*b)),
//    v * (2^h - 1) entries — typically several times smaller than the
//    radix table at the same per-use cost of b-1 squarings plus at most
//    v*b multiplies.
//
// A deterministic cost model picks the cheaper layout for the promised
// reuse count (kAuto); callers can force either. Outputs are bitwise
// identical to Montgomery::MontExp for every (base, exponent) under every
// strategy.

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
  enum class Strategy {
    kAuto,   // cost model picks radix vs comb per (bits, expected_uses)
    kRadix,  // force the BGMW radix-2^w layout
    kComb,   // force the Lim-Lee comb layout
  };

  /// Builds the table for exponents of at most `max_exp_bits` bits.
  /// `base` must be non-negative with bit length at most the modulus's limb
  /// capacity (any value MontExp accepts). `expected_uses` sizes the
  /// window/teeth: small reuse counts get cheap builds, large ones fast
  /// per-use costs (capped so a table never exceeds a few MB).
  FixedBaseTable(const Montgomery& mont, const BigInt& base, int max_exp_bits,
                 size_t expected_uses = 256,
                 Strategy strategy = Strategy::kAuto);

  FixedBaseTable(FixedBaseTable&&) = default;
  FixedBaseTable& operator=(FixedBaseTable&&) = default;

  /// base^exp mod n, bitwise identical to mont.MontExp(base, exp).
  /// exp must be non-negative with at most max_exp_bits() bits.
  BigInt Exp(const BigInt& exp) const;

  int max_exp_bits() const { return max_bits_; }
  /// Radix window width w, or comb teeth count h — the knob the reuse
  /// hint steers in either layout.
  int window_bits() const { return w_; }
  /// The layout the cost model resolved to (never kAuto).
  Strategy kind() const { return kind_; }
  /// Stored table entries (modulus-sized each) — the memory footprint.
  size_t entries() const;
  const Montgomery& mont() const { return *mont_; }

 private:
  void BuildRadix(const BigInt& base);
  void BuildComb(const BigInt& base);
  BigInt ExpRadix(const BigInt& exp, int bits) const;
  BigInt ExpComb(const BigInt& exp, int bits) const;

  const Montgomery* mont_;
  int max_bits_;
  Strategy kind_;
  int w_;  // radix window width, or comb teeth h
  // Radix: powers_[i][j-1] = base^(j * 2^(w*i)) in the Montgomery domain;
  // the top level is trimmed to the digits its remaining bits can produce.
  std::vector<std::vector<std::vector<uint64_t>>> powers_;
  // Comb geometry: a_ columns of h teeth, v_used_ sub-blocks of b_ columns.
  int comb_a_ = 0;
  int comb_b_ = 0;
  int comb_v_ = 0;
  // comb_[k][u-1] = Π_{j: bit j of u} base^(2^(j*a + k*b)), Montgomery
  // domain.
  std::vector<std::vector<std::vector<uint64_t>>> comb_;
};

/// Free-function spelling of table.Exp(exponent).
BigInt FixedBaseExp(const FixedBaseTable& table, const BigInt& exponent);

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
/// for the plan FixedBaseTable's kAuto picker resolves to; Straus costs
///   bases · 2^(w-1) + products · (σ · exp_bits + bases · exp_bits/(w+1))
/// with w = MultiExp::WindowBits(exp_bits, products) and σ a chain
/// squaring's cost in multiplies, calibrated against measured folds.
/// Ties go to Straus, which holds less memory.
FoldPath ChooseFoldPath(size_t bases, size_t products, int exp_bits);

}  // namespace uldp

#endif  // ULDP_MATH_FIXED_BASE_H_
