#include "math/fixed_base.h"

#include <algorithm>

#include "common/check.h"
#include "math/multi_exp.h"

namespace uldp {

namespace {

// A Montgomery squaring through the dedicated path costs roughly this
// fraction of a generic multiply; the comb cost model below weighs its
// squarings with it, and ChooseFoldPath uses it as the Straus chain's σ.
// Fitted to single-threaded tables-vs-Straus fold timings at 1024-, 2048-
// and 3072-bit keys (1 to 64 users × 1 to 64 coordinates), σ came out at
// this value too.
constexpr double kSqrWeight = 0.67;

struct Plan {
  int h = 1;  // comb teeth
  int b = 0;  // comb columns per sub-block
  double cost = -1.0;
};

// Comb cost with teeth h and sub-block width b (a = ceil(bits/h) columns,
// v = ceil(a/b) sub-blocks):
//   build    = chain squarings + v * (2^h - 1 - h) multiplies
//   per use  = (b - 1) squarings + a * (1 - 2^-h) expected multiplies
// v is capped at 4: beyond that each doubling trades a large table-size
// increase for a shrinking per-use saving. Shapes storing more than
// max_entries entries are skipped, except the one-entry h = 1, v = 1 comb.
Plan PickPlan(int exp_bits, size_t expected_uses, size_t max_entries) {
  Plan best;
  const int max_h = std::min(8, std::max(1, exp_bits));
  for (int h = 1; h <= max_h; ++h) {
    const int a = (exp_bits + h - 1) / h;
    for (int v = 1; v <= 4; v *= 2) {
      const int b = (a + v - 1) / v;
      const int v_used = (a + b - 1) / b;
      const size_t entries = static_cast<size_t>(v_used) *
                             ((static_cast<size_t>(1) << h) - 1);
      if (entries > max_entries && !(h == 1 && v == 1)) continue;
      const double chain =
          static_cast<double>((h - 1) * a + (v_used - 1) * b);
      const double build =
          kSqrWeight * chain +
          static_cast<double>(v_used) *
              (static_cast<double>(1ull << h) - 1.0 - h);
      const double per_use =
          kSqrWeight * (b - 1) +
          static_cast<double>(a) *
              (1.0 - 1.0 / static_cast<double>(1ull << h));
      const double cost = build + static_cast<double>(expected_uses) * per_use;
      if (best.cost < 0.0 || cost < best.cost) {
        best.h = h;
        best.b = b;
        best.cost = cost;
      }
      if (b == 1) break;  // narrower sub-blocks are impossible
    }
  }
  return best;
}

}  // namespace

FixedBaseTable::FixedBaseTable(const Montgomery& mont, const BigInt& base,
                               int max_exp_bits, size_t expected_uses,
                               size_t max_entries)
    : mont_(&mont), max_bits_(max_exp_bits) {
  ULDP_CHECK_GE(max_bits_, 1);
  const Plan plan = PickPlan(max_bits_, expected_uses, max_entries);
  w_ = plan.h;
  comb_b_ = plan.b;
  BuildComb(base);
}

void FixedBaseTable::BuildComb(const BigInt& base) {
  const int h = w_;
  comb_a_ = (max_bits_ + h - 1) / h;
  comb_v_ = (comb_a_ + comb_b_ - 1) / comb_b_;
  // Tooth/sub-block anchors base^(2^(j*a + k*b)) fall on one increasing
  // squaring chain from the base (for fixed j the k-targets stay below
  // (j+1)*a because (v-1)*b < a), so one pass captures them all.
  std::vector<std::vector<std::vector<uint64_t>>> anchor(
      h, std::vector<std::vector<uint64_t>>(comb_v_));
  std::vector<uint64_t> cur = mont_->ToMont(base);
  int pos = 0;
  for (int j = 0; j < h; ++j) {
    for (int k = 0; k < comb_v_; ++k) {
      const int target = j * comb_a_ + k * comb_b_;
      while (pos < target) {
        cur = mont_->MontSqrLimbs(cur);
        ++pos;
      }
      anchor[j][k] = cur;
    }
  }
  // comb_[k][u-1] for u in [1, 2^h): powers of two copy their anchor, every
  // other u is one multiply of its lowest set bit against the rest.
  const size_t table = (static_cast<size_t>(1) << h) - 1;
  comb_.assign(comb_v_, std::vector<std::vector<uint64_t>>(table));
  for (int k = 0; k < comb_v_; ++k) {
    for (size_t u = 1; u <= table; ++u) {
      const size_t low = u & (~u + 1);  // lowest set bit
      if (u == low) {
        int j = 0;
        while ((static_cast<size_t>(1) << j) != u) ++j;
        comb_[k][u - 1] = anchor[j][k];
      } else {
        comb_[k][u - 1] =
            mont_->MontMul(comb_[k][u - low - 1], comb_[k][low - 1]);
      }
    }
  }
}

BigInt FixedBaseTable::Exp(const BigInt& exp) const {
  ULDP_CHECK_MSG(!exp.IsNegative(), "fixed-base exponent must be >= 0");
  const int bits = exp.BitLength();
  ULDP_CHECK_LE(bits, max_bits_);
  const int h = w_;
  std::vector<uint64_t> acc;
  bool started = false;
  // Columns share significance 2^t within their sub-block: square once per
  // column step (MSB-first), then multiply in every sub-block's comb word.
  for (int t = comb_b_ - 1; t >= 0; --t) {
    if (started) acc = mont_->MontSqrLimbs(acc);
    for (int k = 0; k < comb_v_; ++k) {
      const int col = k * comb_b_ + t;
      if (col >= comb_a_) continue;
      uint32_t word = 0;
      for (int j = h - 1; j >= 0; --j) {
        const int idx = j * comb_a_ + col;
        word = (word << 1) | (idx < bits && exp.Bit(idx) ? 1u : 0u);
      }
      if (word == 0) continue;
      const auto& entry = comb_[k][word - 1];
      if (started) {
        acc = mont_->MontMul(acc, entry);
      } else {
        acc = entry;
        started = true;
      }
    }
  }
  if (!started) return mont_->FromMont(mont_->one_mont_);  // exp == 0
  return mont_->FromMont(acc);
}

size_t FixedBaseTable::entries() const {
  size_t total = 0;
  for (const auto& block : comb_) total += block.size();
  return total;
}

FoldPath ChooseFoldPath(size_t bases, size_t products, int exp_bits) {
  if (bases == 0 || products == 0) return FoldPath::kStraus;
  ULDP_CHECK_GE(exp_bits, 1);
  const double u = static_cast<double>(bases);
  const double c = static_cast<double>(products);
  const double b = static_cast<double>(exp_bits);
  const double tables =
      u * PickPlan(exp_bits, products, FixedBaseTable::kMaxEntries).cost;
  const int w = MultiExp::WindowBits(exp_bits, products);
  const double straus = u * static_cast<double>(1u << (w - 1)) +
                        c * (kSqrWeight * b + u * b / (w + 1));
  return tables < straus ? FoldPath::kTables : FoldPath::kStraus;
}

}  // namespace uldp
