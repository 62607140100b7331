#include "math/multi_exp.h"

#include <algorithm>

#include "common/check.h"

namespace uldp {

int MultiExp::WindowBits(int exp_bits, size_t products) {
  const double chain = static_cast<double>(std::max(exp_bits, 1)) *
                       static_cast<double>(std::max<size_t>(products, 1));
  int best_w = 1;
  double best_cost = -1.0;
  for (int w = 1; w <= kMaxWindow; ++w) {
    const double cost =
        static_cast<double>(1u << (w - 1)) + chain / static_cast<double>(w + 1);
    if (best_cost < 0.0 || cost < best_cost) {
      best_cost = cost;
      best_w = w;
    }
  }
  return best_w;
}

MultiExp::MultiExp(const Montgomery& mont, const std::vector<BigInt>& bases,
                   int exp_bits, size_t products)
    : mont_(&mont),
      w_(WindowBits(exp_bits > 0 ? exp_bits : mont.modulus().BitLength(),
                    products)) {
  const size_t entries = static_cast<size_t>(1) << (w_ - 1);
  odd_.reserve(bases.size());
  for (const BigInt& base : bases) {
    ULDP_CHECK_MSG(!base.IsNegative(), "multi-exp base must be >= 0");
    std::vector<std::vector<uint64_t>> odd;
    odd.reserve(entries);
    odd.push_back(mont_->ToMont(base));
    if (entries > 1) {
      const std::vector<uint64_t> sq = mont_->MontSqrLimbs(odd[0]);
      for (size_t j = 1; j < entries; ++j) {
        odd.push_back(mont_->MontMul(odd[j - 1], sq));
      }
    }
    odd_.push_back(std::move(odd));
  }
}

BigInt MultiExp::Product(const std::vector<BigInt>& exps) const {
  ULDP_CHECK_EQ(exps.size(), odd_.size());
  // Every exponent's greedy sliding windows, as MontExp cuts them: a
  // window starts at a set bit, spans at most w bits and ends at a set
  // bit, so its value is odd and indexes the half-size table.
  struct Window {
    int end;         // lowest bit of the window
    uint32_t base;   // index into odd_
    uint32_t entry;  // (window value - 1) / 2
  };
  std::vector<Window> windows;
  for (size_t i = 0; i < exps.size(); ++i) {
    const BigInt& exp = exps[i];
    ULDP_CHECK_MSG(!exp.IsNegative(), "multi-exp exponent must be >= 0");
    int b = exp.BitLength() - 1;
    while (b >= 0) {
      if (!exp.Bit(b)) {
        --b;
        continue;
      }
      int j = std::max(b - w_ + 1, 0);
      while (!exp.Bit(j)) ++j;
      uint32_t value = 0;
      for (int t = b; t >= j; --t) value = (value << 1) | (exp.Bit(t) ? 1u : 0u);
      windows.push_back({j, static_cast<uint32_t>(i), value >> 1});
      b = j - 1;
    }
  }
  if (windows.empty()) return mont_->FromMont(mont_->one_mont_);
  std::stable_sort(windows.begin(), windows.end(),
                   [](const Window& a, const Window& b) {
                     return a.end > b.end;
                   });

  // One shared chain from the highest window end down to bit 0: square
  // once per bit, then multiply in every window that ends at that bit.
  // Each window's entry is squared exactly `end` times afterwards, which
  // places it at its weight 2^end.
  std::vector<uint64_t> acc;
  bool started = false;
  size_t next = 0;
  for (int bit = windows.front().end; bit >= 0; --bit) {
    if (started) acc = mont_->MontSqrLimbs(acc);
    for (; next < windows.size() && windows[next].end == bit; ++next) {
      const std::vector<uint64_t>& entry =
          odd_[windows[next].base][windows[next].entry];
      if (started) {
        acc = mont_->MontMul(acc, entry);
      } else {
        acc = entry;
        started = true;
      }
    }
  }
  return mont_->FromMont(acc);
}

}  // namespace uldp
