#include "data/synthetic.h"

#include <algorithm>
#include <cmath>

namespace uldp {

SyntheticData MakeCreditcardLike(int n_train, int n_test, Rng& rng, int dim,
                                 double fraud_rate) {
  ULDP_CHECK_GE(dim, 2);
  SyntheticData out;
  out.num_classes = 2;
  out.feature_dim = dim;

  // Class structure: benign at the origin, fraud shifted along a random
  // direction with heavier tails in a random subset of coordinates
  // (mimicking the PCA-transformed Kaggle features).
  Vec shift(dim);
  for (double& s : shift) s = rng.Gaussian(0.0, 1.0);
  double norm = L2Norm(shift);
  for (double& s : shift) s = s / norm * 2.2;  // cluster separation
  std::vector<double> scale(dim);
  for (double& s : scale) s = 0.6 + rng.Uniform() * 0.9;

  auto gen = [&](bool fraud) {
    Record r;
    r.features.resize(dim);
    for (int d = 0; d < dim; ++d) {
      r.features[d] = rng.Gaussian(0.0, scale[d]) + (fraud ? shift[d] : 0.0);
    }
    // A little label noise keeps accuracy below 100%.
    bool flip = rng.Bernoulli(0.02);
    r.label = (fraud != flip) ? 1 : 0;
    return r;
  };
  out.train.reserve(n_train);
  out.test.reserve(n_test);
  for (int i = 0; i < n_train; ++i) out.train.push_back(gen(rng.Bernoulli(fraud_rate)));
  for (int i = 0; i < n_test; ++i) out.test.push_back(gen(rng.Bernoulli(fraud_rate)));
  return out;
}

SyntheticData MakeMnistLike(int n_train, int n_test, Rng& rng, int side,
                            double noise) {
  ULDP_CHECK_GE(side, 6);
  SyntheticData out;
  out.num_classes = 10;
  out.feature_dim = side * side;

  // Fixed random prototypes with spatial smoothing so translations matter.
  std::vector<Vec> prototypes(10, Vec(out.feature_dim, 0.0));
  for (auto& proto : prototypes) {
    Vec raw(out.feature_dim);
    for (double& v : raw) v = rng.Bernoulli(0.35) ? 1.0 : 0.0;
    // 3x3 box blur for coherent "strokes".
    for (int r = 0; r < side; ++r) {
      for (int c = 0; c < side; ++c) {
        double acc = 0.0;
        int cnt = 0;
        for (int dr = -1; dr <= 1; ++dr) {
          for (int dc = -1; dc <= 1; ++dc) {
            int rr = r + dr, cc = c + dc;
            if (rr < 0 || rr >= side || cc < 0 || cc >= side) continue;
            acc += raw[rr * side + cc];
            ++cnt;
          }
        }
        proto[r * side + c] = acc / cnt;
      }
    }
  }

  auto gen = [&](int label) {
    Record r;
    r.label = label;
    r.features.assign(out.feature_dim, 0.0);
    int shift_r = static_cast<int>(rng.UniformInt(3)) - 1;
    int shift_c = static_cast<int>(rng.UniformInt(3)) - 1;
    const Vec& proto = prototypes[label];
    for (int row = 0; row < side; ++row) {
      for (int col = 0; col < side; ++col) {
        int pr = row + shift_r, pc = col + shift_c;
        double base = 0.0;
        if (pr >= 0 && pr < side && pc >= 0 && pc < side) {
          base = proto[pr * side + pc];
        }
        r.features[row * side + col] = base + rng.Gaussian(0.0, noise);
      }
    }
    return r;
  };
  out.train.reserve(n_train);
  out.test.reserve(n_test);
  for (int i = 0; i < n_train; ++i) {
    out.train.push_back(gen(static_cast<int>(rng.UniformInt(10))));
  }
  for (int i = 0; i < n_test; ++i) {
    out.test.push_back(gen(static_cast<int>(rng.UniformInt(10))));
  }
  return out;
}

SyntheticData MakeHeartDiseaseLike(Rng& rng, int scale) {
  ULDP_CHECK_GE(scale, 1);
  constexpr int kDim = 13;
  // FLamby heart-disease centers: Cleveland, Hungary, Switzerland, VA.
  const int kCounts[kHeartDiseaseSilos] = {303, 261, 46, 130};
  SyntheticData out;
  out.num_classes = 2;
  out.feature_dim = kDim;
  out.fixed_silos = true;
  out.num_silos = kHeartDiseaseSilos;

  // Ground-truth linear separator shared by all silos; each silo has its
  // own covariate mean (the cross-center distribution shift FLamby
  // documents).
  Vec theta(kDim);
  for (double& t : theta) t = rng.Gaussian(0.0, 1.0);
  std::vector<Vec> silo_shift(4, Vec(kDim, 0.0));
  for (auto& sh : silo_shift) {
    for (double& v : sh) v = rng.Gaussian(0.0, 0.4);
  }

  auto gen = [&](int silo) {
    Record r;
    r.silo_id = silo;
    r.features.resize(kDim);
    for (int d = 0; d < kDim; ++d) {
      r.features[d] = rng.Gaussian(0.0, 1.0) + silo_shift[silo][d];
    }
    double logit = Dot(theta, r.features) / std::sqrt(1.0 * kDim) * 2.5;
    double p = 1.0 / (1.0 + std::exp(-logit));
    r.label = rng.Bernoulli(p) ? 1 : 0;
    return r;
  };
  for (int s = 0; s < 4; ++s) {
    for (int i = 0; i < kCounts[s] * scale; ++i) out.train.push_back(gen(s));
  }
  // Held-out test drawn from the silo mixture.
  int n_test = 200 * scale;
  for (int i = 0; i < n_test; ++i) {
    out.test.push_back(gen(static_cast<int>(rng.UniformInt(4))));
  }
  return out;
}

SyntheticData MakeTcgaBrcaLike(Rng& rng, int scale) {
  ULDP_CHECK_GE(scale, 1);
  constexpr int kDim = 39;
  // FLamby TCGA-BRCA: 1088 patients over 6 centers.
  const int kCounts[kTcgaBrcaSilos] = {311, 196, 206, 79, 125, 171};
  SyntheticData out;
  out.num_classes = 0;
  out.feature_dim = kDim;
  out.fixed_silos = true;
  out.num_silos = kTcgaBrcaSilos;

  Vec theta(kDim);
  for (double& t : theta) t = rng.Gaussian(0.0, 0.5);
  std::vector<Vec> silo_shift(6, Vec(kDim, 0.0));
  for (auto& sh : silo_shift) {
    for (double& v : sh) v = rng.Gaussian(0.0, 0.3);
  }

  auto gen = [&](int silo) {
    Record r;
    r.silo_id = silo;
    r.features.resize(kDim);
    for (int d = 0; d < kDim; ++d) {
      r.features[d] = rng.Gaussian(0.0, 1.0) + silo_shift[silo][d];
    }
    // Proportional hazards: T ~ Exp(rate = base * exp(theta^T x / sqrt(d))),
    // independent exponential censoring (~40% censored).
    double risk = Dot(theta, r.features) / std::sqrt(1.0 * kDim) * 2.0;
    double rate = 0.1 * std::exp(risk);
    double t_event = -std::log(std::max(rng.Uniform(), 1e-12)) / rate;
    double t_censor = -std::log(std::max(rng.Uniform(), 1e-12)) / 0.06;
    r.event = t_event <= t_censor;
    r.time = std::min(t_event, t_censor);
    return r;
  };
  for (int s = 0; s < 6; ++s) {
    for (int i = 0; i < kCounts[s] * scale; ++i) out.train.push_back(gen(s));
  }
  int n_test = 250 * scale;
  for (int i = 0; i < n_test; ++i) {
    out.test.push_back(gen(static_cast<int>(rng.UniformInt(6))));
  }
  return out;
}

}  // namespace uldp
