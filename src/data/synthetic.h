// Synthetic stand-ins for the paper's evaluation datasets. The real data
// (Kaggle Creditcard, MNIST, FLamby HeartDisease / TcgaBrca) is not
// redistributable and unavailable offline; these generators reproduce the
// statistical structure the experiments depend on — dimensionality, class
// structure, silo count, per-silo covariate shift, and (for TcgaBrca)
// censored survival targets — so the privacy-utility *shapes* of the
// figures are preserved. See DESIGN.md §4 for the substitution argument.

#ifndef ULDP_DATA_SYNTHETIC_H_
#define ULDP_DATA_SYNTHETIC_H_

#include <vector>

#include "common/rng.h"
#include "data/dataset.h"

namespace uldp {

/// Generator output: records with silo_id set only for the fixed-silo
/// benchmarks; user/silo assignment is done by the allocators.
struct SyntheticData {
  std::vector<Record> train;
  std::vector<Record> test;
  int num_classes = 2;
  int feature_dim = 0;
  /// True when silo_id is pre-assigned (HeartDisease / TcgaBrca).
  bool fixed_silos = false;
  int num_silos = 0;
};

/// Creditcard-like: 30-dimensional tabular binary classification
/// (fraud/benign as two anisotropic Gaussian clusters with partial
/// overlap). The paper undersamples to ~25K records; fraud_rate controls
/// the post-undersampling balance.
SyntheticData MakeCreditcardLike(int n_train, int n_test, Rng& rng,
                                 int dim = 30, double fraud_rate = 0.3);

/// MNIST-like: `side` x `side` single-channel images, 10 classes. Each
/// class has a fixed random prototype; samples add per-sample Gaussian
/// pixel noise and a random 1-pixel translation so the task is non-trivial.
SyntheticData MakeMnistLike(int n_train, int n_test, Rng& rng, int side = 14,
                            double noise = 0.35);

/// Silo counts of the two FLamby stand-ins, whose records come with their
/// silo pre-assigned.
constexpr int kHeartDiseaseSilos = 4;
constexpr int kTcgaBrcaSilos = 6;

/// HeartDisease-like (FLamby): 13 features, binary label, 4 silos with
/// fixed per-silo record counts and per-silo covariate shift. silo_id is
/// pre-assigned; pass through AllocateUsersWithinSilos.
SyntheticData MakeHeartDiseaseLike(Rng& rng, int scale = 1);

/// TcgaBrca-like (FLamby): 39 features, survival targets (time, event)
/// from an exponential proportional-hazards model with independent
/// censoring, 6 silos with fixed counts. silo_id pre-assigned.
SyntheticData MakeTcgaBrcaLike(Rng& rng, int scale = 1);

}  // namespace uldp

#endif  // ULDP_DATA_SYNTHETIC_H_
