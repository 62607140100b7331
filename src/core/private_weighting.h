// Protocol 1: the private weighting protocol. Computes the enhanced-weight
// aggregation  sum_s sum_u (n_{s,u}/N_u) * clipped_delta_{s,u} + noise
// without revealing any n_{s,u} (or N_u) to the server or to other silos:
//
//   Setup (once):
//     (a) server generates a Paillier key pair; silos run DH via the server;
//         everyone computes C_LCM = lcm(1..N_max);
//     (b) silos derive pairwise shared keys;
//     (c) silo 0 distributes a shared random seed R (encrypted, relayed);
//     (d) silos derive multiplicative blinds r_u from R and blind their
//         histograms: B(n_{s,u}) = r_u * n_{s,u} mod n;
//     (e) pairwise additive masks -> doubly blinded histograms -> server
//         sums to get B(N_u) = r_u * N_u mod n (masks cancel);
//     (f) server inverts: B_inv(N_u) = (r_u * N_u)^{-1} mod n.
//
//   Weighting (each round):
//     (a) server (optionally Poisson-samples users and) encrypts B_inv
//         under Paillier, broadcasts;
//     (b) each silo computes, per coordinate,
//         Enc(delta~) = Enc(B_inv)^(Encode(delta) * n_su * r_u * C_LCM)
//         — the r_u cancels the blind and C_LCM/N_u stays integral — then
//         sums ciphertexts over users and adds its encoded noise;
//     (c) silos apply pairwise additive masks homomorphically; the server
//         multiplies the ciphertexts (masks cancel), decrypts and decodes.
//
// The phase logic itself lives in core/protocol_party.h (ServerCore +
// SiloCore): this class is the *in-process orchestrator* that wires one
// server core to N silo cores with direct calls and records per-phase
// wall-times (Figure 10/11). It keeps no copy of what a party receives;
// tests assert the privacy properties (Theorem 5) on the frames a
// distributed cohort's parties receive. The distributed driver
// (net/protocol_node.h) runs the same cores over a Transport; because
// every core value is derived from Rng::Fork substreams of the seed, a
// distributed round is bitwise identical to an in-process round.

#ifndef ULDP_CORE_PRIVATE_WEIGHTING_H_
#define ULDP_CORE_PRIVATE_WEIGHTING_H_

#include <memory>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "core/protocol_party.h"
#include "nn/tensor.h"

namespace uldp {

/// Wall-clock seconds per protocol phase (Figure 10/11 measurements).
struct ProtocolTimings {
  double key_exchange_s = 0.0;   // setup (a)-(c)
  double histogram_s = 0.0;      // setup (d)-(f)
  double encrypt_weights_s = 0.0;  // weighting (a), per round, accumulated
  double silo_weighting_s = 0.0;   // weighting (b)+(c) silo side, summed
  double aggregation_s = 0.0;      // weighting (c): server ciphertext product
  double decryption_s = 0.0;       // server decrypt + decode
};

class PrivateWeightingProtocol {
 public:
  PrivateWeightingProtocol(ProtocolConfig config, int num_silos,
                           int num_users);

  /// Runs the setup phase. `silo_histograms[s][u]` = n_{s,u} — each silo's
  /// private input (this in-process simulation passes them in directly; the
  /// values never reach the server or other silo states un-blinded).
  /// Validates N_u <= N_max and the Theorem-4 overflow condition.
  Status Setup(const std::vector<std::vector<int>>& silo_histograms);

  /// One weighting round. clipped_deltas[s][u] is user u's clipped
  /// (unweighted) model delta at silo s (empty Vec if the user has no
  /// records there); silo_noise[s] is silo s's Gaussian noise vector;
  /// user_sampled is the server-side sampling mask (it must be all-true
  /// in a full-participation session, config().sample_rate = 1, and a
  /// partial mask is refused there with InvalidArgument; ignored when
  /// OT-based private sub-sampling is enabled — then the protocol derives
  /// the mask internally from the shared seed).
  /// Returns sum_s sum_u (n_su/N_u) delta_su + sum_s noise_s.
  Result<Vec> WeightingRound(
      uint64_t round, const std::vector<std::vector<Vec>>& clipped_deltas,
      const std::vector<Vec>& silo_noise,
      const std::vector<bool>& user_sampled);

  /// The configuration the protocol runs; a trainer reads its sampling
  /// rate from here.
  const ProtocolConfig& config() const { return config_; }
  const ProtocolTimings& timings() const { return timings_; }
  const BigInt& c_lcm() const { return server_->params().c_lcm; }

 private:
  ProtocolConfig config_;
  int num_silos_;
  int num_users_;
  PoolHandle pool_;

  std::unique_ptr<ServerCore> server_;
  std::vector<std::unique_ptr<SiloCore>> silos_;  // empty before Setup

  ProtocolTimings timings_;
};

}  // namespace uldp

#endif  // ULDP_CORE_PRIVATE_WEIGHTING_H_
