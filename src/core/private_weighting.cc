#include "core/private_weighting.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"

namespace uldp {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

PrivateWeightingProtocol::PrivateWeightingProtocol(ProtocolConfig config,
                                                   int num_silos,
                                                   int num_users)
    : config_(config),
      num_silos_(num_silos),
      num_users_(num_users),
      pool_(config.num_threads),
      server_(std::make_unique<ServerCore>(config, num_silos, num_users)) {
  ULDP_CHECK_GE(num_silos_, 2);
  ULDP_CHECK_GE(num_users_, 1);
  ULDP_CHECK_GE(config_.n_max, 1);
}

Status PrivateWeightingProtocol::Setup(
    const std::vector<std::vector<int>>& silo_histograms) {
  if (static_cast<int>(silo_histograms.size()) != num_silos_) {
    return Status::InvalidArgument("histogram count != silo count");
  }
  for (const auto& h : silo_histograms) {
    if (static_cast<int>(h.size()) != num_users_) {
      return Status::InvalidArgument("histogram size != user count");
    }
    for (int count : h) {
      if (count < 0) {
        return Status::InvalidArgument("negative histogram entry");
      }
    }
  }
  // Validate N_u <= N_max. (A deployment cannot check this directly — no
  // party knows N_u — which is why Theorem 4 budgets N_max headroom; the
  // simulation holds all inputs and checks it up front.)
  std::vector<int64_t> totals(num_users_, 0);
  for (int s = 0; s < num_silos_; ++s) {
    for (int u = 0; u < num_users_; ++u) totals[u] += silo_histograms[s][u];
  }
  for (int u = 0; u < num_users_; ++u) {
    if (totals[u] > config_.n_max) {
      return Status::InvalidArgument(
          "user " + std::to_string(u) + " has " + std::to_string(totals[u]) +
          " records > N_max=" + std::to_string(config_.n_max));
    }
  }

  // -- Setup (a): server key generation (+ Theorem-4 check) ----------------
  auto t0 = Clock::now();
  ULDP_RETURN_IF_ERROR(server_->GenerateKeys(*pool_));

  // -- Setup (b): per-silo DH key pairs; pairwise keys from the directory.
  // Each silo's pair is a Fork(0, silo) substream of the seed, so the key
  // exchange needs only the public-key directory — exactly what the server
  // relays in the distributed driver.
  silos_.clear();
  for (int s = 0; s < num_silos_; ++s) {
    silos_.push_back(std::make_unique<SiloCore>(server_->params(), s,
                                                silo_histograms[s]));
  }
  std::vector<BigInt> directory(num_silos_);
  for (int s = 0; s < num_silos_; ++s) {
    directory[s] = silos_[s]->dh_key().public_key;
  }
  std::vector<Status> silo_status(num_silos_, Status::Ok());
  pool_->ParallelFor(static_cast<size_t>(num_silos_), [&](size_t s) {
    silo_status[s] = silos_[s]->ComputePairKeys(directory);
  });
  ULDP_RETURN_IF_ERROR(FirstError(silo_status));

  // -- Setup (c): silo 0 distributes the shared random seed R -------------
  // (in the distributed driver it travels encrypted under the pairwise
  // keys and the server only relays ciphertext; in process it is handed
  // over directly).
  BigInt r_seed = silos_[0]->MakeSharedSeed();
  for (int s = 0; s < num_silos_; ++s) silos_[s]->SetSharedSeed(r_seed);
  timings_.key_exchange_s += SecondsSince(t0);

  // -- Setup (d)-(f): blinded histograms + secure aggregation --------------
  t0 = Clock::now();
  for (int s = 0; s < num_silos_; ++s) {
    auto blinded = silos_[s]->BlindHistogram(*pool_);
    if (!blinded.ok()) return blinded.status();
    ULDP_RETURN_IF_ERROR(
        server_->AbsorbBlindedHistogram(s, std::move(blinded.value())));
  }
  ULDP_RETURN_IF_ERROR(server_->FinalizeSetup());
  timings_.histogram_s += SecondsSince(t0);
  return Status::Ok();
}

Result<Vec> PrivateWeightingProtocol::WeightingRound(
    uint64_t round, const std::vector<std::vector<Vec>>& clipped_deltas,
    const std::vector<Vec>& silo_noise,
    const std::vector<bool>& user_sampled) {
  // A Setup that failed after building the silo cores leaves the server
  // core unfinalized, so its first call below refuses the round.
  if (silos_.empty()) {
    return Status::FailedPrecondition("Setup() has not completed");
  }
  if (static_cast<int>(clipped_deltas.size()) != num_silos_ ||
      static_cast<int>(silo_noise.size()) != num_silos_) {
    return Status::InvalidArgument("per-silo input size mismatch");
  }
  if (static_cast<int>(user_sampled.size()) != num_users_) {
    return Status::InvalidArgument("sampling mask size mismatch");
  }
  size_t dim = silo_noise[0].size();
  for (const auto& z : silo_noise) {
    if (z.size() != dim) {
      return Status::InvalidArgument("noise dimension mismatch");
    }
  }

  for (int s = 0; s < num_silos_; ++s) {
    if (static_cast<int>(clipped_deltas[s].size()) != num_users_) {
      return Status::InvalidArgument("delta matrix size mismatch");
    }
  }

  // -- Weighting (a), OT mode: the §4.1 extension fetches the whole
  // ciphertext vector up front. The server offers P shuffled slots per
  // user (real Enc(B_inv) in a q-fraction, Enc(0) in the rest) and the
  // joint receiver fetches one by 1-out-of-P OT, so neither side learns
  // the sampling outcome. Otherwise the server encrypts the (sampled)
  // inverted weights chunk by chunk in the sweep below.
  const bool ot = config_.ot_slots > 0;
  std::vector<BigInt> enc_weights(num_users_);
  if (ot) {
    auto t0 = Clock::now();
    auto senders = server_->OtSenderInit(round, *pool_);
    if (!senders.ok()) return senders.status();
    auto bs = silos_[0]->OtReceiverChoose(round, senders.value(), *pool_);
    if (!bs.ok()) return bs.status();
    auto slots = server_->OtEncryptSlots(round, bs.value(), *pool_);
    if (!slots.ok()) return slots.status();
    auto fetched = silos_[0]->OtReceiverDecrypt(round, senders.value(),
                                                slots.value(), *pool_);
    if (!fetched.ok()) return fetched.status();
    enc_weights = std::move(fetched.value());
    timings_.encrypt_weights_s += SecondsSince(t0);
  }

  // -- Weighting (a)+(b)+(c): one chunk sweep for every round shape. A
  // chunk is stream_chunk_users users, or kWeightingBatchUsers when
  // streaming is off. Each chunk is encrypted and folded by every silo
  // core on the pool through SiloCore::FoldUsers — the batch fold the
  // distributed silos run — and, when streaming, its ciphertexts are freed
  // afterwards, so resident ciphertexts stay O(chunk). Every per-user
  // value comes from a Fork substream addressed by the absolute user index
  // and every fold is an exact modular product, so the chunk size never
  // changes a bit, and a distributed silo matches exactly.
  const bool streaming = StreamChunkUsers(config_) > 0;
  const int chunk_users =
      streaming ? StreamChunkUsers(config_) : kWeightingBatchUsers;
  const size_t cdim = server_->params().packed.PackedDim(dim);
  std::vector<std::vector<BigInt>> silo_ciphers(
      num_silos_, SiloCore::NewCipherAccumulator(cdim));
  std::vector<Status> silo_status(num_silos_, Status::Ok());
  for (int u0 = 0; u0 < num_users_; u0 += chunk_users) {
    const int u1 = std::min(num_users_, u0 + chunk_users);
    if (!ot) {
      auto t0 = Clock::now();
      auto enc =
          server_->EncryptWeightsRange(round, user_sampled, u0, u1, *pool_);
      if (!enc.ok()) return enc.status();
      std::move(enc.value().begin(), enc.value().end(),
                enc_weights.begin() + u0);
      timings_.encrypt_weights_s += SecondsSince(t0);
    }
    auto t0 = Clock::now();
    pool_->ParallelFor(static_cast<size_t>(num_silos_), [&](size_t s) {
      if (!silo_status[s].ok()) return;  // earlier chunk already failed
      silo_status[s] = silos_[s]->FoldUsers(u0, u1, enc_weights,
                                            clipped_deltas[s], dim,
                                            &silo_ciphers[s], *pool_);
    });
    ULDP_RETURN_IF_ERROR(FirstError(silo_status));
    if (streaming && !ot) {
      for (int u = u0; u < u1; ++u) enc_weights[u] = BigInt();
    }
    timings_.silo_weighting_s += SecondsSince(t0);
  }

  auto t0 = Clock::now();
  pool_->ParallelFor(static_cast<size_t>(num_silos_), [&](size_t s) {
    silo_status[s] = silos_[s]->FinishRound(round, silo_noise[s],
                                            &silo_ciphers[s], *pool_);
  });
  ULDP_RETURN_IF_ERROR(FirstError(silo_status));
  timings_.silo_weighting_s += SecondsSince(t0);

  // -- Weighting (c), server side: ciphertext product (masks cancel)...
  t0 = Clock::now();
  std::vector<BigInt> product = SiloCore::NewCipherAccumulator(cdim);
  for (int s = 0; s < num_silos_; ++s) {
    ULDP_RETURN_IF_ERROR(server_->AccumulateSiloCipher(silo_ciphers[s],
                                                       &product));
  }
  timings_.aggregation_s += SecondsSince(t0);

  // ...then decrypt and decode (the only value the server sees in the
  // clear).
  t0 = Clock::now();
  auto out = server_->DecryptAggregate(product, *pool_, dim);
  if (!out.ok()) return out.status();
  timings_.decryption_s += SecondsSince(t0);
  return out;
}

}  // namespace uldp
