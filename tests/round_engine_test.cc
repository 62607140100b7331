// Parallel determinism of the unified round engine: every trainer must
// produce bitwise-identical rounds whether silo work runs on 1 thread or
// many — the engine's core contract (randomness comes from
// Rng::Fork(round, silo, user) substreams, reductions run in silo order).

#include <gtest/gtest.h>

#include <thread>

#include "core/private_weighting.h"
#include "core/uldp_avg.h"
#include "core/uldp_group.h"
#include "core/uldp_naive.h"
#include "core/uldp_sgd.h"
#include "data/allocation.h"
#include "data/synthetic.h"
#include "fl/fedavg.h"
#include "fl/round_engine.h"

namespace uldp {
namespace {

int ManyThreads() {
  unsigned hc = std::thread::hardware_concurrency();
  // Exercise real concurrency even on small CI machines: at least 4
  // threads regardless of core count (oversubscription still interleaves).
  return static_cast<int>(hc < 4 ? 4 : hc);
}

FederatedDataset MakeFederated(int n_train, int users, int silos,
                               uint64_t seed) {
  Rng rng(seed);
  auto data = MakeCreditcardLike(n_train, 100, rng);
  AllocationOptions opt;
  opt.kind = AllocationKind::kZipf;
  EXPECT_TRUE(AllocateUsersAndSilos(data.train, users, silos, opt, rng).ok());
  return FederatedDataset(data.train, data.test, users, silos);
}

/// Runs `rounds` rounds of the trainer built by `make` with the given
/// thread count and returns the final global parameters.
template <typename MakeTrainer>
Vec RunTrajectory(const MakeTrainer& make, const Model& arch, int threads,
                  int rounds) {
  auto model = arch.Clone();
  Rng init(5);
  model->InitParams(init);
  Vec global = model->GetParams();
  auto trainer = make(threads);
  for (int r = 0; r < rounds; ++r) {
    EXPECT_TRUE(trainer->RunRound(r, global).ok());
  }
  return global;
}

TEST(RoundEngineTest, StepSumsSiloDeltas) {
  auto arch = MakeMlp({4}, 2);
  RoundEngineConfig config;
  config.num_threads = 2;
  RoundEngine engine(*arch, 3, config,
                     [](int, int s, const Vec&, Model&, Vec& delta) {
                       for (double& v : delta) v = s + 1.0;
                       return Status::Ok();
                     });
  Vec global(arch->NumParams(), 0.0);
  auto total = engine.Step(0, global);
  ASSERT_TRUE(total.ok());
  for (double v : total.value()) EXPECT_DOUBLE_EQ(v, 6.0);  // 1 + 2 + 3
}

TEST(RoundEngineTest, PropagatesSiloWorkErrors) {
  auto arch = MakeMlp({4}, 2);
  RoundEngine engine(*arch, 3, RoundEngineConfig{},
                     [](int, int s, const Vec&, Model&, Vec&) {
                       return s == 1 ? Status::Internal("silo 1 failed")
                                     : Status::Ok();
                     });
  Vec global(arch->NumParams(), 0.0);
  auto total = engine.Step(0, global);
  EXPECT_FALSE(total.ok());
  EXPECT_EQ(total.status().message(), "silo 1 failed");
}

TEST(RoundEngineTest, FedAvgBitwiseIdenticalAcrossThreadCounts) {
  auto fd = MakeFederated(600, 12, 4, 31);
  auto arch = MakeMlp({30, 8}, 2);
  auto make = [&](int threads) {
    FlConfig config;
    config.seed = 77;
    config.num_threads = threads;
    return std::make_unique<FedAvgTrainer>(fd, *arch, config);
  };
  Vec serial = RunTrajectory(make, *arch, 1, 3);
  EXPECT_EQ(serial, RunTrajectory(make, *arch, ManyThreads(), 3));
}

TEST(RoundEngineTest, UldpNaiveBitwiseIdenticalAcrossThreadCounts) {
  auto fd = MakeFederated(500, 10, 4, 32);
  auto arch = MakeMlp({30}, 2);
  auto make = [&](int threads) {
    FlConfig config;
    config.seed = 78;
    config.sigma = 2.0;
    config.num_threads = threads;
    return std::make_unique<UldpNaiveTrainer>(fd, *arch, config);
  };
  Vec serial = RunTrajectory(make, *arch, 1, 3);
  EXPECT_EQ(serial, RunTrajectory(make, *arch, ManyThreads(), 3));
}

TEST(RoundEngineTest, UldpGroupBitwiseIdenticalAcrossThreadCounts) {
  auto fd = MakeFederated(500, 10, 4, 33);
  auto arch = MakeMlp({30}, 2);
  auto make = [&](int threads) {
    FlConfig config;
    config.seed = 79;
    config.num_threads = threads;
    return std::make_unique<UldpGroupTrainer>(fd, *arch, config,
                                              GroupSizeSpec::Fixed(4), 0.3, 3);
  };
  Vec serial = RunTrajectory(make, *arch, 1, 3);
  EXPECT_EQ(serial, RunTrajectory(make, *arch, ManyThreads(), 3));
}

TEST(RoundEngineTest, UldpSgdBitwiseIdenticalAcrossThreadCounts) {
  auto fd = MakeFederated(500, 10, 4, 34);
  auto arch = MakeMlp({30}, 2);
  auto make = [&](int threads) {
    FlConfig config;
    config.seed = 80;
    config.sigma = 2.0;
    config.global_lr = 20.0;
    config.num_threads = threads;
    return std::make_unique<UldpSgdTrainer>(
        fd, *arch, config, WeightingStrategy::kEnhanced, /*q=*/0.6);
  };
  Vec serial = RunTrajectory(make, *arch, 1, 3);
  EXPECT_EQ(serial, RunTrajectory(make, *arch, ManyThreads(), 3));
}

TEST(RoundEngineTest, UldpAvgBitwiseIdenticalAcrossThreadCounts) {
  auto fd = MakeFederated(600, 12, 4, 35);
  auto arch = MakeMlp({30, 8}, 2);
  auto make = [&](int threads) {
    FlConfig config;
    config.seed = 81;
    config.sigma = 2.0;
    config.global_lr = 10.0;
    config.local_epochs = 2;
    config.num_threads = threads;
    UldpAvgOptions opt;
    opt.weighting = WeightingStrategy::kEnhanced;
    opt.user_sample_rate = 0.7;
    return std::make_unique<UldpAvgTrainer>(fd, *arch, config, opt);
  };
  Vec serial = RunTrajectory(make, *arch, 1, 3);
  EXPECT_EQ(serial, RunTrajectory(make, *arch, ManyThreads(), 3));
  EXPECT_EQ(serial, RunTrajectory(make, *arch, 2, 3));
}

TEST(RoundEngineTest, UldpAvgSecureAggregationIdenticalAcrossThreadCounts) {
  auto fd = MakeFederated(300, 6, 3, 36);
  auto arch = MakeMlp({30}, 2);
  auto make = [&](int threads) {
    FlConfig config;
    config.seed = 82;
    config.secure_aggregation = true;
    config.num_threads = threads;
    return std::make_unique<UldpAvgTrainer>(fd, *arch, config);
  };
  Vec serial = RunTrajectory(make, *arch, 1, 2);
  EXPECT_EQ(serial, RunTrajectory(make, *arch, ManyThreads(), 2));
}

TEST(RoundEngineTest, PrivateProtocolRoundIdenticalAcrossThreadCounts) {
  // Protocol 1's parallel phases (per-user encryption, per-silo encrypted
  // weighting, masking, aggregation, decryption) must be bitwise
  // deterministic in the thread count.
  const int silos = 3, users = 6, dim = 8;
  auto run = [&](int threads) -> Vec {
    ProtocolConfig pc;
    pc.paillier_bits = 512;
    pc.n_max = 20;
    pc.seed = 97;
    pc.num_threads = threads;
    PrivateWeightingProtocol protocol(pc, silos, users);
    std::vector<std::vector<int>> hist(silos, std::vector<int>(users, 0));
    Rng rng(55);
    for (int u = 0; u < users; ++u) {
      hist[static_cast<int>(rng.UniformInt(silos))][u] =
          1 + static_cast<int>(rng.UniformInt(5));
    }
    EXPECT_TRUE(protocol.Setup(hist).ok());
    std::vector<std::vector<Vec>> deltas(silos, std::vector<Vec>(users));
    std::vector<Vec> noise(silos, Vec(dim));
    for (int s = 0; s < silos; ++s) {
      for (int u = 0; u < users; ++u) {
        if (hist[s][u] == 0) continue;
        deltas[s][u].resize(dim);
        for (double& v : deltas[s][u]) v = rng.Gaussian(0.0, 0.1);
      }
      for (double& v : noise[s]) v = rng.Gaussian(0.0, 0.05);
    }
    std::vector<bool> sampled(users, true);
    auto out = protocol.WeightingRound(0, deltas, noise, sampled);
    EXPECT_TRUE(out.ok());
    return out.ok() ? out.value() : Vec();
  };
  Vec serial = run(1);
  ASSERT_EQ(serial.size(), static_cast<size_t>(dim));
  EXPECT_EQ(serial, run(ManyThreads()));
}

TEST(RoundEngineTest, ProtocolOtPathIdenticalAcrossThreadCounts) {
  // The OT-based private sub-sampling path runs one OT per user on the
  // pool; both the round output and the hidden sampling mask must be
  // identical across thread counts.
  const int silos = 2, users = 5, dim = 4;
  struct RoundResult {
    Vec out;
    std::vector<bool> mask;
  };
  auto run = [&](int threads) -> RoundResult {
    ProtocolConfig pc;
    pc.paillier_bits = 512;
    pc.n_max = 10;
    pc.seed = 98;
    pc.num_threads = threads;
    pc.ot_slots = 4;
    pc.ot_sample_rate = 0.5;
    pc.ot_group_bits = 256;
    PrivateWeightingProtocol protocol(pc, silos, users);
    std::vector<std::vector<int>> hist(silos, std::vector<int>(users, 1));
    EXPECT_TRUE(protocol.Setup(hist).ok());
    std::vector<std::vector<Vec>> deltas(silos, std::vector<Vec>(users));
    std::vector<Vec> noise(silos, Vec(dim, 0.0));
    Rng rng(77);
    for (int s = 0; s < silos; ++s) {
      for (int u = 0; u < users; ++u) {
        deltas[s][u].resize(dim);
        for (double& v : deltas[s][u]) v = rng.Gaussian(0.0, 0.1);
      }
    }
    std::vector<bool> sampled(users, true);  // ignored in OT mode
    auto out = protocol.WeightingRound(0, deltas, noise, sampled);
    EXPECT_TRUE(out.ok());
    return RoundResult{out.ok() ? out.value() : Vec(),
                       protocol.last_ot_mask()};
  };
  RoundResult serial = run(1);
  ASSERT_EQ(serial.out.size(), static_cast<size_t>(dim));
  RoundResult parallel = run(ManyThreads());
  EXPECT_EQ(serial.out, parallel.out);
  EXPECT_EQ(serial.mask, parallel.mask);
}

}  // namespace
}  // namespace uldp
