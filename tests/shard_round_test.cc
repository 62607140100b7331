// The private ULDP-AVG sweep over each silo's user shards: every
// (silo, user) delta comes from its own Rng::Fork substream and lands in
// its own slot, so the round engine's thread count is a pure scheduling
// choice and every count must produce bitwise-identical traces.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/experiment.h"
#include "core/private_weighting.h"
#include "core/uldp_avg.h"
#include "data/allocation.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "nn/model.h"

namespace uldp {
namespace {

constexpr int kSilosN = 3;
constexpr int kUsersN = 8;

struct Fixture {
  std::unique_ptr<FederatedDataset> data;
  std::unique_ptr<Model> model;
};

Fixture MakeFixture() {
  Rng rng(21);
  auto cd = MakeCreditcardLike(200, 100, rng);
  AllocationOptions alloc;
  EXPECT_TRUE(
      AllocateUsersAndSilos(cd.train, kUsersN, kSilosN, alloc, rng).ok());
  Fixture f;
  f.data = std::make_unique<FederatedDataset>(cd.train, cd.test, kUsersN,
                                              kSilosN);
  f.model = MakeMlp({30}, 2);
  return f;
}

FlConfig BaseConfig() {
  FlConfig fl;
  fl.local_lr = 0.1;
  fl.global_lr = 5.0;
  fl.sigma = 5.0;
  fl.seed = 77;
  return fl;
}

/// Runs the private-protocol ULDP-AVG trainer and returns the final
/// per-round losses — exact doubles, so EXPECT_EQ means bitwise identity.
std::vector<double> RunPrivate(const Fixture& f, int threads) {
  FlConfig fl = BaseConfig();
  fl.num_threads = threads;
  ExperimentConfig cfg;
  cfg.rounds = 2;
  cfg.eval_every = 1;
  ProtocolConfig pc;
  pc.paillier_bits = 512;
  pc.n_max = 200;
  pc.seed = 5;
  PrivateWeightingProtocol protocol(pc, kSilosN, kUsersN);
  std::vector<std::vector<int>> hist(kSilosN, std::vector<int>(kUsersN, 0));
  for (int s = 0; s < kSilosN; ++s) {
    for (int u = 0; u < kUsersN; ++u) hist[s][u] = f.data->CountOf(s, u);
  }
  EXPECT_TRUE(protocol.Setup(hist).ok());

  UldpAvgOptions opt;
  opt.private_protocol = &protocol;
  UldpAvgTrainer trainer(*f.data, *f.model, fl, opt);
  auto trace = RunExperiment(trainer, *f.model, *f.data, cfg);
  EXPECT_TRUE(trace.ok()) << trace.status().ToString();
  std::vector<double> losses;
  for (const auto& rec : trace.value()) losses.push_back(rec.test_loss);
  return losses;
}

TEST(ShardRoundTest, PrivateSweepBitwiseMatchesAtAnyThreadCount) {
  Fixture f = MakeFixture();
  // The single-threaded run is the reference.
  std::vector<double> reference = RunPrivate(f, /*threads=*/1);
  ASSERT_EQ(reference.size(), 2u);
  for (int threads : {2, 5}) {
    EXPECT_EQ(RunPrivate(f, threads), reference) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace uldp
