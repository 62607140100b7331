#include <gtest/gtest.h>

#include <cmath>

#include "common/parallel.h"
#include "crypto/secure_agg.h"
#include "fl/fedavg.h"
#include "fl/local_trainer.h"
#include "data/allocation.h"
#include "data/synthetic.h"
#include "nn/metrics.h"

namespace uldp {
namespace {

TEST(TrainLocalSgdTest, ReducesLoss) {
  Rng rng(1);
  auto model = MakeMlp({2, 6}, 2);
  model->InitParams(rng);
  std::vector<Example> data(200);
  for (size_t i = 0; i < data.size(); ++i) {
    int label = i % 2;
    data[i].x = {rng.Gaussian() + (label ? 2.0 : -2.0), rng.Gaussian()};
    data[i].label = label;
  }
  double before = MeanLoss(*model, data);
  TrainLocalSgd(*model, data, /*epochs=*/5, /*batch_size=*/16,
                /*learning_rate=*/0.2, rng);
  EXPECT_LT(MeanLoss(*model, data), before);
}

TEST(TrainLocalSgdTest, EmptyDataIsNoop) {
  Rng rng(2);
  auto model = MakeMlp({2}, 2);
  model->InitParams(rng);
  Vec before = model->GetParams();
  TrainLocalSgd(*model, {}, 3, 8, 0.1, rng);
  EXPECT_EQ(model->GetParams(), before);
}

TEST(AggregateDeltasTest, PlainSum) {
  std::vector<Vec> deltas = {{1.0, -2.0}, {3.0, 4.0}, {-0.5, 0.25}};
  Vec total = AggregateDeltas(deltas, /*secure=*/false, 0);
  EXPECT_NEAR(total[0], 3.5, 1e-12);
  EXPECT_NEAR(total[1], 2.25, 1e-12);
}

TEST(AggregateDeltasTest, SecureMatchesPlainWithinPrecision) {
  Rng rng(3);
  for (int parties : {2, 3, 6}) {
    std::vector<Vec> deltas(parties, Vec(9));
    for (auto& d : deltas) {
      for (double& v : d) v = rng.Gaussian(0.0, 3.0);
    }
    Vec plain = AggregateDeltas(deltas, false, 7);
    Vec secure = AggregateDeltas(deltas, true, 7);
    for (size_t i = 0; i < plain.size(); ++i) {
      EXPECT_NEAR(secure[i], plain[i], 1e-8);
    }
  }
}

TEST(AggregateDeltasTest, SecureReduceIsBitwiseEqualAtAnyThreadCount) {
  // The secure reduce masks each silo on its own pool task and adds the
  // vectors in silo order, so for random shapes it must equal the serial
  // MaskDelta-then-UnmaskSum pipeline bit for bit at every thread count.
  Rng rng(7341);
  for (int trial = 0; trial < 6; ++trial) {
    const int parties = 2 + static_cast<int>(rng.UniformInt(9));
    const size_t dim = 1 + rng.UniformInt(600);
    const uint64_t tag = rng.NextUint64();
    std::vector<Vec> deltas(parties, Vec(dim));
    for (auto& d : deltas) {
      for (double& v : d) v = rng.Gaussian(0.0, 3.0);
    }
    std::vector<FieldVector> masked;
    for (int s = 0; s < parties; ++s) {
      auto vec = MaskDelta(deltas[s], s, parties, tag);
      ASSERT_TRUE(vec.ok()) << vec.status().ToString();
      masked.push_back(std::move(vec.value()));
    }
    const Vec serial = UnmaskSum(masked);
    EXPECT_EQ(AggregateDeltas(deltas, /*secure=*/true, tag), serial)
        << "trial " << trial;
    for (int threads : {1, 2, 5}) {
      ThreadPool pool(threads);
      EXPECT_EQ(AggregateDeltas(deltas, /*secure=*/true, tag, &pool), serial)
          << "thread count " << threads << " changed the reduce (trial "
          << trial << ", " << parties << " silos, dim " << dim << ")";
    }
  }
}

TEST(AggregateDeltasTest, SingleSiloSecurePath) {
  std::vector<Vec> deltas = {{1.5, -2.5}};
  Vec secure = AggregateDeltas(deltas, true, 1);
  EXPECT_NEAR(secure[0], 1.5, 1e-9);
  EXPECT_NEAR(secure[1], -2.5, 1e-9);
}

class FedAvgFixture : public ::testing::Test {
 protected:
  FedAvgFixture() : rng_(11) {
    auto data = MakeCreditcardLike(1200, 400, rng_);
    AllocationOptions opt;
    EXPECT_TRUE(AllocateUsersAndSilos(data.train, 20, 4, opt, rng_).ok());
    fd_ = std::make_unique<FederatedDataset>(data.train, data.test, 20, 4);
  }
  Rng rng_;
  std::unique_ptr<FederatedDataset> fd_;
};

TEST_F(FedAvgFixture, ConvergesOnSeparableData) {
  auto model = MakeMlp({30}, 2);
  FlConfig config;
  config.local_lr = 0.2;
  config.global_lr = 1.0;
  config.local_epochs = 2;
  config.seed = 5;
  FedAvgTrainer trainer(*fd_, *model, config);
  Rng init(9);
  model->InitParams(init);
  Vec global = model->GetParams();
  model->SetParams(global);
  double before = MeanLoss(*model, fd_->test_examples());
  for (int round = 0; round < 8; ++round) {
    ASSERT_TRUE(trainer.RunRound(round, global).ok());
  }
  model->SetParams(global);
  EXPECT_LT(MeanLoss(*model, fd_->test_examples()), before);
  EXPECT_GT(Accuracy(*model, fd_->test_examples()), 0.8);
}

TEST_F(FedAvgFixture, EpsilonIsInfinite) {
  auto model = MakeMlp({30}, 2);
  FedAvgTrainer trainer(*fd_, *model, FlConfig{});
  EXPECT_TRUE(std::isinf(trainer.EpsilonSpent(1e-5).value()));
  EXPECT_EQ(trainer.name(), "DEFAULT");
}

TEST_F(FedAvgFixture, DeterministicForSameSeed) {
  auto model = MakeMlp({30}, 2);
  FlConfig config;
  config.seed = 42;
  Rng init(1);
  model->InitParams(init);
  Vec g1 = model->GetParams();
  Vec g2 = g1;
  FedAvgTrainer t1(*fd_, *model, config);
  FedAvgTrainer t2(*fd_, *model, config);
  ASSERT_TRUE(t1.RunRound(0, g1).ok());
  ASSERT_TRUE(t2.RunRound(0, g2).ok());
  EXPECT_EQ(g1, g2);
}

}  // namespace
}  // namespace uldp
