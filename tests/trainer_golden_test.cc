// Golden outputs: the FNV-1a digest of every trainer's final global
// parameters after 3 rounds on one small synthetic set. A change to the
// round code that moves a single bit of any trainer's trajectory fails
// here, at 1 and at 4 threads. The digests were recorded before ULDP-SGD
// and ULDP-AVG were merged into one trainer; a distributed run of the
// same configuration must reproduce them too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "core/private_weighting.h"
#include "core/uldp_avg.h"
#include "core/uldp_group.h"
#include "core/uldp_naive.h"
#include "core/uldp_sgd.h"
#include "data/allocation.h"
#include "data/synthetic.h"
#include "fl/fedavg.h"
#include "net/messages.h"

namespace uldp {
namespace {

constexpr int kUsers = 10;
constexpr int kSilos = 3;
constexpr int kRounds = 3;

const FederatedDataset& Data() {
  static const FederatedDataset* data = [] {
    Rng rng(2024);
    auto cd = MakeCreditcardLike(300, 60, rng);
    AllocationOptions opt;
    opt.kind = AllocationKind::kZipf;
    EXPECT_TRUE(
        AllocateUsersAndSilos(cd.train, kUsers, kSilos, opt, rng).ok());
    return new FederatedDataset(cd.train, cd.test, kUsers, kSilos);
  }();
  return *data;
}

FlConfig BaseConfig(int threads) {
  FlConfig c;
  c.seed = 91;
  c.sigma = 2.0;
  c.clip = 0.5;
  c.local_lr = 0.1;
  c.global_lr = 5.0;
  c.local_epochs = 2;
  c.batch_size = 16;
  c.num_threads = threads;
  return c;
}

/// A trainer plus the protocol it borrows (declared first, so it is
/// destroyed after the trainer).
struct Trained {
  std::unique_ptr<PrivateWeightingProtocol> protocol;
  std::unique_ptr<FlAlgorithm> trainer;
};

struct GoldenCase {
  const char* name;
  const char* digest;  // of the final parameters' exact bit patterns
  std::function<Trained(const Model& arch, int threads)> make;
};

Trained Plain(std::unique_ptr<FlAlgorithm> trainer) {
  return Trained{nullptr, std::move(trainer)};
}

Trained Avg(const Model& arch, const FlConfig& c, WeightingStrategy w,
            double q = 1.0) {
  UldpAvgOptions opt;
  opt.weighting = w;
  opt.user_sample_rate = q;
  return Plain(std::make_unique<UldpAvgTrainer>(Data(), arch, c, opt));
}

Trained Sgd(const Model& arch, FlConfig c, WeightingStrategy w,
            double q = 1.0) {
  c.global_lr = 20.0;
  return Plain(std::make_unique<UldpSgdTrainer>(Data(), arch, c, w, q));
}

/// ULDP-AVG-w over an in-process Protocol 1 at 512 bits, without OT, the
/// protocol and the trainer both sampling users at q (q = 1 runs a
/// full-participation session).
Trained Private(const Model& arch, int threads, double q) {
  const FederatedDataset& fd = Data();
  ProtocolConfig pc;
  pc.paillier_bits = 512;
  pc.seed = 5;
  pc.num_threads = threads;
  pc.sample_rate = q;
  pc.n_max = 1;
  std::vector<std::vector<int>> hist(kSilos, std::vector<int>(kUsers, 0));
  for (int u = 0; u < kUsers; ++u) {
    pc.n_max = std::max(pc.n_max, fd.TotalCountOf(u));
    for (int s = 0; s < kSilos; ++s) hist[s][u] = fd.CountOf(s, u);
  }
  Trained t;
  t.protocol =
      std::make_unique<PrivateWeightingProtocol>(pc, kSilos, kUsers);
  EXPECT_TRUE(t.protocol->Setup(hist).ok());
  UldpAvgOptions opt;
  opt.private_protocol = t.protocol.get();
  opt.user_sample_rate = q;
  t.trainer = std::make_unique<UldpAvgTrainer>(fd, arch, BaseConfig(threads),
                                               opt);
  return t;
}

FlConfig With(FlConfig c, const std::function<void(FlConfig&)>& edit) {
  edit(c);
  return c;
}

void Central(FlConfig& c) { c.noise_placement = NoisePlacement::kCentral; }
void Secure(FlConfig& c) { c.secure_aggregation = true; }
void AsyncBarrier(FlConfig& c) { c.async_rounds = true; }

const std::vector<GoldenCase>& Cases() {
  constexpr auto kU = WeightingStrategy::kUniform;
  constexpr auto kE = WeightingStrategy::kEnhanced;
  static const std::vector<GoldenCase> cases = {
      {"FedAvg", "94d6392a5abcfc68",
       [](const Model& a, int t) {
         return Plain(std::make_unique<FedAvgTrainer>(Data(), a,
                                                      BaseConfig(t)));
       }},
      {"Naive", "d13d8e2ce701ce55",
       [](const Model& a, int t) {
         return Plain(std::make_unique<UldpNaiveTrainer>(Data(), a,
                                                         BaseConfig(t)));
       }},
      {"Group8", "eb3ca8908f6966ff",
       [](const Model& a, int t) {
         return Plain(std::make_unique<UldpGroupTrainer>(
             Data(), a, BaseConfig(t), GroupSizeSpec::Fixed(8), 0.3, 2));
       }},
      {"Avg", "13f364b60711b2f5", [](const Model& a, int t) {
         return Avg(a, BaseConfig(t), kU);
       }},
      {"AvgW", "0530462a13b4dca7", [](const Model& a, int t) {
         return Avg(a, BaseConfig(t), kE);
       }},
      {"AvgQ06", "0b0eb0f5310ce7ec", [](const Model& a, int t) {
         return Avg(a, BaseConfig(t), kU, 0.6);
       }},
      {"AvgWQ06", "caf7f51b04b5165b", [](const Model& a, int t) {
         return Avg(a, BaseConfig(t), kE, 0.6);
       }},
      {"AvgCentral", "6b4caeaf70369abf", [](const Model& a, int t) {
         return Avg(a, With(BaseConfig(t), Central), kE, 0.6);
       }},
      {"AvgSecureAggregation", "d848e1e31bc97251",
       [](const Model& a, int t) {
         return Avg(a, With(BaseConfig(t), Secure), kE);
       }},
      {"AvgAsyncBarrier", "caf7f51b04b5165b", [](const Model& a, int t) {
         return Avg(a, With(BaseConfig(t), AsyncBarrier), kE, 0.6);
       }},
      {"Sgd", "046b27daa3c04b61", [](const Model& a, int t) {
         return Sgd(a, BaseConfig(t), kU);
       }},
      {"SgdW", "7fda037458304f8b", [](const Model& a, int t) {
         return Sgd(a, BaseConfig(t), kE);
       }},
      {"SgdQ06", "60369d920f0cd014", [](const Model& a, int t) {
         return Sgd(a, BaseConfig(t), kU, 0.6);
       }},
      {"SgdWQ06", "f433155780dc3835", [](const Model& a, int t) {
         return Sgd(a, BaseConfig(t), kE, 0.6);
       }},
      {"SgdCentral", "351b148cf692b62e", [](const Model& a, int t) {
         return Sgd(a, With(BaseConfig(t), Central), kE, 0.6);
       }},
      {"SgdAsyncBarrier", "f433155780dc3835", [](const Model& a, int t) {
         return Sgd(a, With(BaseConfig(t), AsyncBarrier), kE, 0.6);
       }},
      {"AvgWPrivate", "e63dbf2ceb02b85c", [](const Model& a, int t) {
         return Private(a, t, 1.0);
       }},
      {"AvgWPrivateQ06", "33ed629f39cf656c", [](const Model& a, int t) {
         return Private(a, t, 0.6);
       }},
  };
  return cases;
}

std::string DigestOf(const Vec& v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(net::WireDigest(
                    reinterpret_cast<const uint8_t*>(v.data()),
                    v.size() * sizeof(double))));
  return buf;
}

void PrintTo(const GoldenCase& golden, std::ostream* os) {
  *os << golden.name;
}

class TrainerGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(TrainerGoldenTest, FinalParamsMatchRecordedDigest) {
  const GoldenCase& golden = GetParam();
  auto arch = MakeMlp({30}, 2);
  for (int threads : {1, 4}) {
    auto model = arch->Clone();
    Rng init(5);
    model->InitParams(init);
    Vec global = model->GetParams();
    Trained t = golden.make(*arch, threads);
    for (int r = 0; r < kRounds; ++r) {
      ASSERT_TRUE(t.trainer->RunRound(r, global).ok()) << "round " << r;
    }
    EXPECT_EQ(DigestOf(global), golden.digest)
        << golden.name << " (" << t.trainer->name() << ") at " << threads
        << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTrainers, TrainerGoldenTest, ::testing::ValuesIn(Cases()),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace uldp
