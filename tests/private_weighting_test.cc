#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>

#include "core/experiment.h"
#include "core/mask_tags.h"
#include "core/private_weighting.h"
#include "core/uldp_avg.h"
#include "crypto/oblivious_transfer.h"
#include "data/allocation.h"
#include "data/synthetic.h"
#include "dp/accountant.h"
#include "math/fixed_base.h"
#include "math/montgomery.h"
#include "net/messages.h"
#include "net/protocol_node.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace uldp {
namespace {

struct ProtoInputs {
  std::vector<std::vector<int>> histograms;       // [silo][user]
  std::vector<std::vector<Vec>> deltas;           // [silo][user]
  std::vector<Vec> noise;                         // [silo]
  std::vector<int> totals;                        // N_u
};

ProtoInputs MakeInputs(int silos, int users, int dim, uint64_t seed) {
  Rng rng(seed);
  ProtoInputs in;
  in.histograms.assign(silos, std::vector<int>(users, 0));
  in.deltas.assign(silos, std::vector<Vec>(users));
  in.noise.assign(silos, Vec(dim, 0.0));
  in.totals.assign(users, 0);
  for (int s = 0; s < silos; ++s) {
    for (int u = 0; u < users; ++u) {
      in.histograms[s][u] = static_cast<int>(rng.UniformInt(5));  // 0..4
      in.totals[u] += in.histograms[s][u];
      if (in.histograms[s][u] > 0) {
        in.deltas[s][u].resize(dim);
        for (double& v : in.deltas[s][u]) v = rng.Gaussian(0.0, 1.0);
      }
    }
    for (double& v : in.noise[s]) v = rng.Gaussian(0.0, 0.3);
  }
  return in;
}

Vec PlaintextReference(const ProtoInputs& in, const std::vector<bool>& mask,
                       int dim) {
  Vec out(dim, 0.0);
  int silos = static_cast<int>(in.histograms.size());
  int users = static_cast<int>(in.histograms[0].size());
  for (int s = 0; s < silos; ++s) {
    for (int u = 0; u < users; ++u) {
      if (in.histograms[s][u] == 0 || in.totals[u] == 0 || !mask[u]) continue;
      double w = static_cast<double>(in.histograms[s][u]) / in.totals[u];
      for (int d = 0; d < dim; ++d) out[d] += w * in.deltas[s][u][d];
    }
    for (int d = 0; d < dim; ++d) out[d] += in.noise[s][d];
  }
  return out;
}

// The hidden OT sample of `round`, read from a one-hot round: every user
// holds one record at every silo and sends delta e_u with zero noise, so
// aggregate coordinate u reads 1 if u was sampled and 0 otherwise. The
// sample depends only on the seed, the OT settings and the round, never
// on the inputs, so it also holds for a run with real deltas.
std::vector<bool> OtSampleReadout(const ProtocolConfig& config, int silos,
                                  int users, uint64_t round) {
  PrivateWeightingProtocol protocol(config, silos, users);
  EXPECT_TRUE(
      protocol.Setup(std::vector<std::vector<int>>(silos,
                                                   std::vector<int>(users, 1)))
          .ok());
  std::vector<std::vector<Vec>> one_hot(silos,
                                        std::vector<Vec>(users, Vec(users)));
  for (auto& silo : one_hot) {
    for (int u = 0; u < users; ++u) silo[u][u] = 1.0;
  }
  auto out = protocol.WeightingRound(round, one_hot,
                                     std::vector<Vec>(silos, Vec(users)),
                                     std::vector<bool>(users, true));
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  std::vector<bool> sampled(users, false);
  if (!out.ok()) return sampled;
  for (int u = 0; u < users; ++u) {
    sampled[u] = out.value()[u] > 0.5;
    EXPECT_NEAR(out.value()[u], sampled[u] ? 1.0 : 0.0, 1e-9) << "user " << u;
  }
  return sampled;
}

class ProtocolShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ProtocolShapeSweep, MatchesPlaintextReference) {
  auto [silos, users] = GetParam();
  const int dim = 4;
  ProtocolConfig config;
  config.paillier_bits = 512;
  config.n_max = 40;
  config.seed = 100 + silos * 10 + users;
  PrivateWeightingProtocol protocol(config, silos, users);
  auto in = MakeInputs(silos, users, dim, 200 + silos + users);
  ASSERT_TRUE(protocol.Setup(in.histograms).ok());
  std::vector<bool> mask(users, true);
  auto out = protocol.WeightingRound(0, in.deltas, in.noise, mask);
  ASSERT_TRUE(out.ok());
  Vec expect = PlaintextReference(in, mask, dim);
  // Theorem 4: |Delta - Delta_sec|_inf below the fixed-point precision
  // scale (P = 1e-10, a handful of quantized terms per coordinate).
  for (int d = 0; d < dim; ++d) {
    EXPECT_NEAR(out.value()[d], expect[d], 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ProtocolShapeSweep,
                         ::testing::Combine(::testing::Values(2, 3, 5),
                                            ::testing::Values(1, 4, 9)));

class ProtocolFixture : public ::testing::Test {
 protected:
  static constexpr int kSilos = 3;
  static constexpr int kUsers = 6;
  static constexpr int kDim = 3;

  ProtocolFixture() {
    config_.paillier_bits = 512;
    config_.n_max = 30;
    config_.seed = 77;
    protocol_ = std::make_unique<PrivateWeightingProtocol>(config_, kSilos,
                                                           kUsers);
    in_ = MakeInputs(kSilos, kUsers, kDim, 55);
  }

  ProtocolConfig config_;
  std::unique_ptr<PrivateWeightingProtocol> protocol_;
  ProtoInputs in_;
};

// Every frame one party received, decoded as it arrived.
class ReceivedFrames : public net::TranscriptSink {
 public:
  void RecordFrame(uint32_t /*peer_id*/, bool sent, const uint8_t* data,
                   size_t size) override {
    if (sent) return;
    auto frame = net::DecodeFrame(std::vector<uint8_t>(data, data + size));
    EXPECT_TRUE(frame.ok()) << frame.status().ToString();
    std::lock_guard<std::mutex> lock(mu_);
    if (frame.ok()) frames_.push_back(std::move(frame.value()));
  }

  /// Every received frame of Msg's type, in arrival order.
  template <typename Msg>
  std::vector<Msg> All() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Msg> out;
    for (const net::Frame& frame : frames_) {
      if (frame.type != static_cast<uint16_t>(Msg::kType)) continue;
      auto msg = net::FromFrame<Msg>(frame);
      EXPECT_TRUE(msg.ok()) << msg.status().ToString();
      if (msg.ok()) out.push_back(std::move(msg.value()));
    }
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::vector<net::Frame> frames_;
};

// Runs `in` for `rounds` rounds as a distributed cohort over
// ChannelTransport: a ProtocolServer plus one SiloClient thread per silo.
// Returns what each party received: [0] the server, [1 + s] silo s.
std::vector<std::shared_ptr<ReceivedFrames>> RunCohort(
    const ProtocolConfig& config, const ProtoInputs& in, int rounds) {
  const int silos = static_cast<int>(in.histograms.size());
  const int users = static_cast<int>(in.histograms[0].size());
  std::vector<std::shared_ptr<ReceivedFrames>> received;
  for (int p = 0; p <= silos; ++p) {
    received.push_back(std::make_shared<ReceivedFrames>());
  }
  std::vector<std::unique_ptr<net::Transport>> server_ends, silo_ends;
  for (int s = 0; s < silos; ++s) {
    auto [a, b] = net::ChannelTransport::CreatePair();
    a->BindTranscript(received[0], static_cast<uint32_t>(s));
    b->BindTranscript(received[1 + s], 0);
    server_ends.push_back(std::move(a));
    silo_ends.push_back(std::move(b));
  }
  std::vector<std::thread> threads;
  std::vector<Status> silo_status(silos, Status::Ok());
  for (int s = 0; s < silos; ++s) {
    threads.emplace_back([&, s] {
      net::SiloClient client(config, s, silos, users, in.histograms[s]);
      silo_status[s] = client.Run(
          *silo_ends[s], [&](uint64_t, std::vector<Vec>* deltas, Vec* noise) {
            *deltas = in.deltas[s];
            *noise = in.noise[s];
            return Status::Ok();
          });
    });
  }
  {
    net::ProtocolServer server(config, silos, users);
    for (auto& end : server_ends) {
      EXPECT_TRUE(server.AddConnection(std::move(end)).ok());
    }
    EXPECT_TRUE(server.RunSetup().ok());
    for (int r = 0; r < rounds; ++r) {
      auto out = server.RunRound(static_cast<uint64_t>(r),
                                 std::vector<bool>(users, true));
      EXPECT_TRUE(out.ok()) << out.status().ToString();
    }
    EXPECT_TRUE(server.Shutdown().ok());
    for (auto& t : threads) t.join();
  }
  for (int s = 0; s < silos; ++s) {
    EXPECT_TRUE(silo_status[s].ok()) << "silo " << s << ": "
                                     << silo_status[s].ToString();
  }
  return received;
}

TEST_F(ProtocolFixture, SubsamplingZeroesUnsampledUsers) {
  config_.sample_rate = 0.5;  // the rounds sample users
  protocol_ =
      std::make_unique<PrivateWeightingProtocol>(config_, kSilos, kUsers);
  ASSERT_TRUE(protocol_->Setup(in_.histograms).ok());
  std::vector<bool> mask(kUsers, true);
  mask[1] = false;
  mask[4] = false;
  auto out = protocol_->WeightingRound(3, in_.deltas, in_.noise, mask);
  ASSERT_TRUE(out.ok());
  Vec expect = PlaintextReference(in_, mask, kDim);
  for (int d = 0; d < kDim; ++d) EXPECT_NEAR(out.value()[d], expect[d], 1e-7);
}

TEST_F(ProtocolFixture, RoundsAreRepeatableAndIndependent) {
  ASSERT_TRUE(protocol_->Setup(in_.histograms).ok());
  std::vector<bool> mask(kUsers, true);
  auto out1 = protocol_->WeightingRound(0, in_.deltas, in_.noise, mask);
  auto out2 = protocol_->WeightingRound(1, in_.deltas, in_.noise, mask);
  ASSERT_TRUE(out1.ok());
  ASSERT_TRUE(out2.ok());
  for (int d = 0; d < kDim; ++d) {
    EXPECT_NEAR(out1.value()[d], out2.value()[d], 1e-7);
  }
}

// What the server receives in setup: one doubly blinded histogram per
// silo. Its values and its per-user sums mod n (the blinded totals
// r_u * N_u the server inverts) are random field elements, never the raw
// counts (a blinded value as small as a count has negligible probability
// and would be a blinding failure).
TEST_F(ProtocolFixture, ServerReceivesOnlyBlindedHistograms) {
  const auto received = RunCohort(config_, in_, 0);
  const auto params = received[1]->All<net::SetupParamsMsg>();
  ASSERT_EQ(params.size(), 1u);
  const BigInt& n = params[0].paillier_n;
  const auto histograms = received[0]->All<net::BlindedHistogramMsg>();
  ASSERT_EQ(histograms.size(), static_cast<size_t>(kSilos));
  std::vector<BigInt> totals(kUsers, BigInt(0));
  for (const net::BlindedHistogramMsg& h : histograms) {
    ASSERT_LT(h.silo_id, static_cast<uint32_t>(kSilos));
    ASSERT_EQ(h.values.size(), static_cast<size_t>(kUsers));
    for (int u = 0; u < kUsers; ++u) {
      EXPECT_NE(h.values[u],
                BigInt(static_cast<int64_t>(in_.histograms[h.silo_id][u])));
      EXPECT_GT(h.values[u].BitLength(), 64);
      EXPECT_TRUE(h.values[u] < n);
      totals[u] = totals[u].ModAdd(h.values[u], n);
    }
  }
  for (int u = 0; u < kUsers; ++u) {
    if (in_.totals[u] == 0) {
      EXPECT_TRUE(totals[u].IsZero());  // r_u * 0: the masks cancelled
      continue;
    }
    EXPECT_NE(totals[u], BigInt(static_cast<int64_t>(in_.totals[u])));
    EXPECT_GT(totals[u].BitLength(), 64);
  }
}

// What a silo receives in a round: one encrypted weight per user, each a
// field-sized element of Z_{n^2}, never a small plaintext.
TEST_F(ProtocolFixture, SilosReceiveOnlyCiphertexts) {
  const auto received = RunCohort(config_, in_, 1);
  for (int s = 0; s < kSilos; ++s) {
    const auto params = received[1 + s]->All<net::SetupParamsMsg>();
    ASSERT_EQ(params.size(), 1u);
    const BigInt n2 = params[0].paillier_n * params[0].paillier_n;
    const auto begins = received[1 + s]->All<net::RoundBeginMsg>();
    ASSERT_EQ(begins.size(), 1u) << "silo " << s;
    ASSERT_EQ(begins[0].enc_weights.size(), static_cast<size_t>(kUsers));
    for (const BigInt& c : begins[0].enc_weights) {
      EXPECT_TRUE(c < n2);
      EXPECT_GT(c.BitLength(), 128);  // semantically secure blob, not tiny
    }
  }
}

TEST_F(ProtocolFixture, TimingsArePopulated) {
  ASSERT_TRUE(protocol_->Setup(in_.histograms).ok());
  std::vector<bool> mask(kUsers, true);
  ASSERT_TRUE(
      protocol_->WeightingRound(0, in_.deltas, in_.noise, mask).ok());
  const auto& t = protocol_->timings();
  EXPECT_GT(t.key_exchange_s, 0.0);
  EXPECT_GT(t.histogram_s, 0.0);
  EXPECT_GT(t.encrypt_weights_s, 0.0);
  EXPECT_GT(t.silo_weighting_s, 0.0);
  EXPECT_GT(t.aggregation_s, 0.0);
  EXPECT_GT(t.decryption_s, 0.0);
}

TEST_F(ProtocolFixture, FailureInjection) {
  // Round before setup.
  std::vector<bool> mask(kUsers, true);
  EXPECT_FALSE(
      protocol_->WeightingRound(0, in_.deltas, in_.noise, mask).ok());
  // Histogram shape mismatches.
  EXPECT_FALSE(protocol_->Setup({{1, 2}}).ok());
  std::vector<std::vector<int>> ragged(kSilos, std::vector<int>(kUsers, 1));
  ragged[1].pop_back();
  EXPECT_FALSE(protocol_->Setup(ragged).ok());
  // Negative count.
  auto negative = in_.histograms;
  negative[0][0] = -1;
  EXPECT_FALSE(protocol_->Setup(negative).ok());
  // N_u above N_max.
  auto too_many = in_.histograms;
  too_many[0][0] = 1000;
  EXPECT_FALSE(protocol_->Setup(too_many).ok());
  // Valid setup, then malformed round inputs.
  ASSERT_TRUE(protocol_->Setup(in_.histograms).ok());
  EXPECT_FALSE(protocol_->WeightingRound(0, {}, in_.noise, mask).ok());
  auto bad_mask = mask;
  bad_mask.pop_back();
  EXPECT_FALSE(
      protocol_->WeightingRound(0, in_.deltas, in_.noise, bad_mask).ok());
  auto ragged_delta = in_.deltas;
  for (auto& row : ragged_delta) {
    for (auto& d : row) {
      if (!d.empty()) {
        d.pop_back();
        goto done;
      }
    }
  }
done:
  EXPECT_FALSE(
      protocol_->WeightingRound(0, ragged_delta, in_.noise, mask).ok());
}

TEST(ProtocolEdgeTest, SingleUserAllMassInOneSilo) {
  // Degenerate but legal: one user, records in one silo only. The weight
  // must come out exactly 1 and the result equal delta + total noise.
  ProtocolConfig config;
  config.paillier_bits = 512;
  config.n_max = 10;
  config.seed = 91;
  PrivateWeightingProtocol protocol(config, 2, 1);
  ASSERT_TRUE(protocol.Setup({{4}, {0}}).ok());
  std::vector<std::vector<Vec>> deltas(2, std::vector<Vec>(1));
  deltas[0][0] = {0.5, -1.25};
  std::vector<Vec> noise(2, Vec(2, 0.0));
  noise[0] = {0.1, 0.0};
  noise[1] = {0.0, -0.2};
  auto out = protocol.WeightingRound(0, deltas, noise, {true});
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(out.value()[0], 0.6, 1e-8);
  EXPECT_NEAR(out.value()[1], -1.45, 1e-8);
}

TEST(ProtocolEdgeTest, AllUsersUnsampledYieldsNoiseOnly) {
  ProtocolConfig config;
  config.paillier_bits = 512;
  config.n_max = 10;
  config.seed = 92;
  config.sample_rate = 0.5;  // the round samples users
  PrivateWeightingProtocol protocol(config, 2, 2);
  ASSERT_TRUE(protocol.Setup({{2, 1}, {1, 2}}).ok());
  std::vector<std::vector<Vec>> deltas(2, std::vector<Vec>(2, Vec{3.0}));
  std::vector<Vec> noise(2, Vec{0.25});
  auto out = protocol.WeightingRound(0, deltas, noise, {false, false});
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(out.value()[0], 0.5, 1e-8);  // just the two noise shares
}

TEST(ProtocolThreadInvarianceTest, RoundBitwiseIdenticalAt125Threads) {
  // Fixed-base tables, the flattened mask sweep, the session powers and
  // the randomizer pipeline all run on the pool; the round output must
  // not depend on the thread count. At q = 0.5 the round samples users;
  // a full-participation session (q = 1) weights them all.
  const int silos = 3, users = 6, dim = 5;
  auto in = MakeInputs(silos, users, dim, 61);
  for (double q : {0.5, 1.0}) {
    std::vector<bool> mask(users, true);
    if (q < 1.0) mask[2] = false;
    Vec ref;
    for (int threads : {1, 2, 5}) {
      ProtocolConfig config;
      config.paillier_bits = 512;
      config.n_max = 30;
      config.seed = 2024;
      config.sample_rate = q;
      config.num_threads = threads;
      PrivateWeightingProtocol protocol(config, silos, users);
      ASSERT_TRUE(protocol.Setup(in.histograms).ok());
      auto out = protocol.WeightingRound(1, in.deltas, in.noise, mask);
      ASSERT_TRUE(out.ok());
      if (threads == 1) {
        ref = std::move(out.value());
      } else {
        EXPECT_EQ(out.value(), ref) << "thread count " << threads << ", q "
                                    << q;
      }
    }
  }
}

TEST(ProtocolThreadInvarianceTest, OtModeBitwiseIdenticalAt125Threads) {
  // OT mode adds the flat (user × slot) sweeps — slot elements, payload
  // encryption, sender pads — each on its own Fork substream; outputs and
  // the hidden sampling mask must be schedule-independent.
  const int silos = 2, users = 4, dim = 3;
  auto in = MakeInputs(silos, users, dim, 73);
  std::vector<bool> ignored(users, true);
  Vec ref;
  std::vector<bool> ref_mask;
  for (int threads : {1, 2, 5}) {
    ProtocolConfig config;
    config.paillier_bits = 512;
    config.n_max = 30;
    config.seed = 3456;
    config.ot_slots = 4;
    config.sample_rate = 0.5;
    config.ot_group_bits = 192;
    config.num_threads = threads;
    PrivateWeightingProtocol protocol(config, silos, users);
    ASSERT_TRUE(protocol.Setup(in.histograms).ok());
    auto out = protocol.WeightingRound(0, in.deltas, in.noise, ignored);
    ASSERT_TRUE(out.ok());
    const std::vector<bool> sampled = OtSampleReadout(config, silos, users, 0);
    if (threads == 1) {
      ref = std::move(out.value());
      ref_mask = sampled;
      Vec expect = PlaintextReference(in, ref_mask, dim);
      for (int d = 0; d < dim; ++d) EXPECT_NEAR(ref[d], expect[d], 1e-7);
    } else {
      EXPECT_EQ(out.value(), ref) << "thread count " << threads;
      EXPECT_EQ(sampled, ref_mask) << "thread count " << threads;
    }
  }
}

TEST(ProtocolOverflowTest, Theorem4ConditionEnforced) {
  // Small modulus + large N_max: C_LCM alone dwarfs n/2 and Setup must
  // refuse (Theorem 4 condition (2)).
  ProtocolConfig config;
  config.paillier_bits = 128;
  config.n_max = 100;  // C_LCM(100) has ~140 bits >> 128-bit modulus
  PrivateWeightingProtocol protocol(config, 2, 2);
  auto status = protocol.Setup({{1, 1}, {1, 1}});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(ProtocolOtTest, PrivateSubsamplingHonorsHiddenMask) {
  ProtocolConfig config;
  config.paillier_bits = 512;
  config.n_max = 30;
  config.seed = 13;
  config.ot_slots = 4;
  config.sample_rate = 0.5;  // 2 of 4 slots real
  config.ot_group_bits = 192;
  const int silos = 2, users = 5, dim = 3;
  PrivateWeightingProtocol protocol(config, silos, users);
  auto in = MakeInputs(silos, users, dim, 31);
  ASSERT_TRUE(protocol.Setup(in.histograms).ok());
  std::vector<bool> ignored(users, true);
  auto out = protocol.WeightingRound(0, in.deltas, in.noise, ignored);
  ASSERT_TRUE(out.ok());
  const std::vector<bool> mask = OtSampleReadout(config, silos, users, 0);
  // Rate 0.5 over 5 users: a sample of none or all would test nothing.
  EXPECT_NE(std::count(mask.begin(), mask.end(), true), 0);
  EXPECT_NE(std::count(mask.begin(), mask.end(), true), users);
  Vec expect = PlaintextReference(in, mask, dim);
  for (int d = 0; d < dim; ++d) EXPECT_NEAR(out.value()[d], expect[d], 1e-7);
}

// The server's per-user OT element A, or the slot element C_sigma the
// receiver commits to, arrives off the wire with a sign byte and any
// length. Outside (1, p - 1) it fails the silo's OT step with
// InvalidArgument, where the distributed silo ends its run, instead of
// aborting in the Montgomery context.
TEST(ProtocolOtTest, HostileSenderElementsFailTheSiloStep) {
  Rng rng(41);
  ProtocolParams params;
  params.config.paillier_bits = 512;
  params.config.n_max = 30;
  params.config.ot_slots = 4;
  params.config.ot_group_bits = 192;
  params.num_silos = 2;
  params.num_users = 3;
  PaillierSecretKey sk;
  ASSERT_TRUE(
      Paillier::GenerateKeyPair(512, rng, &params.public_key, &sk).ok());
  params.ot_group = DhGroup::GenerateSafePrimeGroup(192, rng);
  ASSERT_TRUE(params.Derive().ok());
  SiloCore silo(params, 0, std::vector<int>(3, 1));
  silo.SetSharedSeed(BigInt::RandomBits(256, rng));
  const ObliviousTransfer ot(params.ot_group, 4);
  std::vector<OtSenderPublic> honest;
  for (int u = 0; u < 3; ++u) {
    std::vector<BigInt> c;
    for (int slot = 0; slot < 4; ++slot) c.push_back(ot.SampleSlotElement(rng));
    honest.push_back({c, ot.SenderElement(ot.SampleSenderSecret(rng))});
  }
  const std::vector<std::vector<std::vector<uint8_t>>> slots(
      3, std::vector<std::vector<uint8_t>>(4, std::vector<uint8_t>(8, 0)));
  ThreadPool pool(2);
  for (const BigInt& bad : {BigInt(-5), BigInt(1) << 5000}) {
    std::vector<OtSenderPublic> senders = honest;
    senders[1].a = bad;
    ASSERT_TRUE(silo.OtReceiverChoose(1, senders, pool).ok());
    EXPECT_EQ(silo.OtReceiverDecrypt(1, senders, slots, pool).status().code(),
              StatusCode::kInvalidArgument)
        << "A = " << bad.ToHex().substr(0, 8);
    senders = honest;
    for (BigInt& c : senders[1].c) c = bad;
    EXPECT_EQ(silo.OtReceiverChoose(2, senders, pool).status().code(),
              StatusCode::kInvalidArgument)
        << "C = " << bad.ToHex().substr(0, 8);
  }
}

TEST(ProtocolChunkTest, ChunkSizeNeverChangesABit) {
  // One chunk sweep serves every round shape: 128-user chunks when
  // streaming is off, stream_chunk_users otherwise. 131 users make the
  // unstreamed sweep span two chunks and the streamed ones end on a
  // partial tail; the aggregate must not move by a single bit, whether
  // the round samples users (q = 0.5) or the session weights them all
  // (q = 1).
  const int silos = 2, users = 131, dim = 2;
  auto in = MakeInputs(silos, users, dim, 176);
  for (double q : {0.5, 1.0}) {
    std::vector<bool> mask(users, true);
    if (q < 1.0) mask[5] = false;
    Vec ref;
    for (int chunk : {0, 7, 64, users}) {
      ProtocolConfig config;
      config.paillier_bits = 512;
      config.n_max = 30;
      config.seed = 912;
      config.sample_rate = q;
      config.stream_chunk_users = chunk;
      PrivateWeightingProtocol protocol(config, silos, users);
      ASSERT_TRUE(protocol.Setup(in.histograms).ok());
      auto out = protocol.WeightingRound(0, in.deltas, in.noise, mask);
      ASSERT_TRUE(out.ok()) << "chunk " << chunk << ", q " << q;
      if (chunk == 0) {
        ref = std::move(out.value());
        Vec expect = PlaintextReference(in, mask, dim);
        for (int d = 0; d < dim; ++d) EXPECT_NEAR(ref[d], expect[d], 1e-7);
      } else {
        EXPECT_EQ(out.value(), ref) << "chunk " << chunk << ", q " << q;
      }
    }
  }
}

// Packing-feasible configuration: at 512-bit keys the slot width is driven
// by C_LCM(n_max) and pack_clip/precision, and n_max=8 / 1e-6 / clip 8
// leaves room for all of k in {2, 4, 8}.
ProtocolConfig PackedTestConfig(int pack_slots) {
  ProtocolConfig config;
  config.paillier_bits = 512;
  config.n_max = 8;
  config.precision = 1e-6;
  config.pack_clip = 8.0;
  config.pack_slots = pack_slots;
  config.seed = 909;
  return config;
}

// --- The party cores, driven by direct calls ---------------------------------

// A server core and its silo cores, set up the way the drivers set them
// up. Nothing checks N_u <= N_max here: only each silo's own
// n_su <= N_max refusal runs, as in a distributed cohort.
struct CoreCohort {
  CoreCohort(const ProtocolConfig& config,
             const std::vector<std::vector<int>>& histograms)
      : server(config, static_cast<int>(histograms.size()),
               static_cast<int>(histograms[0].size())) {
    EXPECT_TRUE(server.GenerateKeys(pool).ok());
    std::vector<BigInt> directory;
    for (size_t s = 0; s < histograms.size(); ++s) {
      silos.push_back(std::make_unique<SiloCore>(
          server.params(), static_cast<int>(s), histograms[s]));
      directory.push_back(silos.back()->dh_key().public_key);
    }
    const BigInt seed = silos[0]->MakeSharedSeed();
    for (auto& silo : silos) {
      EXPECT_TRUE(silo->ComputePairKeys(directory).ok());
      silo->SetSharedSeed(seed);
    }
    for (size_t s = 0; s < silos.size(); ++s) {
      auto blinded = silos[s]->BlindHistogram(pool);
      EXPECT_TRUE(blinded.ok()) << blinded.status().ToString();
      if (!blinded.ok()) return;
      EXPECT_TRUE(server
                      .AbsorbBlindedHistogram(static_cast<int>(s),
                                              std::move(blinded.value()))
                      .ok());
    }
    EXPECT_TRUE(server.FinalizeSetup().ok());
  }

  /// Each silo's masked cipher for one round without OT, every user
  /// sampled.
  std::vector<std::vector<BigInt>> SiloCiphers(
      uint64_t round, const std::vector<std::vector<Vec>>& deltas,
      const std::vector<Vec>& noise) {
    const size_t dim = noise[0].size();
    const int users = server.params().num_users;
    auto enc = server.EncryptWeights(round, std::vector<bool>(users, true),
                                     pool);
    EXPECT_TRUE(enc.ok());
    std::vector<std::vector<BigInt>> ciphers;
    for (size_t s = 0; s < silos.size(); ++s) {
      ciphers.push_back(SiloCore::NewCipherAccumulator(
          server.params().packed.PackedDim(dim)));
      EXPECT_TRUE(silos[s]
                      ->FoldUsers(0, users, enc.value(), deltas[s], dim,
                                  &ciphers.back(), pool)
                      .ok());
      EXPECT_TRUE(
          silos[s]->FinishRound(round, noise[s], &ciphers.back(), pool).ok());
    }
    return ciphers;
  }

  /// The server's side of the round: fold every cipher, then decrypt.
  Result<Vec> Aggregate(const std::vector<std::vector<BigInt>>& ciphers,
                        size_t dim) {
    std::vector<BigInt> product =
        SiloCore::NewCipherAccumulator(ciphers[0].size());
    for (const auto& cipher : ciphers) {
      ULDP_RETURN_IF_ERROR(server.AccumulateSiloCipher(cipher, &product));
    }
    return server.DecryptAggregate(product, pool, dim);
  }

  ThreadPool pool{2};
  ServerCore server;
  std::vector<std::unique_ptr<SiloCore>> silos;
};

ProtocolConfig CoreTestConfig() {
  ProtocolConfig config;
  config.paillier_bits = 512;
  config.n_max = 30;
  config.seed = 515;
  return config;
}

// The server adds each silo's histogram into its running sums on arrival,
// so a second histogram from one silo would count that silo twice. It is
// refused and adds nothing: the weights afterwards equal a run that never
// saw it.
TEST(ServerCoreTest, SecondHistogramFromOneSiloIsRefused) {
  const std::vector<std::vector<int>> hist = {{1, 2, 0}, {3, 0, 4}};
  CoreCohort cohort(CoreTestConfig(), hist);
  ServerCore server(CoreTestConfig(), 2, 3);
  ASSERT_TRUE(server.GenerateKeys(cohort.pool).ok());
  std::vector<std::vector<BigInt>> blinded;
  for (auto& silo : cohort.silos) {
    blinded.push_back(silo->BlindHistogram(cohort.pool).value());
  }
  ASSERT_TRUE(server.AbsorbBlindedHistogram(0, blinded[0]).ok());
  const Status again = server.AbsorbBlindedHistogram(0, blinded[0]);
  EXPECT_EQ(again.code(), StatusCode::kInvalidArgument) << again.ToString();
  EXPECT_EQ(server.FinalizeSetup().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(server.AbsorbBlindedHistogram(1, blinded[1]).ok());
  ASSERT_TRUE(server.FinalizeSetup().ok());
  EXPECT_EQ(server.FinalizeSetup().code(), StatusCode::kFailedPrecondition);
  const std::vector<bool> all(3, true);
  EXPECT_EQ(server.EncryptWeights(4, all, cohort.pool).value(),
            cohort.server.EncryptWeights(4, all, cohort.pool).value());
}

// Mod-n sums do not depend on the order the histograms arrive in: a
// server that absorbs them in reverse encrypts bitwise-equal weights.
TEST(ServerCoreTest, AbsorbOrderNeverChangesAWeight) {
  const std::vector<std::vector<int>> hist = {
      {1, 2, 0, 3}, {3, 0, 4, 1}, {0, 2, 2, 2}};
  CoreCohort cohort(CoreTestConfig(), hist);
  ServerCore reversed(CoreTestConfig(), 3, 4);
  ASSERT_TRUE(reversed.GenerateKeys(cohort.pool).ok());
  for (int s = 2; s >= 0; --s) {
    ASSERT_TRUE(reversed
                    .AbsorbBlindedHistogram(
                        s, cohort.silos[s]->BlindHistogram(cohort.pool).value())
                    .ok());
  }
  ASSERT_TRUE(reversed.FinalizeSetup().ok());
  const std::vector<bool> all(4, true);
  EXPECT_EQ(reversed.EncryptWeights(2, all, cohort.pool).value(),
            cohort.server.EncryptWeights(2, all, cohort.pool).value());
}

// A full-participation session (q = 1, no OT) encrypts each user's weight
// once: every round, and every chunking of a round, yields the same
// ciphertexts. At q < 1 every round encrypts afresh.
TEST(ServerCoreTest, WeightCiphertextsRepeatOnlyInAFullParticipationSession) {
  const std::vector<std::vector<int>> hist = {{1, 2, 0, 3, 1},
                                              {3, 0, 4, 1, 2}};
  const int users = 5;
  const std::vector<bool> all(users, true);
  for (double q : {0.5, 1.0}) {
    ProtocolConfig config = CoreTestConfig();
    config.sample_rate = q;
    CoreCohort cohort(config, hist);
    std::vector<std::vector<BigInt>> rounds;
    for (uint64_t r = 0; r < 3; ++r) {
      rounds.push_back(cohort.server.EncryptWeights(r, all, cohort.pool).value());
      for (int chunk : {1, 2, 3}) {
        std::vector<BigInt> joined;
        for (int u0 = 0; u0 < users; u0 += chunk) {
          auto part = cohort.server.EncryptWeightsRange(
              r, all, u0, std::min(users, u0 + chunk), cohort.pool);
          ASSERT_TRUE(part.ok()) << part.status().ToString();
          joined.insert(joined.end(), part.value().begin(), part.value().end());
        }
        EXPECT_EQ(joined, rounds.back()) << "q " << q << ", chunk " << chunk;
      }
    }
    for (size_t r = 1; r < rounds.size(); ++r) {
      for (int u = 0; u < users; ++u) {
        if (q == 1.0) {
          EXPECT_EQ(rounds[r][u], rounds[0][u]) << "round " << r << " user " << u;
        } else {
          EXPECT_NE(rounds[r][u], rounds[0][u]) << "round " << r << " user " << u;
        }
      }
    }
  }
}

// At q = 1 a repeated ciphertext is safe only because every user is in
// every round, so a mask that drops a user is refused, by the server core
// over any user range and by the in-process round.
TEST(ServerCoreTest, FullParticipationRefusesAPartialMask) {
  const std::vector<std::vector<int>> hist = {{1, 2, 0, 3}, {3, 0, 4, 1}};
  CoreCohort cohort(CoreTestConfig(), hist);
  std::vector<bool> partial(4, true);
  partial[1] = false;
  EXPECT_EQ(cohort.server.EncryptWeights(0, partial, cohort.pool).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(cohort.server.EncryptWeightsRange(0, partial, 2, 4, cohort.pool)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  ProtoInputs in = MakeInputs(2, 4, 3, 650);
  PrivateWeightingProtocol protocol(CoreTestConfig(), 2, 4);
  ASSERT_TRUE(protocol.Setup(in.histograms).ok());
  const Status round =
      protocol.WeightingRound(0, in.deltas, in.noise, partial).status();
  EXPECT_EQ(round.code(), StatusCode::kInvalidArgument) << round.ToString();
  EXPECT_NE(round.message().find("full-participation"), std::string::npos);
}

// The OT state of a round answers one message: the sender's secrets and
// shuffles one receiver commitment, the receiver's keys and choices one
// set of slot payloads. A repeated step is refused rather than run under
// the same secrets, which would let a receiver open a second slot.
TEST(ProtocolOtTest, OtStepsAreOneShot) {
  ProtocolConfig config = CoreTestConfig();
  config.ot_slots = 4;
  config.sample_rate = 0.5;
  config.ot_group_bits = 192;
  CoreCohort cohort(config, {{1, 2, 1}, {2, 1, 0}});
  ThreadPool& pool = cohort.pool;
  SiloCore& receiver = *cohort.silos[0];
  auto senders = cohort.server.OtSenderInit(3, pool);
  ASSERT_TRUE(senders.ok());
  auto bs = receiver.OtReceiverChoose(3, senders.value(), pool);
  ASSERT_TRUE(bs.ok());
  auto slots = cohort.server.OtEncryptSlots(3, bs.value(), pool);
  ASSERT_TRUE(slots.ok());
  EXPECT_EQ(cohort.server.OtEncryptSlots(3, bs.value(), pool).status().code(),
            StatusCode::kFailedPrecondition);
  auto weights =
      receiver.OtReceiverDecrypt(3, senders.value(), slots.value(), pool);
  ASSERT_TRUE(weights.ok());
  EXPECT_EQ(receiver.OtReceiverDecrypt(3, senders.value(), slots.value(), pool)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  const BigInt& n2 = cohort.server.params().public_key.n_squared;
  for (const BigInt& c : weights.value()) {
    EXPECT_TRUE(c < n2);
    EXPECT_GT(c.BitLength(), 128);
  }
  // A fresh init and choice run the next round as usual.
  senders = cohort.server.OtSenderInit(4, pool);
  ASSERT_TRUE(senders.ok());
  bs = receiver.OtReceiverChoose(4, senders.value(), pool);
  ASSERT_TRUE(bs.ok());
  slots = cohort.server.OtEncryptSlots(4, bs.value(), pool);
  ASSERT_TRUE(slots.ok());
  EXPECT_TRUE(
      receiver.OtReceiverDecrypt(4, senders.value(), slots.value(), pool).ok());
}

bool BeyondTheHonestBound(const Status& status) {
  return status.code() == StatusCode::kOutOfRange &&
         status.message().find(
             "beyond what an honest round can reach") != std::string::npos;
}

// Protocol 1 decodes exactly only if N_u <= N_max. Here each silo's count
// is within N_max = 4 (so neither silo refuses), but the user's total is
// 3 + 4 = 7, so C_LCM / N_u = 12 / 7 is not integral and the aggregate
// decrypts to a uniform field element. The server refuses it instead of
// decoding about 1e142; within N_max the same round decodes.
TEST(ProtocolDecodeBoundTest, UserAboveNMaxFailsTheDecode) {
  const std::vector<std::vector<Vec>> deltas = {{{0.5, -0.25}}, {{0.125, 1.0}}};
  const std::vector<Vec> noise(2, Vec(2, 0.0));
  for (int slots : {1, 2}) {
    ProtocolConfig config = PackedTestConfig(slots);
    config.n_max = 4;
    CoreCohort over(config, {{3}, {4}});
    auto refused = over.Aggregate(over.SiloCiphers(0, deltas, noise), 2);
    EXPECT_TRUE(BeyondTheHonestBound(refused.status()))
        << "pack_slots " << slots << ": " << refused.status().ToString();

    CoreCohort within(config, {{1}, {3}});
    auto out = within.Aggregate(within.SiloCiphers(0, deltas, noise), 2);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_NEAR(out.value()[0], 0.25 * 0.5 + 0.75 * 0.125, 1e-6);
    EXPECT_NEAR(out.value()[1], 0.25 * -0.25 + 0.75 * 1.0, 1e-6);
  }
}

// A silo that uploads uniform elements of Z_{n^2} instead of its cipher
// makes every coordinate decrypt to a uniform element of Z_n, which lands
// within the honest bound with probability about 2 * bound / n.
TEST(ProtocolDecodeBoundTest, UniformSiloCipherFailsTheDecode) {
  const int users = 3, dim = 5;
  ProtoInputs in = MakeInputs(2, users, dim, 640);
  for (int slots : {1, 2}) {
    ProtocolConfig config = PackedTestConfig(slots);
    CoreCohort cohort(config, in.histograms);
    auto ciphers = cohort.SiloCiphers(1, in.deltas, in.noise);
    auto honest = cohort.Aggregate(ciphers, dim);
    ASSERT_TRUE(honest.ok()) << honest.status().ToString();
    const Vec expect =
        PlaintextReference(in, std::vector<bool>(users, true), dim);
    for (int d = 0; d < dim; ++d) EXPECT_NEAR(honest.value()[d], expect[d], 1e-4);

    Rng rng(641 + slots);
    for (BigInt& c : ciphers[1]) {
      c = BigInt::RandomBelow(cohort.server.params().public_key.n_squared, rng);
    }
    auto refused = cohort.Aggregate(ciphers, dim);
    EXPECT_TRUE(BeyondTheHonestBound(refused.status()))
        << "pack_slots " << slots << ": " << refused.status().ToString();
  }
}

// --- The silo batch fold ----------------------------------------------------

// Silo 0 of two over a fresh 512-bit key and a test-chosen shared seed,
// set up as a real run sets it up (pair keys from the DH directory, then
// BlindHistogram), plus one batch of inputs. User 1 holds no records here
// (histogram 0) and user 3 sent no delta, so both are inactive; every
// other user is active. At sample_rate 1 the silo runs a
// full-participation session and folds over session powers; below 1 it
// folds fresh ciphertexts.
struct FoldBatch {
  ProtocolParams params;
  std::unique_ptr<SiloCore> silo;
  BigInt shared_seed;
  std::vector<BigInt> enc_weights;
  std::vector<Vec> deltas;
  std::vector<int> histogram;
  int active = 0;
};

FoldBatch MakeFoldBatch(int users, int dim, uint64_t seed,
                        double sample_rate = 1.0, int pack_slots = 1) {
  FoldBatch b;
  Rng rng(seed);
  b.params.config.paillier_bits = 512;
  b.params.config.n_max = 30;
  b.params.config.sample_rate = sample_rate;
  b.params.config.pack_slots = pack_slots;
  b.params.num_silos = 2;
  b.params.num_users = users;
  PaillierSecretKey sk;
  EXPECT_TRUE(
      Paillier::GenerateKeyPair(512, rng, &b.params.public_key, &sk).ok());
  EXPECT_TRUE(b.params.Derive().ok());
  PaillierContext ctx(b.params.public_key);
  b.histogram.assign(users, 0);
  b.deltas.assign(users, Vec());
  for (int u = 0; u < users; ++u) {
    b.enc_weights.push_back(
        ctx.Encrypt(BigInt::RandomBelow(b.params.public_key.n, rng), rng)
            .value());
    b.histogram[u] = u == 1 ? 0 : 1 + static_cast<int>(rng.UniformInt(4));
    if (u == 3) continue;
    b.deltas[u].resize(dim);
    for (double& v : b.deltas[u]) v = rng.Gaussian(0.0, 1.0);
    if (b.histogram[u] > 0) ++b.active;
  }
  b.silo = std::make_unique<SiloCore>(b.params, 0, b.histogram);
  const SiloCore peer(b.params, 1, std::vector<int>(users, 0));
  EXPECT_TRUE(b.silo
                  ->ComputePairKeys({b.silo->dh_key().public_key,
                                     peer.dh_key().public_key})
                  .ok());
  b.shared_seed = BigInt::RandomBits(256, rng);
  b.silo->SetSharedSeed(b.shared_seed);
  ThreadPool pool(2);
  EXPECT_TRUE(b.silo->BlindHistogram(pool).ok());
  return b;
}

// User u's fold scalar r_u * n_su * C_LCM mod n, with the blind r_u
// re-derived from the shared seed as every silo derives it.
BigInt FoldScalar(const FoldBatch& b, int u) {
  const BigInt& n = b.params.public_key.n;
  const ChaChaRng::Key key =
      ChaChaRng::DeriveKey("uldp-shared-seed|" + b.shared_seed.ToHex());
  BigInt r;
  for (uint32_t attempt = 0;; ++attempt) {
    ChaChaRng stream(
        key, ChaChaRng::MakeNonce(
                 MakeMaskTag(MaskPhase::kUserBlind, static_cast<uint64_t>(u)),
                 attempt));
    r = stream.UniformBelow(n);
    if (!r.IsZero() && BigInt::Gcd(r, n) == BigInt(1)) break;
  }
  return r.ModMul(BigInt(static_cast<int64_t>(b.histogram[u])), n)
      .ModMul(b.params.c_lcm.Mod(n), n);
}

// The batch fold the slow way: one MulPlaintext per (user, coordinate)
// into a fresh accumulator.
std::vector<BigInt> MulPlaintextReference(const FoldBatch& b, size_t dim) {
  const BigInt& n = b.params.public_key.n;
  PaillierContext ctx(b.params.public_key);
  std::vector<BigInt> cipher = SiloCore::NewCipherAccumulator(dim);
  for (int u = 0; u < b.params.num_users; ++u) {
    if (b.deltas[u].empty() || b.histogram[u] == 0) continue;
    const BigInt base = FoldScalar(b, u);
    for (size_t g = 0; g < dim; ++g) {
      const BigInt scalar =
          b.params.codec.Encode(b.deltas[u][g]).value().ModMul(base, n);
      cipher[g] = ctx.AddCiphertexts(
          cipher[g], ctx.MulPlaintext(b.enc_weights[u], scalar));
    }
  }
  return cipher;
}

uint64_t CounterValue(const std::string& name) {
  for (const auto& m : obs::MetricsRegistry::Global().Snapshot()) {
    if (m.kind == obs::MetricSnapshot::Kind::kCounter && m.name == name) {
      return m.counter_value;
    }
  }
  return 0;
}

TEST(SiloFoldTest, FoldUsersMatchesMulPlaintextOnEachSideOfTheCrossover) {
  // At 512-bit exponents six active users over two coordinates share one
  // Straus chain per coordinate; two active users over twelve coordinates
  // amortize per-user tables instead.
  struct Shape {
    int users;
    int dim;
    FoldPath path;
  };
  ThreadPool pool(3);
  uint64_t seed = 4100;
  for (const Shape& shape : {Shape{8, 2, FoldPath::kStraus},
                             Shape{4, 12, FoldPath::kTables}}) {
    FoldBatch b =
        MakeFoldBatch(shape.users, shape.dim, ++seed, /*sample_rate=*/0.5);
    ASSERT_EQ(ChooseFoldPath(static_cast<size_t>(b.active),
                             static_cast<size_t>(shape.dim), 512),
              shape.path)
        << shape.users << " users x " << shape.dim;
    const uint64_t straus0 = CounterValue("core.fold.straus_batches");
    const uint64_t tables0 = CounterValue("core.fold.table_batches");
    std::vector<BigInt> cipher = SiloCore::NewCipherAccumulator(shape.dim);
    ASSERT_TRUE(b.silo->FoldUsers(0, shape.users, b.enc_weights, b.deltas,
                                  shape.dim, &cipher, pool)
                    .ok());
    EXPECT_EQ(cipher, MulPlaintextReference(b, shape.dim))
        << shape.users << " users x " << shape.dim;
    const bool straus = shape.path == FoldPath::kStraus;
    EXPECT_EQ(CounterValue("core.fold.straus_batches") - straus0,
              straus ? 1u : 0u);
    EXPECT_EQ(CounterValue("core.fold.table_batches") - tables0,
              straus ? 0u : 1u);
  }
}

TEST(SiloFoldTest, AccumulateUsersFoldsNullTableEntriesThroughStraus) {
  // The ledger replay's call: tables built by the caller, some entries
  // null. Users 0, 2, 4, 6 raise through their tables, user 5 joins the
  // Straus chain, and users 1 and 3 are inactive.
  const int users = 7, dim = 3;
  FoldBatch b = MakeFoldBatch(users, dim, 4200);
  WeightTableCache cache;
  cache.BeginRound(users, /*keep=*/false);
  for (int u = 0; u < users; u += 2) {
    ASSERT_NE(cache.Ensure(*b.silo->eval_context(), u, b.enc_weights[u], dim),
              nullptr);
  }
  const std::vector<BigInt> want = MulPlaintextReference(b, dim);
  ThreadPool pool(2);
  obs::TraceBuffer& trace = obs::TraceBuffer::Global();
  trace.Clear();
  trace.Enable();
  const uint64_t straus0 = CounterValue("core.fold.straus_batches");
  const uint64_t tables0 = CounterValue("core.fold.table_batches");
  std::vector<BigInt> mixed = SiloCore::NewCipherAccumulator(dim);
  ASSERT_TRUE(b.silo->AccumulateUsers(0, users, b.enc_weights,
                                      &cache.tables(), b.deltas, dim, &mixed,
                                      pool)
                  .ok());
  trace.Disable();
  EXPECT_EQ(mixed, want);
  EXPECT_EQ(CounterValue("core.fold.straus_batches") - straus0, 1u);
  EXPECT_EQ(CounterValue("core.fold.table_batches") - tables0, 1u);
#ifndef ULDP_DISABLE_TRACING
  EXPECT_NE(trace.ToJson().find("\"args\": {\"u0\": 0, \"users\": 5, "
                                "\"coords\": 3, \"path\": 3}"),
            std::string::npos);
#endif
  trace.Clear();

  // No tables at all, and the batch split in two: the same bits.
  std::vector<BigInt> straus = SiloCore::NewCipherAccumulator(dim);
  ASSERT_TRUE(b.silo->AccumulateUsers(0, 4, b.enc_weights, nullptr, b.deltas,
                                      dim, &straus, pool)
                  .ok());
  ASSERT_TRUE(b.silo->AccumulateUsers(4, users, b.enc_weights, nullptr,
                                      b.deltas, dim, &straus, pool)
                  .ok());
  EXPECT_EQ(straus, want);
}

// A fold reads the scalars BlindHistogram cached. A core that has not
// blinded its histogram has none, and it refuses to fold.
TEST(SiloFoldTest, FoldBeforeBlindHistogramFailsPrecondition) {
  const int users = 4, dim = 2;
  FoldBatch b = MakeFoldBatch(users, dim, 4300);
  SiloCore fresh(b.params, 0, b.histogram);
  fresh.SetSharedSeed(b.shared_seed);
  ThreadPool pool(2);
  std::vector<BigInt> cipher = SiloCore::NewCipherAccumulator(dim);
  const Status fold =
      fresh.FoldUsers(0, users, b.enc_weights, b.deltas, dim, &cipher, pool);
  EXPECT_EQ(fold.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(fold.message().find("BlindHistogram"), std::string::npos)
      << fold.message();
  EXPECT_EQ(fresh
                .AccumulateUsers(0, users, b.enc_weights, nullptr, b.deltas,
                                 dim, &cipher, pool)
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(cipher, SiloCore::NewCipherAccumulator(dim));
}

// Re-keying a silo drops the scalars cached under the old seed: a fold
// after SetSharedSeed fails until BlindHistogram runs again, instead of
// folding with the old seed's blinds, and then folds with the new ones.
TEST(SiloFoldTest, FoldAfterReKeyingFailsUntilBlindHistogramRunsAgain) {
  const int users = 4, dim = 2;
  FoldBatch b = MakeFoldBatch(users, dim, 4400, /*sample_rate=*/0.5);
  ThreadPool pool(2);
  std::vector<BigInt> cipher = SiloCore::NewCipherAccumulator(dim);
  ASSERT_TRUE(b.silo->FoldUsers(0, users, b.enc_weights, b.deltas, dim,
                                &cipher, pool)
                  .ok());
  EXPECT_EQ(cipher, MulPlaintextReference(b, dim));

  b.shared_seed = b.shared_seed + BigInt(1);
  b.silo->SetSharedSeed(b.shared_seed);
  cipher = SiloCore::NewCipherAccumulator(dim);
  EXPECT_EQ(b.silo
                ->FoldUsers(0, users, b.enc_weights, b.deltas, dim, &cipher,
                            pool)
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(cipher, SiloCore::NewCipherAccumulator(dim));

  ASSERT_TRUE(b.silo->BlindHistogram(pool).ok());
  ASSERT_TRUE(b.silo->FoldUsers(0, users, b.enc_weights, b.deltas, dim,
                                &cipher, pool)
                  .ok());
  EXPECT_EQ(cipher, MulPlaintextReference(b, dim));
}

// The session fold term by term: for every active user, coordinate group
// and slot j, c_u raised to s_u * 2^(jB) * |units_j| by one MontExp and
// inverted when units_j < 0, with units_j = llround(delta / P).
std::vector<BigInt> SessionReference(const FoldBatch& b, size_t model_dim) {
  const PaillierPublicKey& pk = b.params.public_key;
  const Montgomery mont(pk.n_squared);
  const PackedCodec& packed = b.params.packed;
  const size_t slots = static_cast<size_t>(packed.slots());
  std::vector<BigInt> cipher =
      SiloCore::NewCipherAccumulator(packed.PackedDim(model_dim));
  for (int u = 0; u < b.params.num_users; ++u) {
    if (b.deltas[u].empty() || b.histogram[u] == 0) continue;
    const BigInt scalar = FoldScalar(b, u);
    for (size_t d = 0; d < model_dim; ++d) {
      const int64_t units =
          std::llround(b.deltas[u][d] / b.params.config.precision);
      if (units == 0) continue;
      const size_t j = d % slots;
      const BigInt exp =
          scalar * (BigInt(1) << (static_cast<int>(j) * packed.slot_bits())) *
          BigInt(static_cast<uint64_t>(units < 0 ? -units : units));
      BigInt term = mont.MontExp(b.enc_weights[u], exp);
      if (units < 0) term = term.ModInverse(pk.n_squared).value();
      cipher[d / slots] = mont.ModMul(cipher[d / slots], term);
    }
  }
  return cipher;
}

// The session twin of FoldUsersMatchesMulPlaintextOnEachSideOfTheCrossover:
// at sample_rate 1 every shape folds through one Straus chain over the
// session powers, and the cipher equals the per-term reference, unpacked
// and packed. The first fold derives each active user's powers once; the
// next round's fold of the same ciphertexts derives none, and a changed
// ciphertext derives its user's powers again.
TEST(SiloFoldTest, SessionFoldMatchesThePerTermReference) {
  struct Shape {
    int users;
    int dim;
    int pack_slots;
  };
  ThreadPool pool(3);
  uint64_t seed = 4500;
  for (const Shape& shape :
       {Shape{8, 2, 1}, Shape{4, 12, 1}, Shape{6, 6, 4}}) {
    SCOPED_TRACE(std::to_string(shape.users) + " users x " +
                 std::to_string(shape.dim) + ", pack_slots " +
                 std::to_string(shape.pack_slots));
    FoldBatch b = MakeFoldBatch(shape.users, shape.dim, ++seed,
                                /*sample_rate=*/1.0, shape.pack_slots);
    const size_t cdim = b.params.packed.PackedDim(shape.dim);
    const uint64_t powers0 = CounterValue("core.session_powers");
    const uint64_t straus0 = CounterValue("core.fold.straus_batches");
    const uint64_t tables0 = CounterValue("core.fold.table_batches");
    for (int round = 0; round < 2; ++round) {
      std::vector<BigInt> cipher = SiloCore::NewCipherAccumulator(cdim);
      ASSERT_TRUE(b.silo->FoldUsers(0, shape.users, b.enc_weights, b.deltas,
                                    shape.dim, &cipher, pool)
                      .ok());
      EXPECT_EQ(cipher, SessionReference(b, shape.dim)) << "round " << round;
      EXPECT_EQ(CounterValue("core.session_powers") - powers0,
                static_cast<uint64_t>(b.active))
          << "round " << round;
    }
    EXPECT_EQ(CounterValue("core.fold.straus_batches") - straus0, 2u);
    EXPECT_EQ(CounterValue("core.fold.table_batches") - tables0, 0u);

    PaillierContext ctx(b.params.public_key);
    Rng rng(seed);
    b.enc_weights[0] =
        ctx.Encrypt(BigInt::RandomBelow(b.params.public_key.n, rng), rng)
            .value();
    std::vector<BigInt> cipher = SiloCore::NewCipherAccumulator(cdim);
    ASSERT_TRUE(b.silo->FoldUsers(0, shape.users, b.enc_weights, b.deltas,
                                  shape.dim, &cipher, pool)
                    .ok());
    EXPECT_EQ(cipher, SessionReference(b, shape.dim));
    EXPECT_EQ(CounterValue("core.session_powers") - powers0,
              static_cast<uint64_t>(b.active) + 1);
  }
}

// A session power needs an inverse mod n^2, so a weight ciphertext that is
// not a unit (no honest server sends one) fails the fold with
// InvalidArgument and leaves the cipher as it was.
TEST(SiloFoldTest, SessionFoldRefusesANonUnitCiphertext) {
  const int users = 4, dim = 2;
  ThreadPool pool(2);
  for (int which : {0, 1}) {
    FoldBatch b = MakeFoldBatch(users, dim, 4700 + which);
    b.enc_weights[2] = which == 0 ? BigInt(0) : b.params.public_key.n;
    std::vector<BigInt> cipher = SiloCore::NewCipherAccumulator(dim);
    EXPECT_EQ(b.silo
                  ->FoldUsers(0, users, b.enc_weights, b.deltas, dim, &cipher,
                              pool)
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(cipher, SiloCore::NewCipherAccumulator(dim));
  }
}

// The session twin of FoldAfterReKeyingFailsUntilBlindHistogramRunsAgain:
// re-keying drops the session powers with the scalars, so the fold fails
// until BlindHistogram runs again and then derives every active user's
// powers anew under the new blinds.
TEST(SiloFoldTest, ReKeyingDropsTheSessionPowers) {
  const int users = 4, dim = 2;
  FoldBatch b = MakeFoldBatch(users, dim, 4600);
  ThreadPool pool(2);
  const uint64_t powers0 = CounterValue("core.session_powers");
  std::vector<BigInt> cipher = SiloCore::NewCipherAccumulator(dim);
  ASSERT_TRUE(b.silo->FoldUsers(0, users, b.enc_weights, b.deltas, dim,
                                &cipher, pool)
                  .ok());
  EXPECT_EQ(cipher, SessionReference(b, dim));
  EXPECT_EQ(CounterValue("core.session_powers") - powers0,
            static_cast<uint64_t>(b.active));

  b.shared_seed = b.shared_seed + BigInt(1);
  b.silo->SetSharedSeed(b.shared_seed);
  cipher = SiloCore::NewCipherAccumulator(dim);
  EXPECT_EQ(b.silo
                ->FoldUsers(0, users, b.enc_weights, b.deltas, dim, &cipher,
                            pool)
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(cipher, SiloCore::NewCipherAccumulator(dim));

  ASSERT_TRUE(b.silo->BlindHistogram(pool).ok());
  ASSERT_TRUE(b.silo->FoldUsers(0, users, b.enc_weights, b.deltas, dim,
                                &cipher, pool)
                  .ok());
  EXPECT_EQ(cipher, SessionReference(b, dim));
  EXPECT_EQ(CounterValue("core.session_powers") - powers0,
            2 * static_cast<uint64_t>(b.active));
}

// A full-participation session decodes every round bitwise like the same
// inputs at sample_rate < 1 with every user sampled, which fold fresh
// ciphertexts: unpacked and packed, materialized and streamed, at 1, 2
// and 5 threads, over 3 rounds. The deltas include the encode limits: 0,
// +-P and, unpacked, the largest |delta| Encode accepts or, packed,
// +-pack_clip.
TEST(ProtocolSessionTest, SessionDecodesBitwiseLikeFreshCiphertexts) {
  const int silos = 2, users = 5, dim = 6, rounds = 3;
  for (int slots : {1, 4}) {
    const ProtocolConfig base = PackedTestConfig(slots);
    const double p = base.precision;
    double top = base.pack_clip;
    if (slots == 1) {
      // Step down from the fixed-point range until Encode accepts.
      const FixedPointCodec codec((BigInt(1) << 511) + BigInt(1), p);
      top = 4.6e18 * p;
      while (!codec.Units(top).ok()) top = std::nextafter(top, 0.0);
      ASSERT_FALSE(codec.Units(std::nextafter(top, 1e300)).ok());
    }
    const std::vector<double> limits = {0.0, p, -p, top, -top};
    ProtoInputs in = MakeInputs(silos, users, dim, 180 + slots);
    for (int s = 0; s < silos; ++s) {
      for (int u = 0; u < users; ++u) {
        for (size_t d = 0; d < in.deltas[s][u].size(); d += 2) {
          in.deltas[s][u][d] = limits[(s + 3 * u + d) % limits.size()];
        }
      }
    }
    for (int chunk : {0, 2}) {
      for (int threads : {1, 2, 5}) {
        std::vector<std::vector<Vec>> outs;  // [q]
        for (double q : {0.5, 1.0}) {
          ProtocolConfig config = base;
          config.sample_rate = q;
          config.stream_chunk_users = chunk;
          config.num_threads = threads;
          PrivateWeightingProtocol protocol(config, silos, users);
          ASSERT_TRUE(protocol.Setup(in.histograms).ok());
          outs.emplace_back();
          for (int r = 0; r < rounds; ++r) {
            auto out = protocol.WeightingRound(
                r, in.deltas, in.noise, std::vector<bool>(users, true));
            ASSERT_TRUE(out.ok()) << out.status().ToString();
            outs.back().push_back(std::move(out.value()));
          }
        }
        EXPECT_EQ(outs[1], outs[0]) << "pack_slots " << slots << ", chunk "
                                    << chunk << ", threads " << threads;
      }
    }
    const Vec expect =
        PlaintextReference(in, std::vector<bool>(users, true), dim);
    ProtocolConfig config = base;
    PrivateWeightingProtocol protocol(config, silos, users);
    ASSERT_TRUE(protocol.Setup(in.histograms).ok());
    auto out = protocol.WeightingRound(0, in.deltas, in.noise,
                                       std::vector<bool>(users, true));
    ASSERT_TRUE(out.ok());
    for (int d = 0; d < dim; ++d) {
      EXPECT_NEAR(out.value()[d], expect[d], 1e-4 * (1.0 + std::fabs(expect[d])))
          << "pack_slots " << slots << ", coordinate " << d;
    }
  }
}

TEST(ProtocolPackedTest, PackedRoundsBitwiseMatchUnpacked) {
  // dim = 5 is divisible by none of the slot counts, so every packed run
  // also exercises a partial tail group.
  const int silos = 2, users = 5, dim = 5;
  auto in = MakeInputs(silos, users, dim, 171);
  std::vector<bool> mask(users, true);
  mask[2] = false;
  Vec unpacked;
  for (int slots : {1, 2, 4, 8}) {
    ProtocolConfig config = PackedTestConfig(slots);
    config.sample_rate = 0.5;  // the round samples users
    PrivateWeightingProtocol protocol(config, silos, users);
    ASSERT_TRUE(protocol.Setup(in.histograms).ok());
    auto out = protocol.WeightingRound(0, in.deltas, in.noise, mask);
    ASSERT_TRUE(out.ok()) << "pack_slots " << slots;
    if (slots == 1) {
      unpacked = std::move(out.value());
      Vec expect = PlaintextReference(in, mask, dim);
      for (int d = 0; d < dim; ++d) {
        EXPECT_NEAR(unpacked[d], expect[d], 1e-4);
      }
    } else {
      // Same quantized integers flow through either layout, so the decoded
      // doubles are bitwise identical — not merely close.
      EXPECT_EQ(out.value(), unpacked) << "pack_slots " << slots;
    }
  }
}

TEST(ProtocolPackedTest, PackedRoundsAreThreadCountInvariant) {
  const int silos = 2, users = 5, dim = 6;
  auto in = MakeInputs(silos, users, dim, 172);
  std::vector<bool> mask(users, true);
  // Fresh ciphertexts every round (q = 0.5, every user sampled) and a
  // full-participation session (q = 1).
  for (double q : {0.5, 1.0}) {
    Vec ref;
    for (int threads : {1, 2, 5}) {
      ProtocolConfig config = PackedTestConfig(4);
      config.sample_rate = q;
      config.num_threads = threads;
      PrivateWeightingProtocol protocol(config, silos, users);
      ASSERT_TRUE(protocol.Setup(in.histograms).ok());
      auto out = protocol.WeightingRound(0, in.deltas, in.noise, mask);
      ASSERT_TRUE(out.ok());
      if (threads == 1) {
        ref = std::move(out.value());
      } else {
        EXPECT_EQ(out.value(), ref) << "thread count " << threads << ", q "
                                    << q;
      }
    }
  }
}

TEST(ProtocolPackedTest, PackedOtModeBitwiseMatchesUnpacked) {
  const int silos = 2, users = 4, dim = 5;
  auto in = MakeInputs(silos, users, dim, 173);
  std::vector<bool> ignored(users, true);
  Vec unpacked;
  std::vector<bool> unpacked_mask;
  for (int slots : {1, 4}) {
    ProtocolConfig config = PackedTestConfig(slots);
    config.ot_slots = 4;
    config.sample_rate = 0.5;
    config.ot_group_bits = 192;
    PrivateWeightingProtocol protocol(config, silos, users);
    ASSERT_TRUE(protocol.Setup(in.histograms).ok());
    auto out = protocol.WeightingRound(0, in.deltas, in.noise, ignored);
    ASSERT_TRUE(out.ok());
    const std::vector<bool> sampled = OtSampleReadout(config, silos, users, 0);
    if (slots == 1) {
      unpacked = std::move(out.value());
      unpacked_mask = sampled;
      Vec expect = PlaintextReference(in, unpacked_mask, dim);
      for (int d = 0; d < dim; ++d) EXPECT_NEAR(unpacked[d], expect[d], 1e-4);
    } else {
      // The OT transcript never touches the slot layout, so the hidden
      // sample and the aggregate both carry over bitwise.
      EXPECT_EQ(sampled, unpacked_mask);
      EXPECT_EQ(out.value(), unpacked);
    }
  }
}

TEST(ProtocolPackedTest, InfeasiblePackingIsRejectedAtSetup) {
  // Default precision (1e-10) and clip at n_max=30 need ~86-bit slots;
  // eight of them cannot fit a 512-bit modulus and Setup must say so
  // instead of letting aggregation overflow slot boundaries.
  ProtocolConfig config;
  config.paillier_bits = 512;
  config.n_max = 30;
  config.seed = 910;
  config.pack_slots = 8;
  PrivateWeightingProtocol protocol(config, 2, 2);
  auto status = protocol.Setup({{1, 1}, {1, 1}});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(ProtocolTrainerTest, PrivatePathMatchesPlaintextEnhancedWeighting) {
  Rng rng(21);
  auto cd = MakeCreditcardLike(300, 150, rng);
  AllocationOptions alloc;
  ASSERT_TRUE(AllocateUsersAndSilos(cd.train, 8, 3, alloc, rng).ok());
  FederatedDataset fd(cd.train, cd.test, 8, 3);
  auto model = MakeMlp({30}, 2);
  FlConfig fl;
  fl.local_lr = 0.1;
  fl.global_lr = 5.0;
  fl.sigma = 5.0;
  fl.seed = 77;
  ExperimentConfig cfg;
  cfg.rounds = 2;
  ProtocolConfig pc;
  pc.paillier_bits = 512;
  pc.n_max = 200;
  pc.seed = 5;
  PrivateWeightingProtocol protocol(pc, 3, 8);
  std::vector<std::vector<int>> hist(3, std::vector<int>(8, 0));
  for (int s = 0; s < 3; ++s) {
    for (int u = 0; u < 8; ++u) hist[s][u] = fd.CountOf(s, u);
  }
  ASSERT_TRUE(protocol.Setup(hist).ok());

  UldpAvgOptions private_opt;
  private_opt.private_protocol = &protocol;
  UldpAvgTrainer private_trainer(fd, *model, fl, private_opt);
  auto private_trace = RunExperiment(private_trainer, *model, fd, cfg);
  ASSERT_TRUE(private_trace.ok());

  UldpAvgOptions plain_opt;
  plain_opt.weighting = WeightingStrategy::kEnhanced;
  UldpAvgTrainer plain_trainer(fd, *model, fl, plain_opt);
  auto plain_trace = RunExperiment(plain_trainer, *model, fd, cfg);
  ASSERT_TRUE(plain_trace.ok());

  EXPECT_NEAR(private_trace.value().back().test_loss,
              plain_trace.value().back().test_loss, 1e-6);
  EXPECT_NEAR(private_trace.value().back().utility,
              plain_trace.value().back().utility, 1e-9);
  EXPECT_NE(private_trainer.name().find("private"), std::string::npos);
}

// ULDP-AVG-w over Protocol 1 with OT sub-sampling (4 slots, rate 0.5): the
// protocol keeps each user with probability 2/4 whatever the trainer's
// mask says, so the trainer steps and accounts at that rate.
struct OtTrainerFixture {
  static constexpr int kSilos = 3;
  static constexpr int kUsers = 6;

  OtTrainerFixture() {
    Rng rng(31);
    auto cd = MakeCreditcardLike(120, 30, rng);
    AllocationOptions alloc;
    EXPECT_TRUE(
        AllocateUsersAndSilos(cd.train, kUsers, kSilos, alloc, rng).ok());
    data = std::make_unique<FederatedDataset>(cd.train, cd.test, kUsers,
                                              kSilos);
    pc.paillier_bits = 512;
    pc.seed = 6;
    pc.ot_slots = 4;
    pc.sample_rate = 0.5;
    pc.ot_group_bits = 256;
    pc.n_max = 1;
    hist.assign(kSilos, std::vector<int>(kUsers, 0));
    for (int u = 0; u < kUsers; ++u) {
      pc.n_max = std::max(pc.n_max, data->TotalCountOf(u));
      for (int s = 0; s < kSilos; ++s) hist[s][u] = data->CountOf(s, u);
    }
    fl.local_lr = 0.0;  // every user's delta is exactly 0
    fl.global_lr = 3.0;
    fl.sigma = 2.0;
    fl.clip = 0.5;
    fl.seed = 41;
  }

  std::unique_ptr<FederatedDataset> data;
  std::unique_ptr<Model> model = MakeMlp({30}, 2);
  ProtocolConfig pc;
  std::vector<std::vector<int>> hist;
  FlConfig fl;
};

TEST(ProtocolTrainerTest, OtSubsamplingStepsAndAccountsAtTheOtRate) {
  OtTrainerFixture f;
  const int silos = OtTrainerFixture::kSilos;
  const int users = OtTrainerFixture::kUsers;
  PrivateWeightingProtocol protocol(f.pc, silos, users);
  ASSERT_TRUE(protocol.Setup(f.hist).ok());
  UldpAvgOptions opt;
  opt.private_protocol = &protocol;
  UldpAvgTrainer trainer(*f.data, *f.model, f.fl, opt);
  EXPECT_EQ(trainer.name(), "ULDP-AVG-w(private)(q=0.5)");

  Rng init(5);
  f.model->InitParams(init);
  Vec global = f.model->GetParams();
  const double step = f.fl.global_lr / (0.5 * users * silos);
  const double share = f.fl.sigma * f.fl.clip / std::sqrt(1.0 * silos);
  const Rng seed(f.fl.seed);
  for (int r = 0; r < 2; ++r) {
    const Vec before = global;
    ASSERT_TRUE(trainer.RunRound(r, global).ok());
    // With zero deltas the decoded aggregate is the silos' noise shares.
    Vec noise_sum(global.size(), 0.0);
    for (int s = 0; s < silos; ++s) {
      Vec z(global.size(), 0.0);
      Rng noise = seed.Fork(static_cast<uint64_t>(r),
                            static_cast<uint64_t>(s), kRngStreamNoise);
      AddGaussianNoise(z, share, noise);
      Axpy(1.0, z, noise_sum);
    }
    // Each silo's share is encoded at the codec's precision.
    const double tol = step * silos * f.pc.precision;
    for (size_t i = 0; i < global.size(); ++i) {
      ASSERT_NEAR(global[i] - before[i], step * noise_sum[i], tol)
          << "round " << r << " coordinate " << i;
    }
  }
  auto spent = trainer.EpsilonSpent(1e-5);
  auto expected = UldpSubsampledEpsilon(f.fl.sigma, 0.5, 2, 1e-5);
  ASSERT_TRUE(spent.ok());
  ASSERT_TRUE(expected.ok());
  EXPECT_DOUBLE_EQ(spent.value(), expected.value());
}

#ifdef GTEST_HAS_DEATH_TEST
TEST(ProtocolTrainerDeathTest, OtSubsamplingRefusesASecondSampler) {
  OtTrainerFixture f;
  PrivateWeightingProtocol protocol(f.pc, OtTrainerFixture::kSilos,
                                    OtTrainerFixture::kUsers);
  UldpAvgOptions opt;
  opt.private_protocol = &protocol;
  opt.user_sample_rate = 0.5;
  EXPECT_DEATH(UldpAvgTrainer(*f.data, *f.model, f.fl, opt), "samples twice");
}

// Without OT the trainer's mask samples users at user_sample_rate, and
// the protocol's sample_rate decides whether the session repeats its
// weight ciphertexts, so the two must agree; a mismatch fails at
// construction, not at the first round.
TEST(ProtocolTrainerDeathTest, RateOtherThanTheProtocolsIsRefusedWithoutOt) {
  OtTrainerFixture f;
  f.pc.ot_slots = 0;
  for (double protocol_q : {1.0, 0.6}) {
    f.pc.sample_rate = protocol_q;
    PrivateWeightingProtocol protocol(f.pc, OtTrainerFixture::kSilos,
                                      OtTrainerFixture::kUsers);
    UldpAvgOptions opt;
    opt.private_protocol = &protocol;
    opt.user_sample_rate = protocol_q == 1.0 ? 0.6 : 1.0;
    EXPECT_DEATH(UldpAvgTrainer(*f.data, *f.model, f.fl, opt),
                 "differs from the protocol's sample_rate");
  }
}

TEST(ProtocolTrainerDeathTest, OtRateWithoutARealSlotIsRefused) {
  OtTrainerFixture f;
  f.pc.sample_rate = 0.1;  // 0.1 * 4 slots rounds to 0 real slots
  PrivateWeightingProtocol protocol(f.pc, OtTrainerFixture::kSilos,
                                    OtTrainerFixture::kUsers);
  UldpAvgOptions opt;
  opt.private_protocol = &protocol;
  EXPECT_DEATH(UldpAvgTrainer(*f.data, *f.model, f.fl, opt),
               "no real OT slot");
}
#endif

}  // namespace
}  // namespace uldp
