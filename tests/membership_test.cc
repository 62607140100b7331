// Elastic membership (net/membership.h + the elastic AsyncRoundServer):
// the transition state machine, epoch sealing with reweighting and DP
// mirroring, and deterministic churn schedules over channels — eviction
// of a crashed silo, mid-run admission of a late joiner, voluntary
// leaves, and the masked (secure-aggregation) transport — each compared
// bitwise against a hand-driven serial reference of the same schedule —
// and every way a run ends early, each of which must tell the silos why.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dp/accountant.h"
#include "fl/local_trainer.h"
#include "fl/round_engine.h"
#include "fl/session.h"
#include "net/async_rounds.h"
#include "net/demo.h"
#include "net/membership.h"
#include "net/messages.h"
#include "net/tcp.h"
#include "net/transport.h"

namespace uldp {
namespace {

constexpr uint64_t kWorkSeed = 77;
constexpr double kStepScale = 0.25;

// ---------------------------------------------------------------------------
// Transition discipline

TEST(MembershipManagerTest, TransitionDisciplineIsEnforced) {
  SessionState session;
  net::MembershipManager manager(&session);

  ASSERT_TRUE(manager.Join(3, /*user_count=*/5, /*version=*/2).ok());
  EXPECT_EQ(session.Find(3)->status, SiloStatus::kJoined);
  // Joining again while joined/active is an error.
  EXPECT_FALSE(manager.Join(3, 5, 2).ok());
  // A joined silo cannot leave (it never participated)...
  EXPECT_FALSE(manager.Leave(3, 2).ok());
  // ...but it can be evicted (it may die before admission).
  ASSERT_TRUE(manager.Activate(3, 3).ok());
  EXPECT_EQ(session.Find(3)->status, SiloStatus::kActive);
  EXPECT_EQ(session.Find(3)->join_round, 3u);
  EXPECT_FALSE(manager.Activate(3, 3).ok());  // already active
  ASSERT_TRUE(manager.Leave(3, 6).ok());
  EXPECT_EQ(session.Find(3)->status, SiloStatus::kLeft);
  EXPECT_EQ(session.Find(3)->depart_round, 6u);
  // Departed silos are inert until they rejoin.
  EXPECT_FALSE(manager.Leave(3, 7).ok());
  EXPECT_FALSE(manager.Evict(3, 7).ok());
  // Transitions on unknown silos are errors, not silent row creation.
  EXPECT_FALSE(manager.Activate(9, 0).ok());
  EXPECT_FALSE(manager.Leave(9, 0).ok());
  EXPECT_FALSE(manager.Evict(9, 0).ok());

  // Rejoining resets the row for a fresh tenure.
  ASSERT_TRUE(manager.Join(3, /*user_count=*/2, /*version=*/8).ok());
  ASSERT_TRUE(manager.Activate(3, 9).ok());
  EXPECT_EQ(session.Find(3)->status, SiloStatus::kActive);
  EXPECT_EQ(session.Find(3)->join_round, 9u);
  EXPECT_EQ(session.Find(3)->user_count, 2u);
  EXPECT_EQ(session.Find(3)->depart_round, 0u);

  // Eviction also works straight from kJoined.
  ASSERT_TRUE(manager.Join(4, 1, 9).ok());
  ASSERT_TRUE(manager.Evict(4, 9).ok());
  EXPECT_EQ(session.Find(4)->status, SiloStatus::kEvicted);
}

TEST(MembershipManagerTest, SealEpochReweightsAndMirrorsIntoTracker) {
  SessionState session;
  PrivacyTracker tracker = PrivacyTracker::ForGaussian(5.0);
  net::MembershipManager manager(&session, &tracker);

  for (uint32_t s = 0; s < 3; ++s) {
    ASSERT_TRUE(manager.Join(s, /*user_count=*/s + 1, 0).ok());
    ASSERT_TRUE(manager.Activate(s, 0).ok());
  }
  const MembershipEpochRecord& first = manager.SealEpoch(0);
  EXPECT_EQ(first.epoch, 1u);
  EXPECT_EQ(first.active_silos, 3u);
  EXPECT_EQ(first.user_total, 6u);  // 1 + 2 + 3
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(session.Find(s)->weight, 1.0 / 3);
  }

  ASSERT_TRUE(manager.Evict(1, 4).ok());
  const MembershipEpochRecord& second = manager.SealEpoch(4);
  EXPECT_EQ(second.epoch, 2u);
  EXPECT_EQ(second.start_round, 4u);
  EXPECT_EQ(second.active_silos, 2u);
  EXPECT_EQ(second.user_total, 4u);  // users 1 and 3 remain
  EXPECT_EQ(session.Find(0)->weight, 0.5);
  EXPECT_EQ(session.Find(1)->weight, 0.0);
  EXPECT_EQ(session.Find(2)->weight, 0.5);

  // Every sealed epoch is mirrored into the accountant, field for field.
  ASSERT_EQ(tracker.membership_epochs().size(), session.epochs.size());
  for (size_t i = 0; i < session.epochs.size(); ++i) {
    EXPECT_EQ(tracker.membership_epochs()[i].epoch, session.epochs[i].epoch);
    EXPECT_EQ(tracker.membership_epochs()[i].start_round,
              session.epochs[i].start_round);
    EXPECT_EQ(tracker.membership_epochs()[i].active_silos,
              session.epochs[i].active_silos);
    EXPECT_EQ(tracker.membership_epochs()[i].user_total,
              session.epochs[i].user_total);
  }
}

TEST(MembershipManagerTest, EpsilonForRoundsMatchesAdvancedTracker) {
  // Per-epoch exposure: a user present for exactly k rounds spends what a
  // fresh tracker advanced k rounds reports.
  PrivacyTracker probe = PrivacyTracker::ForGaussian(3.0);
  PrivacyTracker advanced = PrivacyTracker::ForGaussian(3.0);
  advanced.AdvanceRounds(4);
  auto per_epoch = probe.EpsilonForRounds(4, 1e-5);
  auto spent = advanced.Epsilon(1e-5);
  ASSERT_TRUE(per_epoch.ok());
  ASSERT_TRUE(spent.ok());
  EXPECT_EQ(per_epoch.value(), spent.value());
  // And it is independent of the probe's own advanced state.
  probe.AdvanceRounds(10);
  EXPECT_EQ(probe.EpsilonForRounds(4, 1e-5).value(), per_epoch.value());
}

// ---------------------------------------------------------------------------
// Channel-backed churn schedules

net::AsyncRoundsConfig ElasticConfig(bool elastic) {
  net::AsyncRoundsConfig config;
  config.step_scale = kStepScale;
  config.seed = kWorkSeed;
  config.elastic = elastic;
  return config;
}

/// Serial replay of the elastic update rule for a fixed active-set
/// schedule: per step, every active silo contributes its demo delta and
/// the flushed sum is rescaled by num_silos/active.
Vec ScheduleReference(int num_silos, int dim,
                      const std::vector<std::vector<int>>& active_sets) {
  AsyncAggregator agg(num_silos, 0, num_silos);
  Vec ref(dim, 0.0);
  for (size_t step = 0; step < active_sets.size(); ++step) {
    for (int s : active_sets[step]) {
      Vec delta;
      Status worked = net::MakeAsyncDemoWork(kWorkSeed, s, dim)(
          static_cast<uint64_t>(step), ref, &delta);
      EXPECT_TRUE(worked.ok()) << worked.ToString();
      EXPECT_EQ(agg.Offer(s, static_cast<uint64_t>(step), std::move(delta)),
                0);
    }
    Vec sum = agg.Flush(false, static_cast<uint64_t>(step), nullptr);
    int active = static_cast<int>(active_sets[step].size());
    double scale = kStepScale;
    if (active > 0 && active != num_silos) {
      scale = kStepScale * num_silos / active;
    }
    Axpy(scale, sum, ref);
  }
  return ref;
}

TEST(ElasticMembershipTest, EvictionAndLateJoinMatchScheduleReference) {
  const int silos = 3, dim = 5, steps = 6;
  net::AsyncRoundsConfig config = ElasticConfig(true);

  std::vector<std::unique_ptr<net::Transport>> server_ends, silo_ends;
  for (int s = 0; s < silos; ++s) {
    auto [a, b] = net::ChannelTransport::CreatePair();
    server_ends.push_back(std::move(a));
    silo_ends.push_back(std::move(b));
  }
  std::vector<std::thread> threads;
  std::vector<Status> silo_status(silos, Status::Ok());
  // Silo 0 crashes when released with version 2; silo 2 connects with a
  // join request asking for admission at version >= 4.
  for (int s = 0; s < silos; ++s) {
    net::AsyncDemoOptions options;
    if (s == 0) options.fail_at_version = 2;
    if (s == 2) options.join_at_version = 4;
    threads.emplace_back([&, s, options] {
      silo_status[s] = net::RunAsyncDemoSilo(config, s, silos, dim,
                                             *silo_ends[s], options);
    });
  }

  PrivacyTracker tracker = PrivacyTracker::ForGaussian(5.0);
  net::AsyncRoundServer server(config, silos, dim);
  server.set_privacy_tracker(&tracker);
  for (auto& end : server_ends) {
    ASSERT_TRUE(server.AddConnection(std::move(end)).ok());
  }
  auto out = server.Run(steps, Vec(dim, 0.0));
  for (auto& t : threads) t.join();
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  // Silo 0's run ends with its injected failure; the others finish clean.
  EXPECT_FALSE(silo_status[0].ok());
  EXPECT_NE(silo_status[0].message().find("injected silo failure"),
            std::string::npos)
      << silo_status[0].ToString();
  EXPECT_TRUE(silo_status[1].ok()) << silo_status[1].ToString();
  EXPECT_TRUE(silo_status[2].ok()) << silo_status[2].ToString();

  // The membership schedule pins every flush: versions 0-1 see {0,1},
  // the eviction leaves {1} for 2-3, and the admission at 4 makes {1,2}.
  Vec reference = ScheduleReference(
      silos, dim, {{0, 1}, {0, 1}, {1}, {1}, {1, 2}, {1, 2}});
  EXPECT_EQ(out.value(), reference);

  EXPECT_EQ(server.evictions(), 1);
  EXPECT_EQ(server.admissions(), 1);
  const SessionState& session = server.session();
  ASSERT_NE(session.Find(0), nullptr);
  EXPECT_EQ(session.Find(0)->status, SiloStatus::kEvicted);
  EXPECT_EQ(session.Find(0)->depart_round, 2u);
  ASSERT_NE(session.Find(1), nullptr);
  EXPECT_EQ(session.Find(1)->status, SiloStatus::kActive);
  ASSERT_NE(session.Find(2), nullptr);
  EXPECT_EQ(session.Find(2)->status, SiloStatus::kActive);
  EXPECT_EQ(session.Find(2)->join_round, 4u);

  // Three membership epochs: bootstrap {0,1}, post-eviction {1}, and
  // post-admission {1,2} — sealed in the session and mirrored into the
  // attached accountant.
  ASSERT_EQ(session.epochs.size(), 3u);
  EXPECT_EQ(session.epochs[0].active_silos, 2u);
  EXPECT_EQ(session.epochs[0].start_round, 0u);
  EXPECT_EQ(session.epochs[1].active_silos, 1u);
  EXPECT_EQ(session.epochs[1].start_round, 2u);
  EXPECT_EQ(session.epochs[2].active_silos, 2u);
  EXPECT_EQ(session.epochs[2].start_round, 4u);
  ASSERT_EQ(tracker.membership_epochs().size(), 3u);
  EXPECT_EQ(tracker.membership_epochs()[2].user_total,
            session.epochs[2].user_total);
}

TEST(ElasticMembershipTest, VoluntaryLeaveReweightsWithoutEviction) {
  const int silos = 2, dim = 4, steps = 4;
  net::AsyncRoundsConfig config = ElasticConfig(true);

  std::vector<std::unique_ptr<net::Transport>> server_ends, silo_ends;
  for (int s = 0; s < silos; ++s) {
    auto [a, b] = net::ChannelTransport::CreatePair();
    server_ends.push_back(std::move(a));
    silo_ends.push_back(std::move(b));
  }
  std::vector<std::thread> threads;
  std::vector<Status> silo_status(silos, Status::Ok());
  for (int s = 0; s < silos; ++s) {
    net::AsyncDemoOptions options;
    if (s == 1) options.leave_at_version = 2;
    threads.emplace_back([&, s, options] {
      silo_status[s] = net::RunAsyncDemoSilo(config, s, silos, dim,
                                             *silo_ends[s], options);
    });
  }
  net::AsyncRoundServer server(config, silos, dim);
  for (auto& end : server_ends) {
    ASSERT_TRUE(server.AddConnection(std::move(end)).ok());
  }
  auto out = server.Run(steps, Vec(dim, 0.0));
  for (auto& t : threads) t.join();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // A voluntary leave is a clean exit for the client...
  EXPECT_TRUE(silo_status[0].ok()) << silo_status[0].ToString();
  EXPECT_TRUE(silo_status[1].ok()) << silo_status[1].ToString();
  // ...and not an eviction for the server.
  EXPECT_EQ(server.evictions(), 0);
  EXPECT_EQ(server.session().Find(1)->status, SiloStatus::kLeft);
  EXPECT_EQ(server.session().Find(1)->depart_round, 2u);

  Vec reference = ScheduleReference(silos, dim, {{0, 1}, {0, 1}, {0}, {0}});
  EXPECT_EQ(out.value(), reference);
}

TEST(ElasticMembershipTest, StaticCohortRejectsJoinRequestsAndLeaves) {
  // A non-elastic server must refuse elastic admission outright.
  net::AsyncRoundsConfig config = ElasticConfig(false);
  auto [a, b] = net::ChannelTransport::CreatePair();
  net::AsyncRoundServer server(config, 2, 4);
  std::thread client_thread([&config, &b] {
    net::AsyncRoundClient client(config, 0, 2, 4);
    net::AsyncClientOptions options;
    options.join_min_version = 0;
    EXPECT_FALSE(
        client.Run(*b, net::MakeAsyncDemoWork(kWorkSeed, 0, 4), options)
            .ok());
  });
  EXPECT_FALSE(server.AddConnection(std::move(a)).ok());
  client_thread.join();
}

TEST(ElasticMembershipTest, ClientReportsEvictionAndRejectsTruncatedEvict) {
  // A fake server over a channel answers the client's join with an Evict
  // frame, whole or cut short.
  const int dim = 4;
  net::AsyncRoundsConfig config = ElasticConfig(false);
  net::EvictMsg evict;
  evict.silo_id = 0;
  evict.version = 7;
  evict.code = static_cast<uint16_t>(StatusCode::kDeadlineExceeded);
  evict.reason = "missed the step deadline";
  for (bool truncated : {false, true}) {
    SCOPED_TRACE(truncated ? "truncated" : "whole");
    auto [server_end, client_end] = net::ChannelTransport::CreatePair();
    Status client_status;
    std::thread client_thread([&, end = client_end.get()] {
      net::AsyncRoundClient client(config, 0, 1, dim);
      client_status =
          client.Run(*end, net::MakeAsyncDemoWork(kWorkSeed, 0, dim));
    });
    auto join = server_end->Recv();
    ASSERT_TRUE(join.ok()) << join.status().ToString();
    net::Frame frame = net::ToFrame(evict);
    if (truncated) frame.payload.resize(frame.payload.size() - 3);
    ASSERT_TRUE(server_end->Send(frame).ok());
    client_thread.join();
    if (truncated) {
      EXPECT_EQ(client_status.code(), StatusCode::kInvalidArgument)
          << client_status.ToString();
    } else {
      EXPECT_EQ(client_status.code(), StatusCode::kFailedPrecondition);
      EXPECT_NE(client_status.message().find("version 7"), std::string::npos)
          << client_status.ToString();
      EXPECT_NE(client_status.message().find(evict.reason), std::string::npos)
          << client_status.ToString();
    }
  }
}

TEST(ElasticMembershipTest, RefusedUploadReportsTheQueuedServerVerdict) {
  // A fake server releases version 0, then queues its verdict (an Error or
  // an Evict frame) and closes the channel while the silo works. The
  // silo's upload is refused, and it returns the verdict, not the refusal.
  const int dim = 4;
  const net::AsyncRoundsConfig config = ElasticConfig(false);
  net::EvictMsg evict;
  evict.version = 0;
  evict.code = static_cast<uint16_t>(StatusCode::kDeadlineExceeded);
  evict.reason = "missed the step deadline";
  const std::pair<net::Frame, std::string> verdicts[] = {
      {net::MakeErrorFrame(Status::Internal("server failed the run")),
       "server failed the run"},
      {net::ToFrame(evict), evict.reason}};
  for (const auto& [verdict, text] : verdicts) {
    SCOPED_TRACE(text);
    auto [server_end, client_end] = net::ChannelTransport::CreatePair();
    std::promise<void> closed;
    std::future<void> server_closed = closed.get_future();
    Status client_status;
    std::thread client_thread([&, end = client_end.get()] {
      net::AsyncRoundClient client(config, 0, 1, dim);
      client_status = client.Run(*end, [&](uint64_t, const Vec&, Vec* delta) {
        server_closed.wait();
        *delta = Vec(dim, 0.0);
        return Status::Ok();
      });
    });
    EXPECT_TRUE(server_end->Recv().ok());  // the join
    net::StalenessInfoMsg info;
    info.params = Vec(dim, 0.0);
    EXPECT_TRUE(server_end->Send(net::ToFrame(info)).ok());
    EXPECT_TRUE(server_end->Send(verdict).ok());
    server_end->Close();
    closed.set_value();
    client_thread.join();
    EXPECT_NE(client_status.message().find(text), std::string::npos)
        << client_status.ToString();
  }
}

TEST(ElasticMembershipTest, StaticServerPopulatesSessionIdentically) {
  // The fixed-membership path, driven through the session layer, must be
  // bitwise identical to the serial schedule where everyone participates
  // every step — the "static == pre-refactor behaviour" invariant.
  const int silos = 3, dim = 5, steps = 3;
  net::AsyncRoundsConfig config = ElasticConfig(false);
  std::vector<std::unique_ptr<net::Transport>> server_ends, silo_ends;
  for (int s = 0; s < silos; ++s) {
    auto [a, b] = net::ChannelTransport::CreatePair();
    server_ends.push_back(std::move(a));
    silo_ends.push_back(std::move(b));
  }
  std::vector<std::thread> threads;
  std::vector<Status> silo_status(silos, Status::Ok());
  for (int s = 0; s < silos; ++s) {
    threads.emplace_back([&, s] {
      silo_status[s] =
          net::RunAsyncDemoSilo(config, s, silos, dim, *silo_ends[s]);
    });
  }
  net::AsyncRoundServer server(config, silos, dim);
  for (auto& end : server_ends) {
    ASSERT_TRUE(server.AddConnection(std::move(end)).ok());
  }
  auto out = server.Run(steps, Vec(dim, 0.0));
  for (auto& t : threads) t.join();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  for (const Status& s : silo_status) EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(out.value(),
            ScheduleReference(silos, dim, {{0, 1, 2}, {0, 1, 2}, {0, 1, 2}}));

  const SessionState& session = server.session();
  EXPECT_EQ(session.round, static_cast<uint64_t>(steps));
  EXPECT_EQ(session.ActiveCount(), silos);
  EXPECT_EQ(session.stats.steps, static_cast<int64_t>(steps));
  EXPECT_EQ(session.stats.applied, static_cast<int64_t>(steps * silos));
  EXPECT_EQ(session.stats.applied, server.stats().applied);
}

// ---------------------------------------------------------------------------
// Masked (secure-aggregation) transport

TEST(MaskedTransportTest, MaskedRunMatchesSecureReduceBitwise) {
  const int silos = 2, dim = 4, steps = 3;
  net::AsyncRoundsConfig config = ElasticConfig(false);
  config.masked = true;

  std::vector<std::unique_ptr<net::Transport>> server_ends, silo_ends;
  for (int s = 0; s < silos; ++s) {
    auto [a, b] = net::ChannelTransport::CreatePair();
    server_ends.push_back(std::move(a));
    silo_ends.push_back(std::move(b));
  }
  std::vector<std::thread> threads;
  std::vector<Status> silo_status(silos, Status::Ok());
  for (int s = 0; s < silos; ++s) {
    threads.emplace_back([&, s] {
      silo_status[s] =
          net::RunAsyncDemoSilo(config, s, silos, dim, *silo_ends[s]);
    });
  }
  net::AsyncRoundServer server(config, silos, dim);
  for (auto& end : server_ends) {
    ASSERT_TRUE(server.AddConnection(std::move(end)).ok());
  }
  auto out = server.Run(steps, Vec(dim, 0.0));
  for (auto& t : threads) t.join();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  for (const Status& s : silo_status) EXPECT_TRUE(s.ok()) << s.ToString();

  // Serial reference over the SECURE reduce: fixed-point encode + pairwise
  // masks that cancel in the sum. The masked wire transport must land on
  // exactly these parameters (AggregateDeltas(..., secure=true, ...) ==
  // sum of MaskDelta vectors, unmasked).
  Vec ref(dim, 0.0);
  for (int step = 0; step < steps; ++step) {
    std::vector<Vec> deltas(silos);
    for (int s = 0; s < silos; ++s) {
      ASSERT_TRUE(net::MakeAsyncDemoWork(kWorkSeed, s, dim)(
                      static_cast<uint64_t>(step), ref, &deltas[s])
                      .ok());
    }
    Vec sum = AggregateDeltas(deltas, /*secure=*/true,
                              static_cast<uint64_t>(step), nullptr);
    Axpy(kStepScale, sum, ref);
  }
  EXPECT_EQ(out.value(), ref);
  EXPECT_EQ(server.session().stats.applied,
            static_cast<int64_t>(steps * silos));
}

net::AsyncRoundsConfig MaskedConfig() {
  net::AsyncRoundsConfig config = ElasticConfig(false);
  config.masked = true;
  return config;
}

/// Joins a fixed cohort run under `config` as `silo` and waits for its
/// step-0 release.
Status JoinCohort(net::Transport& t, const net::AsyncRoundsConfig& config,
                  int silo, int silos, int dim) {
  net::JoinMsg join;
  join.silo_id = static_cast<uint32_t>(silo);
  join.num_silos = static_cast<uint32_t>(silos);
  join.num_users = static_cast<uint32_t>(dim);
  join.config_digest = net::AsyncRoundsWireDigest(config, silos, dim);
  ULDP_RETURN_IF_ERROR(t.Send(net::ToFrame(join)));
  return t.Recv().status();
}

/// The server's verdict on this silo: an Error frame, an Evict frame (its
/// code and reason), or a close.
Status AwaitVerdict(net::Transport& t) {
  auto frame = net::UnwrapErrorFrame(t.Recv(), "server");
  if (!frame.ok()) return frame.status();
  if (frame.value().type != static_cast<uint16_t>(net::MessageType::kEvict)) {
    return Status::Ok();
  }
  auto evict = net::FromFrame<net::EvictMsg>(frame.value());
  if (!evict.ok()) return evict.status();
  return Status(static_cast<StatusCode>(evict.value().code),
                evict.value().reason);
}

/// Runs a cohort of `silos` over channels under `config`: silo 0 serves
/// `silo0` (its own transport end). Every other silo joins and then only
/// awaits the server's verdict, so no step can flush before the server has
/// judged every frame silo 0 sent. Returns the server's Run result; silo
/// statuses land in `silo_status`.
Result<Vec> RunFakeSiloCohort(
    const net::AsyncRoundsConfig& config, int silos, int dim,
    const std::function<Status(net::Transport&)>& silo0,
    std::vector<Status>* silo_status) {
  std::vector<std::unique_ptr<net::Transport>> server_ends, silo_ends;
  for (int s = 0; s < silos; ++s) {
    auto [a, b] = net::ChannelTransport::CreatePair();
    server_ends.push_back(std::move(a));
    silo_ends.push_back(std::move(b));
  }
  silo_status->assign(silos, Status::Ok());
  std::vector<std::thread> threads;
  for (int s = 0; s < silos; ++s) {
    threads.emplace_back([&, s] {
      net::Transport& t = *silo_ends[s];
      if (s == 0) {
        (*silo_status)[s] = silo0(t);
      } else {
        Status joined = JoinCohort(t, config, s, silos, dim);
        (*silo_status)[s] = joined.ok() ? AwaitVerdict(t) : joined;
      }
    });
  }
  Result<Vec> out = Status::Internal("connection rejected");
  {
    net::AsyncRoundServer server(config, silos, dim);
    bool joined = true;
    for (auto& end : server_ends) {
      joined = joined && server.AddConnection(std::move(end)).ok();
    }
    if (joined) out = server.Run(/*num_steps=*/2, Vec(dim, 0.0));
  }
  for (auto& t : threads) t.join();
  return out;
}

/// Silo 0 of a 2-silo fixed cohort at dim 4, run under `config`, sends
/// `frames` as its step-0 uploads. The run must fail with InvalidArgument
/// carrying `text` on the server and on silo 0, without aborting.
void ExpectVerdict(const net::AsyncRoundsConfig& config,
                   const std::vector<net::Frame>& frames,
                   const std::string& text) {
  const int silos = 2, dim = 4;
  std::vector<Status> silo_status;
  auto out = RunFakeSiloCohort(
      config, silos, dim,
      [&](net::Transport& t) -> Status {
        ULDP_RETURN_IF_ERROR(JoinCohort(t, config, 0, silos, dim));
        for (const net::Frame& frame : frames) {
          ULDP_RETURN_IF_ERROR(t.Send(frame));
        }
        return AwaitVerdict(t);
      },
      &silo_status);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument)
      << out.status().ToString();
  EXPECT_NE(out.status().message().find(text), std::string::npos)
      << out.status().ToString();
  EXPECT_EQ(silo_status[0].code(), StatusCode::kInvalidArgument)
      << silo_status[0].ToString();
  EXPECT_NE(silo_status[0].message().find(text), std::string::npos)
      << silo_status[0].ToString();
}

/// A well-formed step-0 masked vector from silo 0 at dim 4 (zeros).
net::MaskedVectorMsg StepZeroVector() {
  net::MaskedVectorMsg msg;
  msg.phase_tag = MakeMaskTag(MaskPhase::kFlAggregation, 0);
  msg.party_id = 0;
  msg.values = FieldVector(4, kAggregationLimbs);
  return msg;
}

TEST(MaskedTransportTest, OutOfFieldElementFailsTheRunInsteadOfAborting) {
  // A silo whose masked vector carries an element outside [0, p) used to
  // reach the fixed-point decoder's range CHECK and abort the server.
  // Element 2 of four is p, 2^127 or 2^128 - 1, written as raw limbs.
  const uint64_t ones = ~uint64_t{0};
  const std::pair<uint64_t, uint64_t> hostile[] = {
      {ones, ones >> 1}, {0, uint64_t{1} << 63}, {ones, ones}};
  for (const auto& [lo, hi] : hostile) {
    SCOPED_TRACE(std::to_string(hi) + ":" + std::to_string(lo));
    net::WireWriter w;
    w.U64(MakeMaskTag(MaskPhase::kFlAggregation, 0));
    w.U32(0);
    w.U32(4);
    for (uint64_t limb : {uint64_t{1}, uint64_t{0}, uint64_t{2}, uint64_t{0},
                          lo, hi, uint64_t{3}, uint64_t{0}}) {
      w.U64(limb);
    }
    net::Frame frame;
    frame.type = static_cast<uint16_t>(net::MessageType::kMaskedVector);
    frame.payload = w.Take();
    ExpectVerdict(MaskedConfig(), {frame},
                  "field element 2 is not below the modulus");
  }
}

TEST(MaskedTransportTest, MisaddressedVectorsFailTheRunWithTheirVerdict) {
  // Each branch of the server's masked-vector check, reached by a fake
  // silo over a channel: a wrong phase, a wrong round, a wrong party id, a
  // short vector, and a second vector in one step.
  net::MaskedVectorMsg wrong_phase = StepZeroVector();
  wrong_phase.phase_tag = MakeMaskTag(MaskPhase::kHistogramBlind, 0);
  ExpectVerdict(MaskedConfig(), {net::ToFrame(wrong_phase)},
                      "masked vector with a wrong phase tag");

  net::MaskedVectorMsg wrong_round = StepZeroVector();
  wrong_round.phase_tag = MakeMaskTag(MaskPhase::kFlAggregation, 1);
  ExpectVerdict(MaskedConfig(), {net::ToFrame(wrong_round)},
                      "masked vector with a wrong phase tag");

  net::MaskedVectorMsg wrong_party = StepZeroVector();
  wrong_party.party_id = 1;
  ExpectVerdict(MaskedConfig(), {net::ToFrame(wrong_party)},
                      "masked vector from wrong silo");

  net::MaskedVectorMsg short_vector = StepZeroVector();
  short_vector.values = FieldVector(3, kAggregationLimbs);
  ExpectVerdict(MaskedConfig(), {net::ToFrame(short_vector)},
                      "masked vector dimension mismatch");

  const net::Frame valid = net::ToFrame(StepZeroVector());
  ExpectVerdict(MaskedConfig(), {valid, valid},
                "duplicate masked vector for this step");
}

TEST(MaskedTransportTest, UnencodableDeltaFailsTheSiloWithAStatus) {
  // A work function that yields a non-finite or out-of-range coordinate
  // used to abort the masking silo; now its client returns
  // InvalidArgument and the server fails the run.
  const int silos = 2, dim = 4;
  const net::AsyncRoundsConfig config = MaskedConfig();
  for (double bad : {std::nan(""), HUGE_VAL, 1e9}) {
    SCOPED_TRACE(bad);
    std::vector<Status> silo_status;
    auto out = RunFakeSiloCohort(
        config, silos, dim,
        [&](net::Transport& t) {
          net::AsyncRoundClient client(config, 0, silos, dim);
          return client.Run(t, [&](uint64_t, const Vec&, Vec* delta) {
            *delta = Vec(dim, 0.5);
            (*delta)[2] = bad;
            return Status::Ok();
          });
        },
        &silo_status);
    EXPECT_EQ(silo_status[0].code(), StatusCode::kInvalidArgument)
        << silo_status[0].ToString();
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument)
        << out.status().ToString();
  }
}

/// A well-formed step-0 RoundAck from silo 0 at dim 4 (zeros).
net::RoundAckMsg StepZeroAck() {
  net::RoundAckMsg msg;
  msg.version = 0;
  msg.silo_id = 0;
  msg.delta = Vec(4, 0.0);
  return msg;
}

/// The three RoundAck verdicts of the plaintext server, with their text.
std::vector<std::pair<net::RoundAckMsg, std::string>> MisaddressedAcks() {
  net::RoundAckMsg wrong_silo = StepZeroAck();
  wrong_silo.silo_id = 1;
  net::RoundAckMsg short_delta = StepZeroAck();
  short_delta.delta = Vec(3, 0.0);
  net::RoundAckMsg future = StepZeroAck();
  future.version = 1;
  return {{wrong_silo, "round ack from wrong silo id"},
          {short_delta, "round ack dimension mismatch"},
          {future, "round ack from the future"}};
}

TEST(PlainTransportTest, MisaddressedAcksFailTheStaticRunWithTheirVerdict) {
  // Each branch of the plaintext server's RoundAck check, reached by a
  // fake silo over a channel, fails a fixed cohort's run.
  for (const auto& [ack, text] : MisaddressedAcks()) {
    SCOPED_TRACE(text);
    ExpectVerdict(ElasticConfig(false), {net::ToFrame(ack)}, text);
  }
  // A second ack for one release would fill the step with one silo's
  // delta twice.
  const net::Frame valid = net::ToFrame(StepZeroAck());
  ExpectVerdict(ElasticConfig(false), {valid, valid},
                "round ack with no release outstanding");
}

TEST(PlainTransportTest, MisaddressedAckEvictsTheSiloFromAnElasticRun) {
  // The same verdicts on an elastic cohort evict the sender (it hears the
  // verdict in its Evict frame) and the run finishes with the others:
  // every flush then holds silos {1, 2}, rescaled by 3/2.
  const int silos = 3, dim = 4, steps = 2;
  const net::AsyncRoundsConfig config = ElasticConfig(true);
  for (const auto& [ack, text] : MisaddressedAcks()) {
    SCOPED_TRACE(text);
    std::vector<std::unique_ptr<net::Transport>> server_ends, silo_ends;
    for (int s = 0; s < silos; ++s) {
      auto [a, b] = net::ChannelTransport::CreatePair();
      server_ends.push_back(std::move(a));
      silo_ends.push_back(std::move(b));
    }
    std::vector<Status> silo_status(silos, Status::Ok());
    std::vector<std::thread> threads;
    threads.emplace_back([&, &ack = ack] {
      net::Transport& t = *silo_ends[0];
      Status joined = JoinCohort(t, config, 0, silos, dim);
      if (joined.ok()) joined = t.Send(net::ToFrame(ack));
      silo_status[0] = joined.ok() ? AwaitVerdict(t) : joined;
    });
    for (int s = 1; s < silos; ++s) {
      threads.emplace_back([&, s] {
        silo_status[s] =
            net::RunAsyncDemoSilo(config, s, silos, dim, *silo_ends[s]);
      });
    }
    net::AsyncRoundServer server(config, silos, dim);
    for (auto& end : server_ends) {
      ASSERT_TRUE(server.AddConnection(std::move(end)).ok());
    }
    auto out = server.Run(steps, Vec(dim, 0.0));
    for (auto& t : threads) t.join();
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out.value(), ScheduleReference(silos, dim, {{1, 2}, {1, 2}}));
    EXPECT_EQ(server.evictions(), 1);
    ASSERT_NE(server.session().Find(0), nullptr);
    EXPECT_EQ(server.session().Find(0)->status, SiloStatus::kEvicted);
    EXPECT_EQ(silo_status[0].code(), StatusCode::kInvalidArgument)
        << silo_status[0].ToString();
    EXPECT_NE(silo_status[0].message().find(text), std::string::npos)
        << silo_status[0].ToString();
    EXPECT_TRUE(silo_status[1].ok()) << silo_status[1].ToString();
    EXPECT_TRUE(silo_status[2].ok()) << silo_status[2].ToString();
  }
}

// ---------------------------------------------------------------------------
// Fatal paths: every way a run ends early tells each silo why

/// Fails the server's `fail_at`-th StalenessInfo to one silo (1 = the
/// first) with Internal "injected send failure"; every other frame,
/// Evict and Error included, goes through.
class FailingReleaseTransport : public net::Transport {
 public:
  FailingReleaseTransport(std::unique_ptr<net::Transport> inner, int fail_at)
      : inner_(std::move(inner)), fail_at_(fail_at) {}

  Status Send(const net::Frame& frame) override {
    if (frame.type ==
            static_cast<uint16_t>(net::MessageType::kStalenessInfo) &&
        ++releases_ == fail_at_) {
      return Status::Internal("injected send failure");
    }
    return inner_->Send(frame);
  }
  Result<net::Frame> Recv() override { return inner_->Recv(); }
  void Close() override { inner_->Close(); }
  void Interrupt() override { inner_->Interrupt(); }
  int NativeHandle() const override { return inner_->NativeHandle(); }
  Result<bool> TryReadFrame(net::Frame* out) override {
    return inner_->TryReadFrame(out);
  }

 private:
  std::unique_ptr<net::Transport> inner_;
  int fail_at_;
  int releases_ = 0;
};

struct CohortRun {
  Result<Vec> out = Status::Internal("not run");
  std::vector<Status> silo_status;
  int64_t evictions = 0;
};

/// Runs `options.size()` demo silos over channels for `steps` steps under
/// `config`, silo s with options[s]. With `fail_release_at` > 0, silo 1's
/// server end fails that StalenessInfo (FailingReleaseTransport).
CohortRun RunDemoCohort(const net::AsyncRoundsConfig& config, int dim,
                        int steps,
                        const std::vector<net::AsyncDemoOptions>& options,
                        int fail_release_at = 0) {
  const int silos = static_cast<int>(options.size());
  std::vector<std::unique_ptr<net::Transport>> server_ends, silo_ends;
  for (int s = 0; s < silos; ++s) {
    auto [a, b] = net::ChannelTransport::CreatePair();
    server_ends.push_back(std::move(a));
    silo_ends.push_back(std::move(b));
  }
  if (fail_release_at > 0) {
    server_ends[1] = std::make_unique<FailingReleaseTransport>(
        std::move(server_ends[1]), fail_release_at);
  }
  CohortRun run;
  run.silo_status.assign(silos, Status::Ok());
  std::vector<std::thread> threads;
  for (int s = 0; s < silos; ++s) {
    threads.emplace_back([&, s] {
      run.silo_status[s] = net::RunAsyncDemoSilo(config, s, silos, dim,
                                                 *silo_ends[s], options[s]);
    });
  }
  {
    net::AsyncRoundServer server(config, silos, dim);
    bool joined = true;
    for (auto& end : server_ends) {
      joined = joined && server.AddConnection(std::move(end)).ok();
    }
    if (joined) run.out = server.Run(steps, Vec(dim, 0.0));
    run.evictions = server.evictions();
  }
  for (auto& t : threads) t.join();
  return run;
}

TEST(FatalPathTest, MinSilosBreachReachesTheSurvivorAsAnErrorFrame) {
  // Silo 1 leaves at version 2, which drops an elastic cohort with
  // min_silos = 2 to one silo. The run fails, and silo 0 hears the
  // server's verdict instead of a closed connection.
  net::AsyncRoundsConfig config = ElasticConfig(true);
  config.min_silos = 2;
  std::vector<net::AsyncDemoOptions> options(2);
  options[1].leave_at_version = 2;
  CohortRun run = RunDemoCohort(config, /*dim=*/4, /*steps=*/4, options);
  ASSERT_FALSE(run.out.ok());
  EXPECT_EQ(run.out.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(run.out.status().message().find("below min_silos"),
            std::string::npos)
      << run.out.status().ToString();
  EXPECT_NE(run.silo_status[0].message().find("below min_silos"),
            std::string::npos)
      << run.silo_status[0].ToString();
  EXPECT_TRUE(run.silo_status[1].ok()) << run.silo_status[1].ToString();
}

TEST(FatalPathTest, FailedReleaseFailsAStaticRunOnEverySilo) {
  // The server's second StalenessInfo to silo 1 cannot be sent. A static
  // cohort fails the run with that status, and every silo hears it.
  CohortRun run = RunDemoCohort(ElasticConfig(false), /*dim=*/4,
                                /*steps=*/3, std::vector<net::AsyncDemoOptions>(2),
                                /*fail_release_at=*/2);
  ASSERT_FALSE(run.out.ok());
  EXPECT_EQ(run.out.status().code(), StatusCode::kInternal);
  EXPECT_NE(run.out.status().message().find("injected send failure"),
            std::string::npos)
      << run.out.status().ToString();
  for (const Status& s : run.silo_status) {
    EXPECT_NE(s.message().find("injected send failure"), std::string::npos)
        << s.ToString();
  }
}

TEST(FatalPathTest, FailedReleaseEvictsTheSiloFromAnElasticRun) {
  // The same failed send on an elastic cohort evicts silo 1 at version 1
  // (its Evict frame carries the send's status), and silo 0 finishes the
  // run alone, rescaled by 2.
  const int dim = 4;
  CohortRun run = RunDemoCohort(ElasticConfig(true), dim, /*steps=*/3,
                                std::vector<net::AsyncDemoOptions>(2),
                                /*fail_release_at=*/2);
  ASSERT_TRUE(run.out.ok()) << run.out.status().ToString();
  EXPECT_EQ(run.out.value(), ScheduleReference(2, dim, {{0, 1}, {0}, {0}}));
  EXPECT_EQ(run.evictions, 1);
  EXPECT_TRUE(run.silo_status[0].ok()) << run.silo_status[0].ToString();
  EXPECT_EQ(run.silo_status[1].code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(run.silo_status[1].message().find("injected send failure"),
            std::string::npos)
      << run.silo_status[1].ToString();
}

TEST(FatalPathTest, SiloThatNeverAnswersIsEvictedAtTheReceiveDeadline) {
  // Loopback TCP, elastic, with a 1 s receive deadline on the server ends.
  // Silo 2 joins and never answers its release: the deadline evicts it
  // with DeadlineExceeded, and silos 0 and 1 finish the run (rescaled by
  // 3/2).
  const int silos = 3, dim = 4, steps = 2;
  const net::AsyncRoundsConfig config = ElasticConfig(true);
  auto listener = net::TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  std::vector<std::unique_ptr<net::Transport>> server_ends, silo_ends;
  for (int s = 0; s < silos; ++s) {
    auto client =
        net::TcpTransport::Connect("127.0.0.1", listener.value().port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    silo_ends.push_back(std::move(client.value()));
    auto accepted = listener.value().Accept();
    ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
    ASSERT_TRUE(accepted.value()->SetRecvTimeout(1000).ok());
    server_ends.push_back(std::move(accepted.value()));
  }
  std::vector<Status> silo_status(silos, Status::Ok());
  std::vector<std::thread> threads;
  for (int s = 0; s < silos; ++s) {
    threads.emplace_back([&, s] {
      net::Transport& t = *silo_ends[s];
      if (s < 2) {
        silo_status[s] = net::RunAsyncDemoSilo(config, s, silos, dim, t);
        return;
      }
      Status joined = JoinCohort(t, config, s, silos, dim);
      silo_status[s] = joined.ok() ? AwaitVerdict(t) : joined;
    });
  }
  net::AsyncRoundServer server(config, silos, dim);
  for (auto& end : server_ends) {
    ASSERT_TRUE(server.AddConnection(std::move(end)).ok());
  }
  auto out = server.Run(steps, Vec(dim, 0.0));
  for (auto& t : threads) t.join();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value(), ScheduleReference(silos, dim, {{0, 1}, {0, 1}}));
  EXPECT_EQ(server.evictions(), 1);
  EXPECT_EQ(server.session().Find(2)->status, SiloStatus::kEvicted);
  EXPECT_TRUE(silo_status[0].ok()) << silo_status[0].ToString();
  EXPECT_TRUE(silo_status[1].ok()) << silo_status[1].ToString();
  EXPECT_EQ(silo_status[2].code(), StatusCode::kDeadlineExceeded)
      << silo_status[2].ToString();
}

}  // namespace
}  // namespace uldp
