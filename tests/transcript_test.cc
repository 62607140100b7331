// Tamper-evidence guarantees of the transcript subsystem
// (net/transcript.h): every corruption class is rejected by the layer
// built to catch it — the trailing digest stops accidental damage, the
// hash chain stops digest-fixed edits/reorders/splices, the HMAC stops
// full re-chains, and deterministic replay stops the one forgery hashing
// cannot see: an honestly re-recorded transcript around a substituted,
// well-formed frame.

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "core/private_weighting.h"
#include "crypto/hmac.h"
#include "net/demo.h"
#include "net/protocol_node.h"
#include "net/transcript.h"
#include "net/transport.h"
#include "net/wire.h"

namespace uldp {
namespace net {
namespace {

constexpr int kSilos = 2;
constexpr int kUsers = 4;
constexpr int kDim = 4;
constexpr int kRounds = 2;

ProtocolConfig TestConfig() {
  ProtocolConfig config;
  config.paillier_bits = 512;
  config.n_max = 8;
  config.precision = 1e-6;
  config.seed = 77;
  return config;
}

std::vector<uint8_t> TestKey() { return {0xa5, 0x5a, 0x00, 0xff, 0x42}; }

struct RecordedRun {
  std::vector<Vec> aggregates;
  TranscriptFile server;
  std::vector<TranscriptFile> silos;  // [silo id]
};

/// A full distributed run over channel transports with every party
/// recording: the same harness as net_protocol_test, plus one
/// TranscriptLog per party bound to its transports (peer id = connection
/// index on the server, 0 on each silo). Silo inputs are derived from
/// config.seed, matching the CLI convention the replayer assumes.
RecordedRun RunRecorded(const ProtocolConfig& config) {
  std::vector<std::unique_ptr<Transport>> server_ends, silo_ends;
  for (int s = 0; s < kSilos; ++s) {
    auto [a, b] = ChannelTransport::CreatePair();
    server_ends.push_back(std::move(a));
    silo_ends.push_back(std::move(b));
  }
  auto server_log = std::make_shared<TranscriptLog>(
      TranscriptMeta::FromProtocolConfig(
          config, TranscriptRole::kProtocolServer, 0, kSilos, kUsers, kDim,
          kRounds),
      TestKey());
  std::vector<std::shared_ptr<TranscriptLog>> silo_logs;
  for (int s = 0; s < kSilos; ++s) {
    silo_logs.push_back(std::make_shared<TranscriptLog>(
        TranscriptMeta::FromProtocolConfig(
            config, TranscriptRole::kProtocolSilo,
            static_cast<uint32_t>(s), kSilos, kUsers, kDim, 0),
        TestKey()));
    server_ends[s]->BindTranscript(server_log, static_cast<uint32_t>(s));
    silo_ends[s]->BindTranscript(silo_logs[s], 0);
  }

  std::vector<std::thread> silo_threads;
  std::vector<Status> silo_status(kSilos, Status::Ok());
  for (int s = 0; s < kSilos; ++s) {
    silo_threads.emplace_back([&, s] {
      silo_status[s] = RunDemoSilo(config, s, kSilos, kUsers, kDim,
                                   config.seed, *silo_ends[s]);
    });
  }

  RecordedRun run;
  {
    ProtocolServer server(config, kSilos, kUsers);
    for (auto& end : server_ends) {
      EXPECT_TRUE(server.AddConnection(std::move(end)).ok());
    }
    EXPECT_TRUE(server.RunSetup().ok());
    std::vector<bool> mask(kUsers, true);
    for (int r = 0; r < kRounds; ++r) {
      auto out = server.RunRound(r, mask);
      EXPECT_TRUE(out.ok()) << out.status().ToString();
      run.aggregates.push_back(out.value());
    }
    EXPECT_TRUE(server.Shutdown().ok());
    for (auto& t : silo_threads) t.join();
    for (int s = 0; s < kSilos; ++s) {
      EXPECT_TRUE(silo_status[s].ok()) << silo_status[s].ToString();
    }
  }
  run.server = server_log->Snapshot();
  for (int s = 0; s < kSilos; ++s) {
    run.silos.push_back(silo_logs[s]->Snapshot());
  }
  return run;
}

/// One plain recorded run, shared across tests (recording a 512-bit
/// protocol run is the expensive part; the corruptions are cheap).
const RecordedRun& PlainRun() {
  static const RecordedRun* run = new RecordedRun(RunRecorded(TestConfig()));
  return *run;
}

/// Recomputes every entry hash and the head from the (possibly tampered)
/// meta and entries — the forger's move against a chain they can rewrite
/// but whose HMAC key they do not hold.
void Rechain(TranscriptFile* file) {
  Sha256Digest prev = TranscriptGenesis(file->meta);
  for (size_t i = 0; i < file->entries.size(); ++i) {
    TranscriptEntry& e = file->entries[i];
    e.seq = i;
    e.hash = TranscriptEntryHash(prev, e.seq, e.peer, e.sent != 0,
                                 e.frame.data(), e.frame.size());
    prev = e.hash;
  }
  file->head = prev;
}

/// Overwrites the trailing FNV digest after a byte-level edit, so the
/// corruption reaches the parser instead of being caught by the cheap
/// outer checksum.
void FixTrailingDigest(std::vector<uint8_t>* bytes) {
  ASSERT_GE(bytes->size(), 8u);
  uint64_t digest = WireDigest(bytes->data(), bytes->size() - 8);
  for (int i = 0; i < 8; ++i) {
    (*bytes)[bytes->size() - 8 + i] =
        static_cast<uint8_t>(digest >> (8 * i));
  }
}

/// A transcript is "accepted" only when every evidence layer passes.
bool Accepted(const std::vector<uint8_t>& bytes,
              const std::vector<uint8_t>& key) {
  auto file = TranscriptFile::Deserialize(bytes);
  if (!file.ok()) return false;
  if (!file.value().VerifyChain().ok()) return false;
  if (!file.value().VerifyHmac(key).ok()) return false;
  return true;
}

/// A small synthetic transcript (chain tests need structure, not a real
/// protocol run). Frames are arbitrary byte strings derived from `tag`.
TranscriptFile SyntheticTranscript(uint64_t tag, size_t frames) {
  TranscriptMeta meta;
  meta.role = TranscriptRole::kProtocolServer;
  meta.num_silos = 2;
  meta.num_users = 4;
  meta.config.seed = tag;
  TranscriptLog log(meta);
  for (size_t i = 0; i < frames; ++i) {
    std::vector<uint8_t> frame(16 + i);
    for (size_t j = 0; j < frame.size(); ++j) {
      frame[j] = static_cast<uint8_t>(tag * 131 + i * 17 + j);
    }
    log.RecordFrame(static_cast<uint32_t>(i % 2), i % 3 == 0, frame.data(),
                    frame.size());
  }
  return log.Snapshot();
}

TEST(HmacTest, Rfc4231Vectors) {
  // RFC 4231 test case 2: short key "Jefe".
  std::vector<uint8_t> key2 = {'J', 'e', 'f', 'e'};
  std::string msg2 = "what do ya want for nothing?";
  Sha256Digest got2 = HmacSha256(
      key2.data(), key2.size(),
      reinterpret_cast<const uint8_t*>(msg2.data()), msg2.size());
  EXPECT_EQ(DigestToHex(got2),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec"
            "3843");

  // RFC 4231 test case 1: 20 bytes of 0x0b, message "Hi There".
  std::vector<uint8_t> key1(20, 0x0b);
  std::string msg1 = "Hi There";
  Sha256Digest got1 = HmacSha256(
      key1.data(), key1.size(),
      reinterpret_cast<const uint8_t*>(msg1.data()), msg1.size());
  EXPECT_EQ(DigestToHex(got1),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32"
            "cff7");

  // RFC 4231 test case 6: a 131-byte key (exceeds the SHA-256 block, so
  // the key-hashing branch runs).
  std::vector<uint8_t> key6(131, 0xaa);
  std::string msg6 = "Test Using Larger Than Block-Size Key - Hash Key First";
  Sha256Digest got6 = HmacSha256(
      key6.data(), key6.size(),
      reinterpret_cast<const uint8_t*>(msg6.data()), msg6.size());
  EXPECT_EQ(DigestToHex(got6),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee3"
            "7f54");

  EXPECT_TRUE(DigestEquals(got1, got1));
  EXPECT_FALSE(DigestEquals(got1, got2));
}

TEST(TranscriptTest, ParseHexKey) {
  auto key = ParseHexKey("00ffA5");
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(key.value(), (std::vector<uint8_t>{0x00, 0xff, 0xa5}));
  EXPECT_FALSE(ParseHexKey("").ok());
  EXPECT_FALSE(ParseHexKey("abc").ok());   // odd length
  EXPECT_FALSE(ParseHexKey("zz").ok());    // non-hex
}

TEST(TranscriptTest, RecordedRunVerifiesEndToEnd) {
  const RecordedRun& run = PlainRun();
  std::vector<uint8_t> key = TestKey();
  std::vector<const TranscriptFile*> all = {&run.server};
  for (const auto& s : run.silos) all.push_back(&s);
  for (const TranscriptFile* file : all) {
    EXPECT_GT(file->entries.size(), 0u);
    EXPECT_TRUE(file->VerifyChain().ok());
    EXPECT_TRUE(file->VerifyHmac(key).ok());

    // Byte-level round trip through the codec.
    auto back = TranscriptFile::Deserialize(file->Serialize());
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.value().Serialize(), file->Serialize());

    // The full verification stack, replay included: the recorded party
    // reproduces every outbound frame byte-for-byte.
    ReplayReport report;
    Status verified = VerifyTranscript(*file, &key, &report);
    EXPECT_TRUE(verified.ok()) << verified.ToString();
    EXPECT_TRUE(report.hmac_verified);
    EXPECT_FALSE(report.replay_skipped);
    EXPECT_GT(report.frames_matched, 0u);
    EXPECT_GT(report.frames_fed, 0u);
    EXPECT_EQ(report.frames_matched + report.frames_fed,
              file->entries.size());
  }
}

TEST(TranscriptTest, RecordingIsPassive) {
  // The tap must not change the run: aggregates of the recorded run are
  // bitwise identical to the unrecorded in-process reference.
  const RecordedRun& run = PlainRun();
  ProtocolConfig config = TestConfig();
  DemoInputs in = MakeDemoInputs(config.seed, kSilos, kUsers, kDim);
  PrivateWeightingProtocol protocol(config, kSilos, kUsers);
  ASSERT_TRUE(protocol.Setup(in.histograms).ok());
  std::vector<bool> mask(kUsers, true);
  for (int r = 0; r < kRounds; ++r) {
    auto out = protocol.WeightingRound(r, in.deltas, in.noise, mask);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), run.aggregates[r]) << "round " << r;
  }
}

TEST(TranscriptTest, OtPackedStreamedRunReplaysCleanly) {
  ProtocolConfig config = TestConfig();
  config.ot_slots = 4;
  config.sample_rate = 0.5;
  config.ot_group_bits = 192;
  config.pack_slots = 2;
  config.pack_clip = 8.0;
  config.stream_chunk_users = 2;
  RecordedRun run = RunRecorded(config);
  std::vector<uint8_t> key = TestKey();
  ReplayReport report;
  Status server_ok = VerifyTranscript(run.server, &key, &report);
  EXPECT_TRUE(server_ok.ok()) << server_ok.ToString();
  for (int s = 0; s < kSilos; ++s) {
    Status silo_ok = VerifyTranscript(run.silos[s], &key, nullptr);
    EXPECT_TRUE(silo_ok.ok()) << "silo " << s << ": " << silo_ok.ToString();
  }
}

TEST(TranscriptTest, EveryFlippedByteIsRejected) {
  std::vector<uint8_t> bytes = PlainRun().silos[1].Serialize();
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] ^= 0x01;
    EXPECT_FALSE(TranscriptFile::Deserialize(bytes).ok())
        << "flip at byte " << i << " was accepted";
    bytes[i] ^= 0x01;
  }
}

TEST(TranscriptTest, EveryTruncationIsRejected) {
  std::vector<uint8_t> bytes = PlainRun().silos[1].Serialize();
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    EXPECT_FALSE(TranscriptFile::Deserialize(prefix).ok())
        << "truncation to " << len << " bytes was accepted";
  }
}

TEST(TranscriptTest, DigestFixedFlipsAreRejectedByChainOrHmac) {
  // An attacker who recomputes the trailing FNV digest gets past the
  // outer checksum; the chain (or, for flips in the head/HMAC region,
  // the keyed finalizer) must still reject every edit.
  std::vector<uint8_t> clean = PlainRun().silos[1].Serialize();
  std::vector<uint8_t> key = TestKey();
  ASSERT_TRUE(Accepted(clean, key));
  for (size_t i = 0; i + 8 < clean.size(); i += 7) {
    std::vector<uint8_t> bytes = clean;
    bytes[i] ^= 0x01;
    FixTrailingDigest(&bytes);
    EXPECT_FALSE(Accepted(bytes, key))
        << "digest-fixed flip at byte " << i << " was accepted";
  }
}

TEST(TranscriptTest, OlderFormatVersionsAreRejectedAsVersionSkew) {
  // Version 2 dropped the cache_enc_weights meta byte; version 3 records
  // wire-version-2 frames (fixed-width MaskedVector elements); version 4
  // stores the meta's config in the join digest's layout and records
  // wire-version-3 frames (StreamAck without credits). An older file
  // (here: the version field patched, digest fixed up) must be refused by
  // name rather than misparsed or replayed.
  const std::vector<uint8_t> clean = PlainRun().silos[1].Serialize();
  ASSERT_EQ(clean[4] | clean[5] << 8, 4);
  for (uint8_t version : {1, 2, 3}) {
    std::vector<uint8_t> bytes = clean;
    bytes[4] = version;
    bytes[5] = 0;
    FixTrailingDigest(&bytes);
    auto file = TranscriptFile::Deserialize(bytes);
    ASSERT_FALSE(file.ok());
    EXPECT_NE(file.status().message().find(
                  "unsupported transcript format version " +
                  std::to_string(version)),
              std::string::npos)
        << file.status().ToString();
  }
}

TEST(TranscriptTest, ReorderedEntriesAreRejected) {
  TranscriptFile file = SyntheticTranscript(1, 8);
  ASSERT_TRUE(file.VerifyChain().ok());
  std::swap(file.entries[2], file.entries[5]);
  // The sequence numbers now disagree with the positions.
  EXPECT_FALSE(file.VerifyChain().ok());
  // Fixing the sequence numbers up does not help: each hash binds the
  // frame to its position through the chain.
  file.entries[2].seq = 2;
  file.entries[5].seq = 5;
  EXPECT_FALSE(file.VerifyChain().ok());
  // The trailing digest is recomputed by Serialize, so the only remaining
  // rejection really is the chain.
  auto back = TranscriptFile::Deserialize(file.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back.value().VerifyChain().ok());
}

TEST(TranscriptTest, SplicedEntriesAreRejected) {
  TranscriptFile a = SyntheticTranscript(1, 8);
  TranscriptFile b = SyntheticTranscript(2, 8);
  ASSERT_TRUE(a.VerifyChain().ok());
  ASSERT_TRUE(b.VerifyChain().ok());
  // Splice one of B's entries (valid in B's chain, same position) into A.
  a.entries[4] = b.entries[4];
  EXPECT_FALSE(a.VerifyChain().ok());
}

TEST(TranscriptTest, RechainedForgeryIsCaughtByHmacThenReplay) {
  // The strongest chain-level forgery: tamper a frame and recompute the
  // whole chain. The chain now self-verifies — only the keyed finalizer
  // (attacker has no key) and the deterministic replay stand.
  TranscriptFile forged = PlainRun().server;
  // Tamper one payload byte of a mid-run outbound frame.
  size_t victim = forged.entries.size();
  for (size_t i = forged.entries.size() / 2; i < forged.entries.size();
       ++i) {
    if (forged.entries[i].sent != 0 &&
        forged.entries[i].frame.size() > kFrameHeaderSize) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, forged.entries.size());
  forged.entries[victim].frame.back() ^= 0x01;
  Rechain(&forged);
  EXPECT_TRUE(forged.VerifyChain().ok());

  // With the key supplied, the stale HMAC (the forger cannot recompute
  // it) is caught.
  std::vector<uint8_t> key = TestKey();
  EXPECT_FALSE(forged.VerifyHmac(key).ok());

  // Even if the forger strips the HMAC entirely, replay refuses: the
  // real party cannot reproduce the substituted frame.
  forged.has_hmac = 0;
  EXPECT_TRUE(forged.VerifyChain().ok());
  ReplayReport report;
  Status replayed = VerifyTranscript(forged, nullptr, &report);
  EXPECT_FALSE(replayed.ok());
  EXPECT_NE(replayed.ToString().find("diverg"), std::string::npos)
      << replayed.ToString();
}

TEST(TranscriptTest, ReplayDetectsSubstitutedInboundFrame) {
  // Substituting a received frame (still well-formed wire bytes) changes
  // what the party computes, so its later outbound frames diverge.
  TranscriptFile forged = PlainRun().silos[0];
  size_t victim = forged.entries.size();
  size_t best = 0;
  for (size_t i = 0; i < forged.entries.size(); ++i) {
    if (forged.entries[i].sent == 0 &&
        forged.entries[i].frame.size() > best) {
      best = forged.entries[i].frame.size();
      victim = i;
    }
  }
  ASSERT_LT(victim, forged.entries.size());
  forged.entries[victim].frame.back() ^= 0x01;
  forged.has_hmac = 0;
  Rechain(&forged);
  EXPECT_TRUE(forged.VerifyChain().ok());
  Status replayed = VerifyTranscript(forged, nullptr, nullptr);
  EXPECT_FALSE(replayed.ok());
}

TEST(TranscriptTest, ReplayNamesTheFirstDivergenceNotItsSymptom) {
  // Alter the server's round-0 RoundBegin to peer 1. Its replayed frame
  // diverges there first; the replayed server then fails the run, and
  // the Error frame it sends peer 0 diverges too. The report must name
  // peer 1 and the altered entry, not that symptom.
  TranscriptFile forged = PlainRun().server;
  size_t victim = forged.entries.size();
  for (size_t i = 0; i < forged.entries.size(); ++i) {
    const TranscriptEntry& e = forged.entries[i];
    auto frame = DecodeFrame(e.frame);
    if (e.sent != 0 && e.peer == 1 && frame.ok() &&
        frame.value().type ==
            static_cast<uint16_t>(MessageType::kRoundBegin)) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, forged.entries.size());
  forged.entries[victim].frame.back() ^= 0x01;
  Status replayed = ReplayTranscript(forged, nullptr);
  ASSERT_FALSE(replayed.ok());
  const std::string named = "transcript entry " +
                            std::to_string(forged.entries[victim].seq) +
                            " (peer 1,";
  EXPECT_NE(replayed.ToString().find(named), std::string::npos)
      << replayed.ToString();
}

TEST(TranscriptTest, TamperedMetaIsRejected) {
  std::vector<uint8_t> key = TestKey();
  // Editing the meta without re-chaining breaks every entry hash (the
  // genesis is the meta's digest).
  {
    TranscriptFile forged = PlainRun().server;
    forged.meta.rounds += 1;
    EXPECT_FALSE(forged.VerifyChain().ok());
  }
  // Re-chained with a tampered protocol seed: the stored config digest
  // no longer matches the reconstruction.
  {
    TranscriptFile forged = PlainRun().server;
    forged.meta.config.seed += 1;
    forged.has_hmac = 0;
    Rechain(&forged);
    EXPECT_TRUE(forged.VerifyChain().ok());
    Status replayed = VerifyTranscript(forged, nullptr, nullptr);
    EXPECT_FALSE(replayed.ok());
    EXPECT_NE(replayed.ToString().find("config digest"), std::string::npos)
        << replayed.ToString();
  }
  // Re-chained with an extra claimed round: replay runs out of recorded
  // traffic and refuses.
  {
    TranscriptFile forged = PlainRun().server;
    forged.meta.rounds += 1;
    forged.has_hmac = 0;
    Rechain(&forged);
    EXPECT_TRUE(forged.VerifyChain().ok());
    EXPECT_FALSE(VerifyTranscript(forged, nullptr, nullptr).ok());
  }
}

TEST(TranscriptTest, RechainedTruncationFailsReplayCompleteness) {
  // Dropping the tail and re-chaining yields a self-consistent chain of
  // a partial run; replay completeness (every recorded frame consumed,
  // every expected frame present) rejects it.
  TranscriptFile forged = PlainRun().server;
  ASSERT_GT(forged.entries.size(), 4u);
  forged.entries.resize(forged.entries.size() - 4);
  forged.has_hmac = 0;
  Rechain(&forged);
  EXPECT_TRUE(forged.VerifyChain().ok());
  EXPECT_FALSE(VerifyTranscript(forged, nullptr, nullptr).ok());
}

TEST(TranscriptTest, HmacPolicy) {
  std::vector<uint8_t> key = TestKey();
  std::vector<uint8_t> wrong = {1, 2, 3};
  const TranscriptFile& keyed = PlainRun().silos[0];
  EXPECT_TRUE(keyed.VerifyHmac(key).ok());
  EXPECT_FALSE(keyed.VerifyHmac(wrong).ok());

  // Supplying a key against a transcript that never had an HMAC is an
  // error (nothing was ever bound to any key).
  TranscriptFile unkeyed = SyntheticTranscript(3, 4);
  EXPECT_EQ(unkeyed.has_hmac, 0);
  EXPECT_FALSE(unkeyed.VerifyHmac(key).ok());

  // No key against an HMAC-bearing transcript: the keyed check is
  // skipped (flagged), everything else still runs.
  ReplayReport report;
  Status verified = VerifyTranscript(keyed, nullptr, &report);
  EXPECT_TRUE(verified.ok()) << verified.ToString();
  EXPECT_TRUE(report.hmac_skipped);
  EXPECT_FALSE(report.hmac_verified);
}

TEST(TranscriptTest, FileRoundTripAndNotFound) {
  std::string path = ::testing::TempDir() + "/transcript_test.ult";
  const TranscriptFile& file = PlainRun().silos[1];
  ASSERT_TRUE(file.WriteFile(path).ok());
  auto back = TranscriptFile::ReadFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().Serialize(), file.Serialize());
  EXPECT_TRUE(back.value().VerifyChain().ok());
  std::remove(path.c_str());

  auto missing = TranscriptFile::ReadFile(path);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace net
}  // namespace uldp
