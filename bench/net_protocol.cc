// Transport-subsystem bench: one Protocol 1 setup plus several weighting
// rounds run three ways — in-process (direct core calls), over
// ChannelTransport (in-process queues through the full wire codec), and
// over loopback TCP — reporting per-transport round latency and the bytes
// on the wire per server phase. Asserts that all three paths produce
// bitwise-identical aggregates (the subsystem's must-hold invariant) and
// exits non-zero otherwise, so CI catches codec or driver divergence.
//
// Emits BENCH_net_protocol.json. ULDP_BENCH_SMOKE=1 shrinks the scale for
// CI; ULDP_BENCH_SCALE=full grows it toward paper-scale parameters.

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "bench_common.h"
#include "core/private_weighting.h"
#include "net/demo.h"
#include "net/protocol_node.h"
#include "net/tcp.h"
#include "net/transcript.h"
#include "net/transport.h"

namespace uldp {
namespace {

using Clock = std::chrono::steady_clock;
using net::ChannelTransport;
using net::DemoInputs;
using net::ProtocolServer;
using net::TcpListener;
using net::TcpTransport;
using net::Transport;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct BenchScale {
  int silos;
  int users;
  int dim;
  int rounds;
  int paillier_bits;
};

struct DistributedResult {
  std::vector<Vec> outs;
  double setup_s = 0.0;
  double round_s = 0.0;  // mean seconds per round
  std::vector<net::NetPhaseStats> phases;
  uint64_t total_bytes = 0;
};

ProtocolConfig MakeConfig(const BenchScale& scale) {
  ProtocolConfig config;
  config.paillier_bits = scale.paillier_bits;
  config.n_max = 30;
  config.seed = 99;
  return config;
}

constexpr uint64_t kInputSeed = 2026;

DistributedResult RunDistributed(
    const ProtocolConfig& config, const BenchScale& scale,
    std::vector<std::unique_ptr<Transport>> server_ends,
    std::vector<std::unique_ptr<Transport>> silo_ends) {
  std::vector<std::thread> threads;
  std::vector<Status> silo_status(scale.silos, Status::Ok());
  for (int s = 0; s < scale.silos; ++s) {
    threads.emplace_back([&, s] {
      silo_status[s] =
          net::RunDemoSilo(config, s, scale.silos, scale.users, scale.dim,
                           kInputSeed, *silo_ends[s]);
    });
  }

  DistributedResult result;
  ProtocolServer server(config, scale.silos, scale.users);
  auto t0 = Clock::now();
  for (auto& end : server_ends) {
    auto added = server.AddConnection(std::move(end));
    if (!added.ok()) {
      std::cerr << "AddConnection: " << added.ToString() << "\n";
      std::exit(1);
    }
  }
  Status setup = server.RunSetup();
  if (!setup.ok()) {
    std::cerr << "RunSetup: " << setup.ToString() << "\n";
    std::exit(1);
  }
  result.setup_s = SecondsSince(t0);

  std::vector<bool> mask(scale.users, true);
  t0 = Clock::now();
  for (int r = 0; r < scale.rounds; ++r) {
    auto out = server.RunRound(r, mask);
    if (!out.ok()) {
      std::cerr << "RunRound: " << out.status().ToString() << "\n";
      std::exit(1);
    }
    result.outs.push_back(std::move(out.value()));
  }
  result.round_s = SecondsSince(t0) / scale.rounds;
  Status shutdown = server.Shutdown();
  if (!shutdown.ok()) {
    std::cerr << "Shutdown: " << shutdown.ToString() << "\n";
    std::exit(1);
  }
  for (auto& t : threads) t.join();
  for (const Status& s : silo_status) {
    if (!s.ok()) {
      std::cerr << "silo: " << s.ToString() << "\n";
      std::exit(1);
    }
  }
  result.phases = server.phase_stats();
  result.total_bytes =
      server.total_bytes_sent() + server.total_bytes_received();
  return result;
}

DistributedResult RunOverChannels(const ProtocolConfig& config,
                                  const BenchScale& scale) {
  std::vector<std::unique_ptr<Transport>> server_ends, silo_ends;
  for (int s = 0; s < scale.silos; ++s) {
    auto [a, b] = ChannelTransport::CreatePair();
    server_ends.push_back(std::move(a));
    silo_ends.push_back(std::move(b));
  }
  return RunDistributed(config, scale, std::move(server_ends),
                        std::move(silo_ends));
}

/// RunOverChannels with a TranscriptLog recording the server side (one
/// entry per frame the server sends or receives, SHA-256-chained) —
/// the recording-overhead series. The snapshot is returned through
/// `server_log` for in-bench verification.
DistributedResult RunOverChannelsRecorded(
    const ProtocolConfig& config, const BenchScale& scale,
    net::TranscriptFile* server_transcript) {
  std::vector<std::unique_ptr<Transport>> server_ends, silo_ends;
  auto log = std::make_shared<net::TranscriptLog>(
      net::TranscriptMeta::FromProtocolConfig(
          config, net::TranscriptRole::kProtocolServer, 0, scale.silos,
          scale.users, scale.dim, scale.rounds));
  for (int s = 0; s < scale.silos; ++s) {
    auto [a, b] = ChannelTransport::CreatePair();
    a->BindTranscript(log, static_cast<uint32_t>(s));
    server_ends.push_back(std::move(a));
    silo_ends.push_back(std::move(b));
  }
  DistributedResult result = RunDistributed(config, scale,
                                            std::move(server_ends),
                                            std::move(silo_ends));
  *server_transcript = log->Snapshot();
  return result;
}

DistributedResult RunOverTcp(const ProtocolConfig& config,
                             const BenchScale& scale) {
  auto listener = TcpListener::Listen(0);
  if (!listener.ok()) {
    std::cerr << listener.status().ToString() << "\n";
    std::exit(1);
  }
  std::vector<std::unique_ptr<Transport>> server_ends, silo_ends;
  for (int s = 0; s < scale.silos; ++s) {
    auto client = TcpTransport::Connect("127.0.0.1", listener.value().port());
    if (!client.ok()) {
      std::cerr << client.status().ToString() << "\n";
      std::exit(1);
    }
    silo_ends.push_back(std::move(client.value()));
    auto accepted = listener.value().Accept();
    if (!accepted.ok()) {
      std::cerr << accepted.status().ToString() << "\n";
      std::exit(1);
    }
    server_ends.push_back(std::move(accepted.value()));
  }
  return RunDistributed(config, scale, std::move(server_ends),
                        std::move(silo_ends));
}

int Run() {
  const bool smoke = std::getenv("ULDP_BENCH_SMOKE") != nullptr;
  BenchScale scale;
  scale.silos = smoke ? 2 : bench::Scaled(3, 5);
  scale.users = smoke ? 4 : bench::Scaled(10, 100);
  scale.dim = smoke ? 4 : bench::Scaled(32, 256);
  scale.rounds = smoke ? 1 : bench::Scaled(2, 5);
  scale.paillier_bits = smoke ? 512 : bench::Scaled(512, 1024);

  std::cout << "net_protocol bench: " << scale.silos << " silos, "
            << scale.users << " users, dim " << scale.dim << ", "
            << scale.rounds << " round(s), " << scale.paillier_bits
            << "-bit Paillier\n";

  bench::BenchJson json("net_protocol");

  // In-process reference (no transport, direct core calls).
  ProtocolConfig config = MakeConfig(scale);
  DemoInputs in =
      net::MakeDemoInputs(kInputSeed, scale.silos, scale.users, scale.dim);
  PrivateWeightingProtocol protocol(config, scale.silos, scale.users);
  auto t0 = Clock::now();
  Status setup = protocol.Setup(in.histograms);
  if (!setup.ok()) {
    std::cerr << setup.ToString() << "\n";
    return 1;
  }
  double inproc_setup_s = SecondsSince(t0);
  std::vector<bool> mask(scale.users, true);
  std::vector<Vec> reference;
  t0 = Clock::now();
  for (int r = 0; r < scale.rounds; ++r) {
    auto out = protocol.WeightingRound(r, in.deltas, in.noise, mask);
    if (!out.ok()) {
      std::cerr << out.status().ToString() << "\n";
      return 1;
    }
    reference.push_back(std::move(out.value()));
  }
  double inproc_round_s = SecondsSince(t0) / scale.rounds;
  json.Add("setup_seconds", inproc_setup_s, {{"transport", "in_process"}});
  json.Add("round_seconds", inproc_round_s, {{"transport", "in_process"}});
  std::cout << "  in-process: setup " << inproc_setup_s << " s, round "
            << inproc_round_s << " s\n";

  struct Backend {
    const char* name;
    DistributedResult result;
  };
  Backend backends[] = {
      {"channel", RunOverChannels(config, scale)},
      {"tcp_loopback", RunOverTcp(config, scale)},
  };
  for (const Backend& backend : backends) {
    const DistributedResult& r = backend.result;
    if (r.outs != reference) {
      std::cerr << "FATAL: " << backend.name
                << " aggregates diverge from the in-process reference\n";
      return 1;
    }
    json.Add("setup_seconds", r.setup_s, {{"transport", backend.name}});
    json.Add("round_seconds", r.round_s, {{"transport", backend.name}});
    json.Add("total_bytes", static_cast<double>(r.total_bytes),
             {{"transport", backend.name}});
    std::cout << "  " << backend.name << ": setup " << r.setup_s
              << " s, round " << r.round_s << " s, "
              << r.total_bytes << " bytes total (bitwise match)\n";
    for (const auto& phase : r.phases) {
      json.Add("phase_bytes_sent", static_cast<double>(phase.bytes_sent),
               {{"transport", backend.name}, {"phase", phase.phase}});
      json.Add("phase_bytes_received",
               static_cast<double>(phase.bytes_received),
               {{"transport", backend.name}, {"phase", phase.phase}});
      json.Add("phase_seconds", phase.seconds,
               {{"transport", backend.name}, {"phase", phase.phase}});
      std::cout << "    phase " << phase.phase << ": sent "
                << phase.bytes_sent << " B, received "
                << phase.bytes_received << " B, " << phase.seconds
                << " s\n";
    }
  }
  // -- Ciphertext packing: weighting-phase wire bytes at k in {1, 4, 8} --
  // Fixed scale in every mode so the gated byte counts stay deterministic:
  // the silo->server cipher frames are the per-round traffic packing
  // shrinks (ceil(dim/k) ciphertexts instead of dim per silo), and all
  // packed runs must decode bitwise identical to the unpacked one.
  BenchScale pscale;
  pscale.silos = 2;
  pscale.users = 4;
  pscale.dim = 32;
  pscale.rounds = 1;
  pscale.paillier_bits = 512;
  std::cout << "\npacked weighting-phase bytes (channel transport, dim "
            << pscale.dim << ", 512-bit):\n";
  auto packed_config = [&](int k) {
    ProtocolConfig c = MakeConfig(pscale);
    c.n_max = 8;  // C_LCM = 840, so pack_slots = 8 fits a 512-bit plaintext
    c.precision = 1e-6;
    c.pack_clip = 8.0;
    c.pack_slots = k;
    return c;
  };
  auto cipher_bytes = [](const DistributedResult& r) {
    for (const auto& p : r.phases) {
      if (p.phase == "silo_ciphers") {
        return static_cast<double>(p.bytes_received);
      }
    }
    return 0.0;
  };
  std::vector<Vec> packed_reference;
  double unpacked_bytes = 0.0;
  for (int k : {1, 2, 4, 8}) {
    DistributedResult r = RunOverChannels(packed_config(k), pscale);
    if (k == 1) {
      packed_reference = r.outs;
      unpacked_bytes = cipher_bytes(r);
    } else if (r.outs != packed_reference) {
      std::cerr << "FATAL: pack_slots=" << k
                << " aggregates diverge from the unpacked reference\n";
      return 1;
    }
    const double bytes = cipher_bytes(r);
    const int cdim = (pscale.dim + k - 1) / k;
    const std::string ks = std::to_string(k);
    json.Add("packed_weighting_bytes", bytes, {{"pack_slots", ks}});
    json.Add("packed_round_seconds", r.round_s, {{"pack_slots", ks}});
    std::cout << "  pack_slots " << k << ": " << cdim
              << " ciphertexts/silo, " << bytes
              << " B silo->server cipher traffic";
    if (k > 1) {
      json.Add("packed_cipher_count_reduction",
               static_cast<double>(pscale.dim) / cdim, {{"pack_slots", ks}});
      json.Add("packed_weighting_bytes_reduction", unpacked_bytes / bytes,
               {{"pack_slots", ks}});
      std::cout << " (" << pscale.dim / static_cast<double>(cdim)
                << "x fewer ciphertexts, " << unpacked_bytes / bytes
                << "x fewer bytes, bitwise match)";
    }
    std::cout << "\n";
  }
  json.Add("packed_bitwise_identical", 1.0);

  // -- Transcript recording: round-time overhead + in-bench verification --
  // The same fixed scale as the packed series, channel transport, with
  // the server recording a hash-chained transcript of every frame.
  // The overhead is the median of per-pair ratios over 101 pairs whose run
  // order alternates, with every party on one thread, which keeps it
  // honest under runner noise (one pair's ratio scatters by ~15%); the
  // recorded run must stay bitwise identical to the unrecorded one (the
  // tap is passive), and the transcript itself must chain-verify and
  // replay byte-for-byte before the bench reports success.
  BenchScale tscale;
  tscale.silos = 2;
  tscale.users = 4;
  tscale.dim = 32;
  tscale.rounds = 2;
  tscale.paillier_bits = 512;
  ProtocolConfig tconfig = MakeConfig(tscale);
  tconfig.num_threads = 1;
  constexpr int kTranscriptPairs = 101;
  double off_min = -1.0, on_min = -1.0;
  std::vector<Vec> transcript_reference;
  bool transcript_identical = true;
  net::TranscriptFile transcript;
  // Both arms check their aggregates against the first run's and keep
  // their own min-of-N for the printed round times.
  auto timed = [&](bool recorded, double* arm_min) {
    DistributedResult run =
        recorded ? RunOverChannelsRecorded(tconfig, tscale, &transcript)
                 : RunOverChannels(tconfig, tscale);
    if (transcript_reference.empty()) transcript_reference = run.outs;
    transcript_identical =
        transcript_identical && run.outs == transcript_reference;
    if (*arm_min < 0.0 || run.round_s < *arm_min) *arm_min = run.round_s;
    return run.round_s;
  };
  const double overhead = bench::MedianPairedRatio(
      kTranscriptPairs, [&] { return timed(false, &off_min); },
      [&] { return timed(true, &on_min); });
  if (!transcript_identical) {
    std::cerr << "FATAL: transcript-recorded run diverges from the "
                 "unrecorded reference\n";
    return 1;
  }
  if (overhead < 0.0) {
    std::cerr << "FATAL: transcript series measured no round time\n";
    return 1;
  }
  Status chain = transcript.VerifyChain();
  if (!chain.ok()) {
    std::cerr << "FATAL: recorded transcript fails chain verification: "
              << chain.ToString() << "\n";
    return 1;
  }
  net::ReplayReport report;
  Status replayed = net::VerifyTranscript(transcript, nullptr, &report);
  if (!replayed.ok()) {
    std::cerr << "FATAL: recorded transcript fails replay verification: "
              << replayed.ToString() << "\n";
    return 1;
  }
  json.Add("transcript_round_seconds", off_min, {{"recording", "off"}});
  json.Add("transcript_round_seconds", on_min, {{"recording", "on"}});
  json.Add("transcript_round_overhead", overhead);
  json.Add("transcript_frames",
           static_cast<double>(transcript.entries.size()));
  json.Add("transcript_verify_ok", 1.0);
  std::cout << "\ntranscript recording (channel transport, dim "
            << tscale.dim << ", 512-bit): round min off " << off_min
            << " s, on " << on_min << " s (median pair ratio " << overhead
            << "x), " << transcript.entries.size()
            << " frames chained; replay reproduced "
            << report.frames_matched << " outbound frames byte-for-byte\n";

  json.Write();
  std::cout << "wrote BENCH_net_protocol.json\n";
  return 0;
}

}  // namespace
}  // namespace uldp

int main() { return uldp::Run(); }
