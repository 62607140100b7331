// Standalone walk-through of Protocol 1: a server and three silos, each
// silo on its own thread, talking over in-process channels. Every frame a
// party receives is tapped and printed, so you can see exactly what the
// server and the silos observe at each step — and verify the aggregate
// against the plaintext computation at the end.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>

#include "net/messages.h"
#include "net/protocol_node.h"
#include "net/transport.h"

namespace {

using namespace uldp;

// Every frame one party received, decoded as it arrived.
class Received : public net::TranscriptSink {
 public:
  void RecordFrame(uint32_t /*peer_id*/, bool sent, const uint8_t* data,
                   size_t size) override {
    if (sent) return;
    auto frame = net::DecodeFrame(std::vector<uint8_t>(data, data + size));
    std::lock_guard<std::mutex> lock(mu_);
    if (frame.ok()) frames_.push_back(std::move(frame.value()));
  }

  template <typename Msg>
  std::vector<Msg> All() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Msg> out;
    for (const net::Frame& frame : frames_) {
      auto msg = net::FromFrame<Msg>(frame);
      if (msg.ok()) out.push_back(std::move(msg.value()));
    }
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::vector<net::Frame> frames_;
};

}  // namespace

int main() {
  const int kSilos = 3, kUsers = 4, kDim = 2;

  // Silo-private histograms n_{s,u}: who holds how many records per user.
  std::vector<std::vector<int>> histograms = {
      {3, 0, 2, 1},  // silo 0
      {1, 4, 0, 1},  // silo 1
      {0, 2, 2, 1},  // silo 2
  };
  std::vector<int> totals(kUsers, 0);
  for (const auto& h : histograms) {
    for (int u = 0; u < kUsers; ++u) totals[u] += h[u];
  }

  // Known deltas so the result is checkable; no noise.
  Rng rng(9);
  std::vector<std::vector<Vec>> deltas(kSilos, std::vector<Vec>(kUsers));
  Vec expect(kDim, 0.0);
  for (int s = 0; s < kSilos; ++s) {
    for (int u = 0; u < kUsers; ++u) {
      if (histograms[s][u] == 0) continue;
      deltas[s][u] = {rng.Gaussian(), rng.Gaussian()};
      double w = static_cast<double>(histograms[s][u]) / totals[u];
      for (int d = 0; d < kDim; ++d) expect[d] += w * deltas[s][u][d];
    }
  }

  ProtocolConfig config;
  config.paillier_bits = 768;
  config.n_max = 16;
  config.seed = 3;

  auto server_received = std::make_shared<Received>();
  auto silo0_received = std::make_shared<Received>();
  std::vector<std::unique_ptr<net::Transport>> server_ends, silo_ends;
  for (int s = 0; s < kSilos; ++s) {
    auto [a, b] = net::ChannelTransport::CreatePair();
    a->BindTranscript(server_received, static_cast<uint32_t>(s));
    if (s == 0) b->BindTranscript(silo0_received, 0);
    server_ends.push_back(std::move(a));
    silo_ends.push_back(std::move(b));
  }
  std::vector<std::thread> silos;
  std::vector<Status> silo_status(kSilos, Status::Ok());
  for (int s = 0; s < kSilos; ++s) {
    silos.emplace_back([&, s] {
      net::SiloClient client(config, s, kSilos, kUsers, histograms[s]);
      silo_status[s] = client.Run(
          *silo_ends[s], [&](uint64_t, std::vector<Vec>* d, Vec* noise) {
            *d = deltas[s];
            *noise = Vec(kDim, 0.0);
            return Status::Ok();
          });
    });
  }
  Result<Vec> out = Status::Internal("no round ran");
  {
    net::ProtocolServer server(config, kSilos, kUsers);
    Status st = Status::Ok();
    for (auto& end : server_ends) {
      if (st.ok()) st = server.AddConnection(std::move(end));
    }
    if (st.ok()) st = server.RunSetup();
    if (st.ok()) out = server.RunRound(0, std::vector<bool>(kUsers, true));
    if (st.ok() && out.ok()) st = server.Shutdown();
    if (!st.ok()) out = st;
    for (auto& t : silos) t.join();
  }
  if (!out.ok()) {
    std::cerr << out.status().ToString() << "\n";
    return 1;
  }

  const BigInt n = silo0_received->All<net::SetupParamsMsg>().at(0).paillier_n;
  std::cout << "=== Setup complete ===\n";
  std::cout << "True totals N_u:          ";
  for (int t : totals) std::cout << t << " ";
  std::cout << "\nServer receives doubly blinded histograms "
               "(first 16 hex digits):\n";
  std::vector<BigInt> blinded_totals(kUsers, BigInt(0));
  for (const auto& h : server_received->All<net::BlindedHistogramMsg>()) {
    std::cout << "  silo " << h.silo_id << ": ";
    for (int u = 0; u < kUsers; ++u) {
      std::cout << h.values[u].ToHex().substr(0, 16) << "... ";
      blinded_totals[u] = blinded_totals[u].ModAdd(h.values[u], n);
    }
    std::cout << "\n";
  }
  std::cout << "Their per-user sums B(N_u) = r_u * N_u mod n:\n  ";
  for (const auto& b : blinded_totals) {
    std::cout << b.ToHex().substr(0, 16) << "... ";
  }
  std::cout << "\n-> the server cannot recover any N_u from these "
               "(information-theoretic blinding, Theorem 5).\n\n";

  std::cout << "=== Weighting round ===\n";
  std::cout << "Silo 0 receives encrypted weights (ciphertext bits): ";
  for (const auto& begin : silo0_received->All<net::RoundBeginMsg>()) {
    for (const auto& c : begin.enc_weights) std::cout << c.BitLength() << " ";
  }
  std::cout << "\nDecrypted aggregate (server):  ";
  for (double v : out.value()) std::cout << v << " ";
  std::cout << "\nPlaintext reference:           ";
  for (double v : expect) std::cout << v << " ";
  double max_err = 0.0;
  for (int d = 0; d < kDim; ++d) {
    max_err = std::max(max_err, std::abs(out.value()[d] - expect[d]));
  }
  std::cout << "\nMax error: " << max_err
            << "  (Theorem 4: below the fixed-point precision)\n";
  for (int s = 0; s < kSilos; ++s) {
    if (!silo_status[s].ok()) {
      std::cerr << "silo " << s << ": " << silo_status[s].ToString() << "\n";
      return 1;
    }
  }
  return max_err < 1e-8 ? 0 : 1;
}
