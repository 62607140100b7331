// Message-driven Protocol 1 endpoints: a ProtocolServer that drives setup
// and weighting rounds over one Transport per silo, and a SiloClient that
// serves a silo's side of the protocol until shutdown. Both are thin
// drivers over the same ServerCore/SiloCore phase logic the in-process
// simulation uses (core/protocol_party.h), so a distributed run on any
// transport produces bitwise-identical aggregates to
// PrivateWeightingProtocol on the same seed and inputs.
//
// Message flow (client perspective):
//
//   -> Join                      (silo id, cohort shape, config digest)
//   <- SetupParams               (Paillier n; OT group)
//   -> DhPublicKey               <- DhDirectory
//   silo 0: -> SeedShare x(N-1)  others: <- SeedShare   (server relays)
//   -> BlindedHistogram          <- SetupAck
//   per round:
//     OT off:  <- RoundBegin
//     OT on:   silo 0: <- OtSender -> OtReceiver <- OtSlots
//                      -> WeightRelay x(N-1)
//              others: <- WeightRelay               (server relays)
//     -> SiloCipher              <- RoundResult
//   <- Shutdown
//
// Streaming mode (config.stream_chunk_users > 0): the monolithic
// RoundBegin and SiloCipher frames are replaced by chunked streams with
// windowed flow control, one sender and one receive loop for both
// directions (net/stream.h). The server encrypts
// weights one user-chunk at a time and discards each chunk once acked;
// silos fold each chunk into their cipher accumulator on arrival
// (SiloCore::AccumulateUsersChunk) and upload the masked cipher in
// coordinate chunks the server folds straight into the aggregate product
// — so a round's peak resident ciphertexts are O(chunk), independent of
// the user count, and bitwise identical to the materializing path.
//
// All server-side receives run through a FrameMux (net/mux.h): a few
// epoll event-loop threads serve every connection on any transport, and
// mux shutdown interrupts all transports and joins its threads, so a silo
// hanging mid-stream can never leave a reader blocked after FailAll.
//
// Fatal errors travel as Error frames in either direction, so the peer
// reports the real Status instead of hanging up.

#ifndef ULDP_NET_PROTOCOL_NODE_H_
#define ULDP_NET_PROTOCOL_NODE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "core/protocol_party.h"
#include "fl/session.h"
#include "net/messages.h"
#include "net/mux.h"
#include "net/transport.h"
#include "nn/tensor.h"

namespace uldp {
namespace net {

/// Wire traffic and wall time of one server-side protocol phase,
/// accumulated across rounds (the bench's bytes-on-the-wire source).
/// Received bytes are the frames the phase consumed, header included: the
/// receive threads may read a fast silo's reply before its phase opens.
struct NetPhaseStats {
  std::string phase;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  double seconds = 0.0;
};

class ProtocolServer {
 public:
  ProtocolServer(const ProtocolConfig& config, int num_silos, int num_users);
  ~ProtocolServer();

  /// Performs the Join handshake on a freshly connected transport and
  /// registers it under the silo id the client announced. Rejects
  /// duplicate ids, out-of-range ids, and config-digest mismatches (the
  /// client receives an Error frame explaining why). Blocks until the
  /// join frame arrives; to keep a connected-but-silent peer from
  /// stalling the accept loop, set a recv deadline on the transport first
  /// (TcpTransport::SetRecvTimeout — the CLI's --net-timeout does this)
  /// so the handshake fails with DeadlineExceeded instead of hanging.
  Status AddConnection(std::unique_ptr<Transport> transport);
  int connected_silos() const;

  /// Drives setup (a)-(f) over the registered transports. Requires every
  /// silo connected. On failure every silo is told (Error frame) so no
  /// client is left blocked in Recv.
  Status RunSetup();

  /// Drives one weighting round; returns the decrypted aggregate (which
  /// is also broadcast to the silos). `user_sampled` is ignored in OT
  /// mode, exactly like the in-process WeightingRound. On failure every
  /// silo is told (Error frame) so no client is left blocked in Recv.
  /// Arriving silo ciphers are folded into the aggregate as they land
  /// (ServerCore::AccumulateSiloCipher).
  Result<Vec> RunRound(uint64_t round, const std::vector<bool>& user_sampled);

  /// Tells every silo the run is over; their Run() loops return Ok.
  Status Shutdown();

  const std::vector<NetPhaseStats>& phase_stats() const { return stats_; }
  uint64_t total_bytes_sent() const;
  uint64_t total_bytes_received() const;

  /// The server's session view (fl/session.h): the fixed cohort's
  /// membership rows and the weighting-round counter. Protocol 1 keeps a
  /// static membership, so rows activate at registration and never churn.
  const SessionState& session() const { return session_; }

 private:
  Status RunSetupInternal();
  Result<Vec> RunRoundInternal(uint64_t round,
                               const std::vector<bool>& user_sampled);
  /// Streaming enc-weight distribution: encrypts one user chunk at a
  /// time and broadcasts it through SendChunkedStream, which keeps at most
  /// kStreamWindow chunks unacknowledged per silo.
  Status StreamEncWeights(uint64_t round,
                          const std::vector<bool>& user_sampled);
  /// Streaming cipher gather for one silo: folds arriving coordinate
  /// chunks straight into the shared aggregate `product` (grown under
  /// `fold_mu` over the coordinates that have arrived) and acks each
  /// chunk.
  Status GatherSiloCipherStream(int silo, uint64_t round,
                                std::mutex* fold_mu,
                                std::vector<BigInt>* product,
                                uint32_t* dim_out);
  Status SendTo(int silo, const Frame& frame);
  /// Receives the next frame from `silo`, turning Error frames into the
  /// Status they carry.
  Result<Frame> RecvFrom(int silo);
  Status Broadcast(const Frame& frame);
  /// Best-effort: tell every silo the run failed so their loops exit.
  void FailAll(const Status& status);
  void BeginPhase();
  void EndPhase(const std::string& name);

  ProtocolConfig config_;
  int num_silos_;
  int num_users_;
  ServerCore core_;
  SessionState session_;
  PoolHandle pool_;
  std::vector<std::unique_ptr<Transport>> conns_;  // [silo id]
  /// Receive front end over all connections, created when RunSetup first
  /// sees the full cohort (join handshakes use blocking Recv before
  /// that). FailAll and Shutdown tear it down — interrupt + join — so no
  /// receive thread outlives a failed run.
  std::unique_ptr<FrameMux> mux_;
  bool setup_done_ = false;
  std::vector<NetPhaseStats> stats_;
  // Wire bytes of every frame RecvFrom has returned (pool threads call it).
  std::atomic<uint64_t> consumed_bytes_{0};
  uint64_t phase_sent_start_ = 0;
  uint64_t phase_received_start_ = 0;
  double phase_time_start_ = 0.0;
};

class SiloClient {
 public:
  /// `histogram[u]` = n_{silo_id, u}: this silo's private input.
  SiloClient(const ProtocolConfig& config, int silo_id, int num_silos,
             int num_users, std::vector<int> histogram);

  /// Provides the round inputs: `deltas` (one Vec per user, empty when the
  /// user has no records here) and this silo's noise vector.
  using RoundInput = std::function<Status(
      uint64_t round, std::vector<Vec>* deltas, Vec* noise)>;
  /// Observes each round's broadcast aggregate (the global model update).
  using RoundResultFn =
      std::function<void(uint64_t round, const Vec& aggregate)>;

  /// Serves the protocol over `transport` until Shutdown (returns Ok) or a
  /// fatal error (returned; also reported to the server as an Error frame
  /// on a best-effort basis).
  Status Run(Transport& transport, const RoundInput& input,
             const RoundResultFn& on_result = nullptr);

 private:
  Status RunLoop(Transport& transport, const RoundInput& input,
                 const RoundResultFn& on_result);
  Result<std::vector<BigInt>> HandleOtRound(Transport& transport,
                                            uint64_t round,
                                            const OtSenderMsg& sender_msg);
  /// One full streamed round (config.stream_chunk_users > 0, OT off):
  /// folds enc-weight chunks as they arrive, finishes the masked cipher,
  /// uploads it as a coordinate-chunk stream, and receives the round
  /// result.
  Status HandleStreamedRound(Transport& transport, const Frame& first,
                             const RoundInput& input,
                             const RoundResultFn& on_result);
  /// Uploads this silo's masked cipher as a chunked kSiloCipher stream.
  Status UploadCipherStream(Transport& transport, uint64_t round,
                            size_t model_dim, std::vector<BigInt> cipher);

  ProtocolConfig config_;
  int silo_id_;
  int num_silos_;
  int num_users_;
  std::vector<int> histogram_;
  PoolHandle pool_;
  std::unique_ptr<SiloCore> core_;  // built after SetupParams arrives
};

}  // namespace net
}  // namespace uldp

#endif  // ULDP_NET_PROTOCOL_NODE_H_
