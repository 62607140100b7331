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
//     weights in:  OT off:  <- RoundBegin, or <- StreamBegin + chunks
//                  OT on:   silo 0: <- OtSender -> OtReceiver <- OtSlots
//                                   -> WeightRelay x(N-1)
//                           others: <- WeightRelay      (server relays)
//     cipher out:  -> SiloCipher, or -> StreamBegin + chunks
//     <- RoundResult              (checked: model length, finite, bounded)
//   <- Shutdown
//
// Each party writes its round once. A silo's round takes its inputs,
// folds every weight range through SiloCore::FoldUsers in
// kWeightingBatchUsers batches, finishes the masked cipher, uploads it
// and checks the RoundResult; only how the weights arrive and how the
// cipher leaves follow the config. The server's round delivers the
// weights, gathers each silo's cipher through one checked path that folds
// every arriving range into the aggregate, then decrypts and broadcasts.
// Both seed shares and OT weight relays pass through one relay helper on
// each side: silo 0 encrypts one frame per peer under the pair key, the
// server checks the route and forwards opaque bytes, the peer checks the
// route again and decrypts.
//
// Streaming mode (config.stream_chunk_users > 0) replaces the one-frame
// RoundBegin and SiloCipher with chunked streams under windowed flow
// control (net/stream.h). The server encrypts weights one user chunk at a
// time and discards each chunk once acked; silos fold each chunk on
// arrival and upload the masked cipher in coordinate chunks the server
// folds straight into the aggregate product. So a round's peak resident
// ciphertexts are O(chunk), independent of the user count, and the bits
// match the one-frame round. With OT on, the weights arrive through the
// OT exchange either way and only the upload streams.
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
#include <optional>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "core/protocol_party.h"
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
  /// mode and must keep every user in a full-participation session,
  /// exactly like the in-process WeightingRound. On failure every silo is
  /// told (Error frame) so no client is left blocked in Recv.
  /// Arriving silo ciphers are folded into the aggregate as they land
  /// (ServerCore::AccumulateSiloCipher).
  Result<Vec> RunRound(uint64_t round, const std::vector<bool>& user_sampled);

  /// Tells every silo the run is over; their Run() loops return Ok.
  Status Shutdown();

  const std::vector<NetPhaseStats>& phase_stats() const { return stats_; }
  uint64_t total_bytes_sent() const;
  uint64_t total_bytes_received() const;

 private:
  /// Where a relayed frame comes from and goes to.
  struct Route {
    uint32_t from = 0;
    uint32_t to = 0;
  };

  /// Receives one Msg from every silo in parallel and hands each to
  /// `take` (silo id, message) on the pool thread that received it; each
  /// must name its sender's silo id, or the gather fails naming `what`.
  template <typename Msg>
  Status GatherEach(const char* what,
                    const std::function<Status(int, Msg)>& take);
  Status RunSetupInternal();
  Result<Vec> RunRoundInternal(uint64_t round,
                               const std::vector<bool>& user_sampled);
  /// Sends the round's encrypted weights: one RoundBegin broadcast, a
  /// chunked stream, or silo 0's OT exchange and its relays.
  Status DeliverWeights(uint64_t round, const std::vector<bool>& user_sampled);
  /// Streaming enc-weight distribution: encrypts one user chunk at a
  /// time and broadcasts it through SendChunkedStream, which keeps at most
  /// kStreamWindow chunks unacknowledged per silo.
  Status StreamEncWeights(uint64_t round,
                          const std::vector<bool>& user_sampled);
  /// Forwards silo 0's N - 1 pairwise-encrypted frames, one to each other
  /// silo, as opaque bytes. `route` parses a frame; each must come from
  /// silo 0 and reach a distinct other silo, or the relay fails naming
  /// `what`.
  Status RelayFromSilo0(
      const char* what,
      const std::function<Result<Route>(const Frame&)>& route);
  /// Receives one silo's cipher, as one SiloCipher frame or a chunk
  /// stream, checks its phase tag, silo id and packed dimension once, and
  /// folds every arriving range into the shared aggregate `product`
  /// (grown under `fold_mu` over the coordinates that have arrived).
  Status GatherSiloCipher(int silo, uint64_t round, std::mutex* fold_mu,
                          std::vector<BigInt>* product, uint32_t* dim_out);
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
  /// What a round's first frame says: its round, and either the whole
  /// weight vector (a RoundBegin, silo 0's OT exchange, or a relay from
  /// silo 0) or the StreamBegin of a weight stream.
  struct RoundOpening {
    uint64_t round = 0;
    std::vector<BigInt> enc_weights;
    std::optional<StreamBeginMsg> stream;
  };

  Status RunLoop(Transport& transport, const RoundInput& input,
                 const RoundResultFn& on_result);
  /// One round, whatever its shape: inputs, fold, finish, upload, result.
  Status ServeRound(Transport& transport, const Frame& first,
                    const RoundInput& input, const RoundResultFn& on_result);
  Result<RoundOpening> OpenRound(Transport& transport, const Frame& first);
  /// Silo 0's OT exchange for one round; relays the fetched weights to
  /// every other silo and returns them.
  Result<std::vector<BigInt>> HandleOtRound(Transport& transport,
                                            uint64_t round,
                                            const OtSenderMsg& sender_msg);
  /// Uploads this silo's masked cipher: one SiloCipher frame, or a chunked
  /// kSiloCipher stream when streaming.
  Status UploadCipher(Transport& transport, uint64_t round, size_t model_dim,
                      std::vector<BigInt> cipher);

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
