// Shared FL machinery: the algorithm interface every trainer implements,
// the common hyper-parameter block (Table 1 of the paper), plain local SGD
// (the client-side optimizer), and the delta-aggregation helper with an
// optional secure-aggregation simulation, whose masked vectors stay flat
// FieldVectors of two-limb elements over 2^127 - 1 (crypto/secure_agg.h)
// from mask to unmask.

#ifndef ULDP_FL_LOCAL_TRAINER_H_
#define ULDP_FL_LOCAL_TRAINER_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "crypto/secure_agg.h"
#include "data/dataset.h"
#include "math/bigint.h"
#include "nn/model.h"

namespace uldp {

struct SessionState;

/// Where the DP noise is injected. The paper's protocol is distributed
/// (each silo adds its share so no party ever sees a low-noise aggregate,
/// matching the secure-aggregation trust model); central mode adds the
/// equivalent total noise once at the server and exists for cross-checking
/// and for deployments that trust the aggregator.
enum class NoisePlacement {
  kDistributed,
  kCentral,
};

/// Common hyper-parameters (paper Table 1).
struct FlConfig {
  double local_lr = 0.05;   // eta_l
  double global_lr = 1.0;   // eta_g
  double clip = 1.0;        // C
  double sigma = 5.0;       // noise multiplier
  int local_epochs = 1;     // Q
  int batch_size = 32;      // local mini-batch size
  uint64_t seed = 1;
  /// Round-engine thread count: per-silo work is scheduled across this
  /// many threads (<= 0 resolves via ULDP_THREADS env, then hardware
  /// concurrency). Results are bitwise independent of this value — all
  /// randomness comes from Rng::Fork(round, silo, user) substreams.
  int num_threads = 0;
  NoisePlacement noise_placement = NoisePlacement::kDistributed;
  /// When true, silo deltas are routed through fixed-point encoding and
  /// pairwise-masked summation over a public prime field before the server
  /// sees them (functional secure-aggregation simulation; §3.1 assumes
  /// aggregation is secure in all algorithms). Adds field arithmetic per
  /// coordinate; identical result up to the fixed-point precision.
  bool secure_aggregation = false;
  /// Asynchronous staleness-bounded rounds: silo deltas are applied as
  /// they land instead of barrier-waiting on the slowest silo. A server
  /// step flushes once `async_buffer` updates arrived; an update computed
  /// against a model `tau` versions old is accepted iff tau <=
  /// max_staleness, discounted by 1 / (1 + tau). With max_staleness = 0
  /// and async_buffer = num_silos (the defaults) every step is a barrier
  /// over all silos and the result is bitwise identical to the
  /// synchronous engine.
  ///
  /// DP accounting note: per-user clipping happens inside the silo
  /// *before* submission, so a user's contribution to any single flushed
  /// aggregate still has L2 sensitivity <= C — the discount alpha(tau)
  /// <= 1 scales its terms and can only shrink that bound. Rejected
  /// (over-stale) updates are discarded without release, which costs no
  /// budget. Noise calibration: with the barrier defaults (async_buffer =
  /// num_silos, max_staleness = 0) a flush carries exactly the
  /// synchronous round's noise and the paper's per-step composition
  /// applies verbatim. With a partial buffer K < |S| or a positive
  /// staleness bound, a flush pools noise from only K (possibly
  /// discounted) shares, so the noise-pooling trainers (ULDP-AVG/SGD)
  /// scale each share by AsyncNoiseMargin = (1 + max_staleness) *
  /// sqrt(|S| / K): even the worst flush (K maximally discounted shares)
  /// then carries at least the noise the accountant charges for, at the
  /// cost of over-noising fresh updates — a conservative calibration.
  /// ULDP-NAIVE needs no inflation (its per-silo shares are already
  /// over-calibrated for any K-subset; see the Cauchy-Schwarz note in
  /// uldp_naive.cc), and ULDP-GROUP's noise protects its own silo's
  /// records and scales with its own delta, so discounting is pure
  /// post-processing there.
  /// Central noise placement sidesteps the inflation entirely (the
  /// server noises each flushed aggregate in full) and is the
  /// recommended pairing for aggressive staleness settings.
  bool async_rounds = false;
  /// Maximum accepted staleness tau (async_rounds only).
  int max_staleness = 0;
  /// Arrivals buffered before a server step flushes (async_rounds only);
  /// <= 0 resolves to the silo count. Values < num_silos let fast silos
  /// outpace a straggler (its update lands late, discounted or rejected).
  int async_buffer = 0;
};

/// A federated algorithm: owns its per-silo state and privacy accounting;
/// the experiment runner drives rounds and evaluation.
class FlAlgorithm {
 public:
  virtual ~FlAlgorithm() = default;

  /// Executes round `round`, updating `global_params` in place.
  virtual Status RunRound(int round, Vec& global_params) = 0;

  /// Accumulated user-level epsilon after the rounds run so far
  /// (+infinity for non-private baselines).
  virtual Result<double> EpsilonSpent(double delta) const = 0;

  /// Charges the accountant for `rounds` rounds that ran before this
  /// process started (checkpoint resume: the restored model already paid
  /// that privacy budget, so EpsilonSpent must report it). Default no-op
  /// — correct for non-private baselines.
  virtual void AccountRestoredRounds(int64_t rounds) { (void)rounds; }

  /// Binds the trainer's round engine to the session a checkpointed run
  /// writes (RoundEngine::BindSession): async rounds adopt its counters
  /// before their first step and mirror them back after every step.
  /// nullptr unbinds. Default no-op.
  virtual void BindSession(SessionState* session) { (void)session; }

  virtual std::string name() const = 0;
};

/// Mini-batch SGD on `model` over `examples` for `epochs` passes.
/// Examples are shuffled each epoch with `rng`. This is the paper's local
/// optimization subroutine (Algorithm 1/3 inner loops).
void TrainLocalSgd(Model& model, const std::vector<Example>& examples,
                   int epochs, int batch_size, double learning_rate, Rng& rng);

class ThreadPool;

/// Inflation factor for a silo's distributed noise share under async
/// rounds (the FlConfig DP note): 1 exactly for synchronous runs and for
/// the async barrier defaults; (1 + max_staleness) * sqrt(num_silos / K)
/// otherwise, so even a flush of K maximally discounted shares carries
/// the noise the accountant charges for.
double AsyncNoiseMargin(const FlConfig& config, int num_silos);

/// Sums per-silo delta vectors. With `secure` set, each delta is
/// fixed-point-encoded, masked with pairwise ChaCha masks that cancel in
/// the sum, and decoded after summation (Bonawitz-style aggregation). The
/// pair keys are derived from public strings, so this reproduces the
/// masks' cost, not their secrecy: a curious server that derives the same
/// keys can unmask each delta. That is
/// MaskDelta per silo, then UnmaskSum; a non-finite or out-of-range
/// coordinate aborts. `pool` (optional) runs one MaskDelta task per silo;
/// UnmaskSum then adds the vectors in silo order, so the result is
/// bitwise identical at any thread count. Callers with a thread-count
/// knob (the round engine) pass their own pool so the knob stays
/// authoritative.
Vec AggregateDeltas(const std::vector<Vec>& silo_deltas, bool secure,
                    uint64_t round_tag, ThreadPool* pool = nullptr);

/// One party's side of the secure reduce, split out so a real transport
/// can ship masked vectors instead of plain deltas (net/async_rounds.h
/// masked mode): fixed-point-encodes `delta` over AggregationPrime()
/// (2^127 - 1, crypto/secure_agg.h) in one bulk pass and adds this
/// party's pairwise masks for round `round_tag`, as one flat vector of
/// two-limb elements (16 bytes each in a MaskedVector frame).
/// InvalidArgument names the first non-finite or out-of-range coordinate
/// and why it cannot be encoded ("delta coordinate 2: cannot encode
/// non-finite value"). Masking every party and summing with UnmaskSum is
/// bitwise identical to AggregateDeltas(..., secure=true, ...) on the same
/// inputs. One silo of three at dim 100 000 takes about 3.5 ms on a
/// 2.1 GHz AVX-512 Xeon, half of it ChaCha keystream (bench_micro_crypto's
/// mask_delta_dim100000).
Result<FieldVector> MaskDelta(const Vec& delta, int party, int num_parties,
                              uint64_t round_tag);

/// The server's side: sums the masked vectors (masks cancel) and decodes
/// the fixed-point total back to doubles, on the same branch-free add as
/// the masks and a branch-free centering decode. Every vector must have
/// the same dimension, with elements in [0, AggregationPrime()). The
/// unmasked total is an exact integer far below half the prime, so it
/// decodes to the same doubles it would in any wider field. Three vectors
/// at dim 100 000 take about 2 ms on the host above
/// (unmask_sum_dim100000).
Vec UnmaskSum(const std::vector<FieldVector>& masked);

/// BigInt forms of MaskDelta and UnmaskSum, kept as conversions over them
/// for callers that hold masked vectors as BigInts (the performance
/// ledger's replay). MaskSiloDelta aborts where MaskDelta returns an error
/// and ignores `pool`, which it keeps for those callers.
std::vector<BigInt> MaskSiloDelta(const Vec& delta, int party,
                                  int num_parties, uint64_t round_tag,
                                  ThreadPool* pool = nullptr);
Vec UnmaskMaskedSum(const std::vector<std::vector<BigInt>>& masked);

}  // namespace uldp

#endif  // ULDP_FL_LOCAL_TRAINER_H_
