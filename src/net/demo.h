// Deterministic demo inputs for the distributed Protocol 1 driver: every
// party (server with --verify, each silo client, the bench, the tests)
// derives the same synthetic histograms/deltas/noise from one seed, so a
// distributed run can be checked bitwise against the in-process simulation
// without shipping data files around.

#ifndef ULDP_NET_DEMO_H_
#define ULDP_NET_DEMO_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "core/protocol_party.h"
#include "net/async_rounds.h"
#include "net/protocol_node.h"
#include "net/transport.h"
#include "nn/tensor.h"

namespace uldp {
namespace net {

/// Synthetic protocol inputs: histograms[s][u] in [0, 4], Gaussian deltas
/// for (silo, user) pairs with records, Gaussian noise per silo.
struct DemoInputs {
  std::vector<std::vector<int>> histograms;  // [silo][user]
  std::vector<std::vector<Vec>> deltas;      // [silo][user]
  std::vector<Vec> noise;                    // [silo]
};

DemoInputs MakeDemoInputs(uint64_t seed, int num_silos, int num_users,
                          int dim);

/// Runs one silo client over `transport` with its slice of
/// MakeDemoInputs(inputs_seed, ...) as the round input (the same deltas
/// every round). Returns when the server shuts the run down.
Status RunDemoSilo(const ProtocolConfig& config, int silo_id, int num_silos,
                   int num_users, int dim, uint64_t inputs_seed,
                   Transport& transport);

/// Deterministic async-round demo work for silo `silo`: the delta is a
/// pure function of (version, silo, pulled params) — a contraction toward
/// the origin plus Fork(version, silo)-keyed Gaussian noise — so any
/// driver (local engine, channel transport, loopback TCP) computing the
/// same (version, silo) task produces bitwise-identical deltas. The
/// params-dependence makes staleness observable: a delta computed against
/// an old snapshot differs from a fresh one. `sleep_seconds` injects a
/// compute-time straggler for the bench.
std::function<Status(uint64_t version, const Vec& params, Vec* delta)>
MakeAsyncDemoWork(uint64_t seed, int silo, int dim,
                  double sleep_seconds = 0.0);

/// Fault-injection and elastic-membership knobs for the async demo silo.
struct AsyncDemoOptions {
  /// Compute-time straggler injection (the bench's knob).
  double sleep_seconds = 0.0;
  /// >= 0: crash (close the transport mid-run without a goodbye) when
  /// released with this version — the eviction drill.
  int64_t fail_at_version = -1;
  /// >= 0: join elastically, asking for a model version >= this.
  int64_t join_at_version = -1;
  /// >= 0: leave voluntarily when released with this version.
  int64_t leave_at_version = -1;
  /// Users announced on an elastic join.
  uint32_t user_count = 1;
};

/// Runs one async-round silo client over `transport` with the demo work.
Status RunAsyncDemoSilo(const AsyncRoundsConfig& config, int silo_id,
                        int num_silos, int dim, Transport& transport,
                        const AsyncDemoOptions& options = {});

}  // namespace net
}  // namespace uldp

#endif  // ULDP_NET_DEMO_H_
