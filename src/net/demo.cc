#include "net/demo.h"

#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "common/rng.h"

namespace uldp {
namespace net {

DemoInputs MakeDemoInputs(uint64_t seed, int num_silos, int num_users,
                          int dim) {
  Rng rng(seed);
  DemoInputs in;
  in.histograms.assign(num_silos, std::vector<int>(num_users, 0));
  in.deltas.assign(num_silos, std::vector<Vec>(num_users));
  in.noise.assign(num_silos, Vec(dim, 0.0));
  for (int s = 0; s < num_silos; ++s) {
    for (int u = 0; u < num_users; ++u) {
      in.histograms[s][u] = static_cast<int>(rng.UniformInt(5));  // 0..4
      if (in.histograms[s][u] > 0) {
        in.deltas[s][u].resize(dim);
        for (double& v : in.deltas[s][u]) v = rng.Gaussian(0.0, 1.0);
      }
    }
    for (double& v : in.noise[s]) v = rng.Gaussian(0.0, 0.3);
  }
  return in;
}

Status RunDemoSilo(const ProtocolConfig& config, int silo_id, int num_silos,
                   int num_users, int dim, uint64_t inputs_seed,
                   Transport& transport) {
  DemoInputs in = MakeDemoInputs(inputs_seed, num_silos, num_users, dim);
  SiloClient client(config, silo_id, num_silos, num_users,
                    in.histograms[silo_id]);
  auto input = [&](uint64_t, std::vector<Vec>* deltas, Vec* noise) {
    *deltas = in.deltas[silo_id];
    *noise = in.noise[silo_id];
    return Status::Ok();
  };
  return client.Run(transport, input);
}

std::function<Status(uint64_t version, const Vec& params, Vec* delta)>
MakeAsyncDemoWork(uint64_t seed, int silo, int dim, double sleep_seconds) {
  Rng root(seed);
  return [root, silo, dim, sleep_seconds](uint64_t version, const Vec& params,
                                          Vec* delta) {
    if (params.size() != static_cast<size_t>(dim)) {
      return Status::InvalidArgument("async demo work dimension mismatch");
    }
    if (sleep_seconds > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(sleep_seconds));
    }
    Rng local = root.Fork(version, static_cast<uint64_t>(silo));
    delta->assign(params.size(), 0.0);
    for (size_t d = 0; d < params.size(); ++d) {
      (*delta)[d] = -0.1 * params[d] + local.Gaussian(0.0, 0.1);
    }
    return Status::Ok();
  };
}

Status RunAsyncDemoSilo(const AsyncRoundsConfig& config, int silo_id,
                        int num_silos, int dim, Transport& transport,
                        const AsyncDemoOptions& options) {
  AsyncRoundClient client(config, silo_id, num_silos, dim);
  auto work = MakeAsyncDemoWork(config.seed, silo_id, dim,
                                options.sleep_seconds);
  if (options.fail_at_version >= 0) {
    // Crash drill: drop the connection mid-run with no goodbye frame, the
    // way a dying process would — the elastic server must evict us.
    const uint64_t fail_at = static_cast<uint64_t>(options.fail_at_version);
    auto inner = std::move(work);
    work = [&transport, fail_at, inner](uint64_t version, const Vec& params,
                                        Vec* delta) {
      if (version >= fail_at) {
        transport.Close();
        return Status::Internal("injected silo failure at version " +
                                std::to_string(version));
      }
      return inner(version, params, delta);
    };
  }
  AsyncClientOptions client_options;
  client_options.join_min_version = options.join_at_version;
  client_options.leave_after_version = options.leave_at_version;
  client_options.user_count = options.user_count;
  return client.Run(transport, work, client_options);
}

}  // namespace net
}  // namespace uldp
