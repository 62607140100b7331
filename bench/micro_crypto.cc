// Machine-readable micro benchmarks for the cryptographic substrate,
// focused on the Paillier fast path: cold-context operations (the static
// Paillier shim, which rebuilds Montgomery state per call) against the
// cached PaillierContext (long-lived contexts, sliding-window MontExp with
// a dedicated squaring path, CRT decryption, CRT randomizers on the key
// holder against the eval-only n^2 path, and the one-multiply
// randomizer-pipeline encryption), plus fixed-base exponentiation (per-base
// Lim-Lee comb tables, math/fixed_base.h) against the sliding-window path
// it amortizes away, Straus multi-exponentiation against the per-base
// fold, the silo fold's two paths (Straus vs per-user tables) on a shape
// on each side of the cost model's crossover, a comb table at heavy
// reuse checked against MontExp, and one MontExp per Montgomery kernel
// (portable and ADX rows, AVX-512 IFMA) at 1024-6144 bits, checked
// against each other, and the keystream throughput of each ChaCha20
// kernel (scalar, AVX2, AVX-512F) checked against the scalar block. Also
// measures fig11-style private weighting rounds at each ciphertext packing
// factor (median of alternating round pairs), plus the remaining substrate
// unit costs behind Figures 10/11 (BigInt mul/div, secure-aggregation
// masking serial vs pooled and at the async silo's dim 100 000, SHA-256,
// the ChaCha stream, C_LCM).
//
// Emits BENCH_micro_crypto.json via bench_common. Modes:
//   default            — quick sweep (512/1024-bit keys), a few seconds
//   ULDP_BENCH_SMOKE=1 — CI smoke: 512-bit keys (the kernel rows keep
//                        their sizes), short measurement windows
//   ULDP_BENCH_SCALE=full — adds the 2048-bit point

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/table.h"
#include "core/private_weighting.h"
#include "crypto/chacha.h"
#include "crypto/paillier_ctx.h"
#include "crypto/secure_agg.h"
#include "crypto/sha256.h"
#include "math/fixed_base.h"
#include "math/mont_ifma.h"
#include "math/multi_exp.h"
#include "math/primes.h"

namespace {

using namespace uldp;
using namespace uldp::bench;
using Clock = std::chrono::steady_clock;

bool SmokeMode() {
  const char* env = std::getenv("ULDP_BENCH_SMOKE");
  return env != nullptr && std::string(env) != "0";
}

/// Seconds per call: warm up once, then time batches of calls until the
/// measurement window is filled (and at least `min_iters` calls ran).
/// Batching keeps the clock reads off the per-op cost for nanosecond-scale
/// operations (ChaCha words, small BigInt ops).
double SecondsPerOp(const std::function<void()>& fn, double window_s,
                    int min_iters) {
  fn();  // warm-up (also primes any lazy state)
  // Grow the batch until one timed batch costs ~1ms, amortizing the timer.
  long batch = 1;
  double elapsed = 0.0;
  long iters = 0;
  for (;;) {
    auto t0 = Clock::now();
    for (long i = 0; i < batch; ++i) fn();
    elapsed += std::chrono::duration<double>(Clock::now() - t0).count();
    iters += batch;
    if (elapsed / iters * batch >= 1e-3) break;
    batch *= 8;
  }
  while (elapsed < window_s || iters < min_iters) {
    auto t0 = Clock::now();
    for (long i = 0; i < batch; ++i) fn();
    elapsed += std::chrono::duration<double>(Clock::now() - t0).count();
    iters += batch;
  }
  return elapsed / iters;
}

struct OpRow {
  std::string op;
  std::string mode;
  int bits;
  double seconds_per_op;
};

void RecordOp(Table& table, BenchJson& json, std::vector<OpRow>& rows,
            const std::string& op, const std::string& mode, int bits,
            double s_per_op) {
  rows.push_back({op, mode, bits, s_per_op});
  table.AddRow({op, mode, std::to_string(bits), FormatG(1.0 / s_per_op, 5),
                FormatG(s_per_op * 1e3, 4)});
  json.Add("ops_per_sec", 1.0 / s_per_op,
           {{"op", op}, {"mode", mode}, {"bits", std::to_string(bits)}});
}

double Find(const std::vector<OpRow>& rows, const std::string& op,
            const std::string& mode, int bits) {
  for (const auto& r : rows) {
    if (r.op == op && r.mode == mode && r.bits == bits) {
      return r.seconds_per_op;
    }
  }
  return 0.0;
}

/// One packing factor's set-up protocol on a pack-feasible configuration
/// (small n_max / precision / clip so pack_slots up to 8 fits a 512-bit
/// plaintext), its fixed round inputs, and its timed rounds.
struct PackedRound {
  std::unique_ptr<PrivateWeightingProtocol> protocol;
  std::vector<std::vector<Vec>> deltas;
  std::vector<Vec> noise;
  std::vector<double> seconds;
};

bool SetupPackedRound(int pack_slots, int users, int dim, PackedRound* r) {
  const int silos = 3;
  ProtocolConfig pc;
  pc.paillier_bits = 512;
  pc.n_max = 8;  // C_LCM = 840: 8 slots of guard-banded digits fit 512 bits
  pc.precision = 1e-6;
  pc.pack_clip = 8.0;
  pc.seed = 909;
  pc.pack_slots = pack_slots;
  // One thread: a 5-10 ms round that waits on the global pool times the
  // host's other load, not packing.
  pc.num_threads = 1;
  r->protocol = std::make_unique<PrivateWeightingProtocol>(pc, silos, users);
  Rng rng(23);
  std::vector<std::vector<int>> hist(silos, std::vector<int>(users, 0));
  for (int u = 0; u < users; ++u) {
    // Each user's records land in one silo, so totals stay <= n_max = 8.
    hist[static_cast<int>(rng.UniformInt(silos))][u] =
        1 + static_cast<int>(rng.UniformInt(4));
  }
  if (!r->protocol->Setup(hist).ok()) return false;
  r->deltas.assign(silos, std::vector<Vec>(users));
  r->noise.assign(silos, Vec(dim));
  for (int s = 0; s < silos; ++s) {
    for (int u = 0; u < users; ++u) {
      if (hist[s][u] == 0) continue;
      r->deltas[s][u].resize(dim);
      for (double& v : r->deltas[s][u]) v = rng.Gaussian(0.0, 0.1);
    }
    for (double& v : r->noise[s]) v = rng.Gaussian(0.0, 0.1);
  }
  return true;
}

/// Runs one round and returns its wall seconds (-1 on failure), appending
/// them to r->seconds; `out` receives the aggregate so the caller can
/// assert every packing factor decodes bitwise identically.
double RunPackedRound(PackedRound* r, Vec* out) {
  const std::vector<bool> sampled(r->deltas[0].size(), true);
  auto start = Clock::now();
  auto result = r->protocol->WeightingRound(0, r->deltas, r->noise, sampled);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (!result.ok()) return -1.0;
  r->seconds.push_back(seconds);
  *out = std::move(result.value());
  return seconds;
}

}  // namespace

int main() {
  const bool smoke = SmokeMode();
  const double window = smoke ? 0.12 : 0.3;
  const int min_iters = smoke ? 3 : 5;
  std::vector<int> key_bits = smoke ? std::vector<int>{512}
                              : FullScale()
                                  ? std::vector<int>{512, 1024, 2048}
                                  : std::vector<int>{512, 1024};

  std::cout << "=== micro_crypto: Paillier fast path (cold static API vs "
               "cached PaillierContext)"
            << (smoke ? " [smoke]" : "") << " ===\n";
  BenchJson json("micro_crypto");
  Table table({"op", "mode", "bits", "ops_per_sec", "ms_per_op"});
  std::vector<OpRow> rows;

  for (int bits : key_bits) {
    // -- Raw modular exponentiation: rebuilt context vs cached context ----
    Rng rng(1000 + bits);
    BigInt m = BigInt::RandomBits(bits, rng);
    if (m.IsEven()) m = m + BigInt(1);
    BigInt base = BigInt::RandomBelow(m, rng);
    BigInt exp = BigInt::RandomBits(bits, rng);
    Montgomery mont(m);
    RecordOp(table, json, rows, "modexp", "cold", bits,
           SecondsPerOp([&] { base.ModExp(exp, m); }, window, min_iters));
    RecordOp(table, json, rows, "modexp", "cached", bits,
           SecondsPerOp([&] { mont.MontExp(base, exp); }, window, min_iters));
    // Fixed-base: per-base comb table amortized over many exponentiations
    // of one base (the weighting loop's shape), vs the sliding-window
    // cached path above. The table build is reported separately so the
    // amortization break-even is visible in the artifact.
    FixedBaseTable fb_table(mont, base, bits, /*expected_uses=*/1024);
    if (fb_table.Exp(exp) != mont.MontExp(base, exp)) {
      std::cerr << "BUG: fixed-base modexp disagrees with sliding window\n";
      return 1;
    }
    RecordOp(table, json, rows, "modexp", "fixed_base", bits,
           SecondsPerOp([&] { fb_table.Exp(exp); }, window, min_iters));
    RecordOp(table, json, rows, "fixed_base_table_build", "cached", bits,
           SecondsPerOp(
               [&] { FixedBaseTable t(mont, base, bits, 1024); }, window,
               min_iters));
    {
      double sliding = Find(rows, "modexp", "cached", bits);
      double fixed = Find(rows, "modexp", "fixed_base", bits);
      if (sliding > 0.0 && fixed > 0.0) {
        json.Add("speedup_fixed_base_vs_sliding_window", sliding / fixed,
                 {{"op", "modexp"}, {"bits", std::to_string(bits)}});
      }
    }

    // -- Paillier operations ---------------------------------------------
    PaillierPublicKey pk;
    PaillierSecretKey sk;
    Rng keyrng(42);
    if (!Paillier::GenerateKeyPair(bits, keyrng, &pk, &sk).ok()) {
      std::cerr << "keygen failed at " << bits << " bits\n";
      return 1;
    }
    PaillierContext ctx(pk, sk);
    BigInt msg = BigInt::RandomBelow(pk.n, rng);
    BigInt cipher = ctx.Encrypt(msg, rng).value();
    if (ctx.Decrypt(cipher).value() != Paillier::Decrypt(pk, sk, cipher).value()) {
      std::cerr << "BUG: CRT decryption disagrees with classic\n";
      return 1;
    }

    RecordOp(table, json, rows, "encrypt", "cold", bits,
           SecondsPerOp([&] { Paillier::Encrypt(pk, msg, rng).value(); },
                        window, min_iters));
    RecordOp(table, json, rows, "encrypt", "cached", bits,
           SecondsPerOp([&] { ctx.Encrypt(msg, rng).value(); }, window,
                        min_iters));
    // Randomizer pipeline: the plaintext-independent r^n precompute, and
    // the one-multiply hot path that consumes it. The key holder builds
    // r^n from its CRT halves; an eval-only context (every silo) runs the
    // n^2 exponentiation, and both must return the same number on the
    // same draws.
    PaillierContext eval_ctx(pk);
    bool crt_identical = true;
    for (uint64_t seed = 0; seed < 8; ++seed) {
      Rng a(9000 + seed), b(9000 + seed);
      crt_identical = crt_identical &&
                      ctx.ComputeRandomizer(a) == eval_ctx.ComputeRandomizer(b);
    }
    json.Add("randomizer_crt_bitwise_identical", crt_identical ? 1.0 : 0.0,
             {{"bits", std::to_string(bits)}});
    if (!crt_identical) {
      std::cerr << "BUG: CRT randomizers disagree with the n^2 path\n";
      return 1;
    }
    RecordOp(table, json, rows, "randomizer_precompute", "cached", bits,
           SecondsPerOp([&] { ctx.ComputeRandomizer(rng); }, window,
                        min_iters));
    RecordOp(table, json, rows, "randomizer_precompute", "eval_only", bits,
           SecondsPerOp([&] { eval_ctx.ComputeRandomizer(rng); }, window,
                        min_iters));
    json.Add("speedup_crt_randomizer",
             Find(rows, "randomizer_precompute", "eval_only", bits) /
                 Find(rows, "randomizer_precompute", "cached", bits),
             {{"bits", std::to_string(bits)}});
    BigInt r_n = ctx.ComputeRandomizer(rng);
    RecordOp(table, json, rows, "encrypt", "cached_pipeline", bits,
           SecondsPerOp([&] { ctx.EncryptWithRandomizer(msg, r_n).value(); },
                        window, min_iters));

    RecordOp(table, json, rows, "decrypt", "cold", bits,
           SecondsPerOp([&] { Paillier::Decrypt(pk, sk, cipher).value(); },
                        window, min_iters));
    RecordOp(table, json, rows, "decrypt", "cached", bits,
           SecondsPerOp([&] { ctx.Decrypt(cipher).value(); }, window,
                        min_iters));

    BigInt k = BigInt::RandomBelow(pk.n, rng);
    RecordOp(table, json, rows, "mul_plaintext", "cold", bits,
           SecondsPerOp([&] { Paillier::MulPlaintext(pk, cipher, k); },
                        window, min_iters));
    RecordOp(table, json, rows, "mul_plaintext", "cached", bits,
           SecondsPerOp([&] { ctx.MulPlaintext(cipher, k); }, window,
                        min_iters));
    FixedBaseTable mul_table =
        ctx.MakeMulPlaintextTable(cipher, /*expected_uses=*/1024);
    RecordOp(table, json, rows, "mul_plaintext", "fixed_base", bits,
           SecondsPerOp([&] { ctx.MulPlaintextWithTable(mul_table, k); },
                        window, min_iters));
    {
      double sliding = Find(rows, "mul_plaintext", "cached", bits);
      double fixed = Find(rows, "mul_plaintext", "fixed_base", bits);
      if (sliding > 0.0 && fixed > 0.0) {
        json.Add("speedup_fixed_base_vs_sliding_window", sliding / fixed,
                 {{"op", "mul_plaintext"}, {"bits", std::to_string(bits)}});
      }
    }

    // Headline speedups. Encryption is reported both ways: the consume
    // path (the one-multiply hot path Protocol 1 runs after the
    // randomizer pipeline fills, which overlaps other work on the pool)
    // and the amortized cost including the mandatory r^n precompute.
    for (const auto& [op, cached_mode] :
         std::vector<std::pair<std::string, std::string>>{
             {"modexp", "cached"},
             {"decrypt", "cached"},
             {"mul_plaintext", "cached"}}) {
      double cold = Find(rows, op, "cold", bits);
      double cached = Find(rows, op, cached_mode, bits);
      if (cold > 0.0 && cached > 0.0) {
        json.Add("speedup_cached_vs_cold", cold / cached,
                 {{"op", op}, {"bits", std::to_string(bits)}});
      }
    }
    double cold_enc = Find(rows, "encrypt", "cold", bits);
    double consume = Find(rows, "encrypt", "cached_pipeline", bits);
    double precompute = Find(rows, "randomizer_precompute", "cached", bits);
    if (cold_enc > 0.0 && consume > 0.0 && precompute > 0.0) {
      json.Add("speedup_cached_vs_cold", cold_enc / consume,
               {{"op", "encrypt_consume"}, {"bits", std::to_string(bits)}});
      json.Add("speedup_cached_vs_cold", cold_enc / (consume + precompute),
               {{"op", "encrypt_amortized"},
                {"bits", std::to_string(bits)}});
    }
  }
  // -- Montgomery kernels --------------------------------------------------
  // One MontExp per kernel on one modulus at the sizes Protocol 1 runs (n,
  // p^2 and n^2 at 1024- to 3072-bit keys), the exponent half the modulus
  // long like r^n mod n^2. Every kernel must return the same numbers, also
  // for a base of all-ones limbs above the modulus; the IFMA speedup over
  // the 64-bit rows is reported, not gated, because it is the host CPU's.
  {
    const std::vector<std::pair<MontKernel, std::string>> kernels = {
        {MontKernel::kPortable, "portable"},
        {MontKernel::kAdx, "adx"},
        {MontKernel::kIfma, "ifma"}};
    bool kernels_identical = true;
    for (int bits : {1024, 2048, 3072, 4096, 6144}) {
      Rng rng(1200 + bits);
      BigInt m = BigInt::RandomBits(bits, rng);
      if (m.IsEven()) m = m + BigInt(1);
      const BigInt base = BigInt::RandomBelow(m, rng);
      const BigInt exp = BigInt::RandomBits(bits / 2, rng);
      const BigInt wide =
          (BigInt(1) << static_cast<int>(64 * m.limbs().size())) - BigInt(1);
      std::vector<BigInt> first;
      std::string row_kernel;
      for (const auto& [kernel, name] : kernels) {
        if (!MontKernels::Available(kernel, bits)) continue;
        const Montgomery mont = MontKernels::On(m, kernel);
        const std::vector<BigInt> got = {mont.MontExp(base, exp),
                                         mont.MontExp(wide, exp)};
        if (first.empty()) first = got;
        kernels_identical = kernels_identical && got == first;
        RecordOp(table, json, rows, "mont_exp_kernel", name, bits,
                 SecondsPerOp([&] { mont.MontExp(base, exp); }, window,
                              min_iters));
        if (kernel != MontKernel::kIfma) row_kernel = name;
      }
      const double ifma = Find(rows, "mont_exp_kernel", "ifma", bits);
      if (ifma > 0.0) {
        json.Add("mont_kernel_speedup",
                 Find(rows, "mont_exp_kernel", row_kernel, bits) / ifma,
                 {{"kernel", "ifma"},
                  {"over", row_kernel},
                  {"bits", std::to_string(bits)}});
      }
    }
    json.Add("mont_kernel_bitwise_identical", kernels_identical ? 1.0 : 0.0);
    if (!kernels_identical) {
      std::cerr << "BUG: Montgomery kernels disagree on one modulus\n";
      return 1;
    }
  }

  // -- ChaCha20 kernels ----------------------------------------------------
  // Keystream throughput per kernel the CPU runs (MB/s through NextUint64)
  // and every kernel's words against the scalar block, from counters that
  // straddle a 16-block batch and from 40 blocks before the 2^32 wrap.
  // Throughput is the host CPU's, so it is reported, not gated.
  {
    const std::vector<std::pair<ChaChaKernel, std::string>> kernels = {
        {ChaChaKernel::kScalar, "scalar"},
        {ChaChaKernel::kAvx2, "avx2"},
        {ChaChaKernel::kAvx512, "avx512"}};
    const ChaChaRng::Key key = ChaChaRng::DeriveKey("bench-chacha");
    const ChaChaRng::Nonce nonce = ChaChaRng::MakeNonce(9, 1);
    auto words = [&](ChaChaKernel kernel, uint32_t first_block) {
      ChaChaRng stream = ChaChaKernels::On(key, nonce, kernel, first_block);
      std::vector<uint64_t> out(8 * 40);
      for (uint64_t& w : out) w = stream.NextUint64();
      return out;
    };
    bool chacha_identical = true;
    std::vector<uint64_t> buffer(1024);  // 8 KiB of keystream per op
    for (const auto& [kernel, name] : kernels) {
      if (!ChaChaKernels::Available(kernel)) continue;
      for (uint32_t first_block : {0u, 15u, 0xFFFFFFFFu - 40}) {
        chacha_identical =
            chacha_identical && words(kernel, first_block) ==
                                    words(ChaChaKernel::kScalar, first_block);
      }
      ChaChaRng stream = ChaChaKernels::On(key, nonce, kernel);
      const double s = SecondsPerOp(
          [&] {
            for (uint64_t& w : buffer) w = stream.NextUint64();
          },
          window, min_iters);
      RecordOp(table, json, rows, "chacha_keystream_8KiB", name, 0, s);
      json.Add("chacha_keystream_mb_per_s", 8.0 * buffer.size() / s / 1e6,
               {{"kernel", name}});
    }
    json.Add("chacha_kernel_bitwise_identical", chacha_identical ? 1.0 : 0.0);
    if (!chacha_identical) {
      std::cerr << "BUG: ChaCha kernels disagree with the scalar block\n";
      return 1;
    }
  }

  // -- Substrate unit costs (the non-Paillier pieces of Figures 10/11) ----
  {
    Rng rng(7);
    BigInt a = BigInt::RandomBits(1024, rng);
    BigInt b = BigInt::RandomBits(1024, rng);
    BigInt wide = BigInt::RandomBits(2048, rng);
    RecordOp(table, json, rows, "bigint_mul", "-", 1024,
             SecondsPerOp([&] { a * b; }, window, min_iters));
    RecordOp(table, json, rows, "bigint_div", "-", 1024,
             SecondsPerOp([&] { wide % a; }, window, min_iters));

    BigInt q = GeneratePrime(256, rng);
    const int parties = 5;
    SecureAggregator agg(q, parties);
    std::vector<ChaChaRng::Key> keys(parties);
    for (int j = 0; j < parties; ++j) {
      keys[j] = ChaChaRng::DeriveKey("bench" + std::to_string(j));
    }
    // Each op draws party 0's masks against its 4 peers and adds them in
    // place to a flat vector.
    FieldVector v64(64, agg.limbs()), v256(256, agg.limbs());
    RecordOp(table, json, rows, "secure_agg_mask_dim64", "-", 256,
             SecondsPerOp([&] { agg.AddMasks(0, keys, 1, v64); }, window,
                          min_iters));
    // Mask generation serial vs pooled (per-peer PRF streams on the global
    // pool; bitwise identical output).
    RecordOp(table, json, rows, "secure_agg_mask_dim256", "serial", 256,
             SecondsPerOp([&] { agg.AddMasks(0, keys, 2, v256); }, window,
                          min_iters));
    RecordOp(table, json, rows, "secure_agg_mask_dim256", "pooled", 256,
             SecondsPerOp(
                 [&] {
                   agg.AddMasks(0, keys, 2, v256, &ThreadPool::Global());
                 },
                 window, min_iters));
    // The async silo's shape: one party's masks against its 2 peers over
    // the aggregation field at dim 100 000, serial as MaskDelta runs it.
    SecureAggregator agg3(AggregationPrime(), 3);
    const std::vector<ChaChaRng::Key> keys3(keys.begin(), keys.begin() + 3);
    FieldVector v100k(100000, agg3.limbs());
    RecordOp(table, json, rows, "secure_agg_mask_dim100000", "serial",
             AggregationPrime().BitLength(),
             SecondsPerOp([&] { agg3.AddMasks(0, keys3, 3, v100k); }, window,
                          min_iters));

    std::string data(4096, 'x');
    RecordOp(table, json, rows, "sha256_4096B", "-", 0,
             SecondsPerOp([&] { Sha256(data); }, window, min_iters));
    ChaChaRng stream(ChaChaRng::DeriveKey("bench"), ChaChaRng::MakeNonce(1));
    RecordOp(table, json, rows, "chacha_u64", "-", 0,
             SecondsPerOp([&] { stream.NextUint64(); }, window, min_iters));
    RecordOp(table, json, rows, "lcm_up_to_100", "-", 0,
             SecondsPerOp([&] { LcmUpTo(100); }, window, min_iters));
  }

  // -- Straus multi-exp vs the per-ciphertext MontExp fold ----------------
  // The weighting-phase shape: fold prod_i c_i^{k_i} mod n^2 over a batch
  // of ciphertexts. Straus shares one squaring chain across the whole
  // batch; the loop pays it per base.
  {
    PaillierPublicKey pk;
    PaillierSecretKey sk;
    Rng keyrng(77);
    if (!Paillier::GenerateKeyPair(512, keyrng, &pk, &sk).ok()) {
      std::cerr << "keygen failed for the multi-exp series\n";
      return 1;
    }
    PaillierContext ctx(pk);
    Rng rng(78);
    const int batch = 48;
    std::vector<BigInt> bases, exps;
    for (int i = 0; i < batch; ++i) {
      bases.push_back(
          ctx.Encrypt(BigInt::RandomBelow(pk.n, rng), rng).value());
      exps.push_back(BigInt::RandomBelow(pk.n, rng));
    }
    const Montgomery& mont = ctx.mont_n_squared();
    const BigInt& m2 = mont.modulus();
    auto loop_fold = [&] {
      BigInt acc(1);
      for (int i = 0; i < batch; ++i) {
        acc = acc.ModMul(mont.MontExp(bases[i], exps[i]), m2);
      }
      return acc;
    };
    MultiExp multi(mont, bases);
    if (multi.Product(exps) != loop_fold()) {
      std::cerr << "BUG: multi-exp disagrees with the MontExp fold\n";
      return 1;
    }
    const std::string op = "multi_exp_fold" + std::to_string(batch);
    RecordOp(table, json, rows, op, "loop", 512,
             SecondsPerOp([&] { loop_fold(); }, window, min_iters));
    RecordOp(table, json, rows, op, "straus", 512,
             SecondsPerOp([&] { multi.Product(exps); }, window, min_iters));
    const double loop_s = Find(rows, op, "loop", 512);
    const double multi_s = Find(rows, op, "straus", 512);
    json.Add("speedup_multi_exp_vs_loop", loop_s / multi_s,
             {{"bases", std::to_string(batch)}, {"bits", "512"}});
    json.Add("multi_exp_bitwise_identical", 1.0);
  }

  // -- The silo fold's two paths around the cost model's crossover --------
  // SiloCore::FoldUsers raises a batch of users' Enc(B_inv) to one scalar
  // per packed coordinate, either through one Straus chain per coordinate
  // or through one fixed-base table per user, as ChooseFoldPath picks.
  // Both paths run on a shape the model sends each way; the protocol
  // ledger has no table-side workload, so these rows are the table side's
  // evidence. The ratio is reported, not gated.
  {
    bool fold_identical = true;
    struct FoldShape {
      int users;
      int coords;
    };
    for (int bits : key_bits) {
      PaillierPublicKey pk;
      PaillierSecretKey sk;
      Rng keyrng(80 + bits);
      if (!Paillier::GenerateKeyPair(bits, keyrng, &pk, &sk).ok()) {
        std::cerr << "keygen failed for the fold series\n";
        return 1;
      }
      PaillierContext ctx(pk);
      Rng rng(81);
      for (const FoldShape& shape : {FoldShape{8, 4}, FoldShape{2, 16}}) {
        std::vector<BigInt> ciphers;
        for (int u = 0; u < shape.users; ++u) {
          ciphers.push_back(
              ctx.Encrypt(BigInt::RandomBelow(pk.n, rng), rng).value());
        }
        std::vector<std::vector<BigInt>> scalars(
            shape.coords, std::vector<BigInt>(shape.users));
        for (auto& coord : scalars) {
          for (BigInt& k : coord) k = BigInt::RandomBelow(pk.n, rng);
        }
        const size_t coords = static_cast<size_t>(shape.coords);
        auto tables_fold = [&] {
          std::vector<FixedBaseTable> tables;
          for (const BigInt& c : ciphers) {
            tables.push_back(ctx.MakeMulPlaintextTable(c, coords));
          }
          std::vector<BigInt> out(coords, BigInt(1));
          for (size_t g = 0; g < coords; ++g) {
            for (size_t u = 0; u < tables.size(); ++u) {
              out[g] = ctx.AddCiphertexts(
                  out[g], ctx.MulPlaintextWithTable(tables[u], scalars[g][u]));
            }
          }
          return out;
        };
        auto straus_fold = [&] {
          const MultiExp multi(ctx.mont_n_squared(), ciphers,
                               pk.n.BitLength(), coords);
          std::vector<BigInt> out;
          for (const auto& coord : scalars) out.push_back(multi.Product(coord));
          return out;
        };
        std::vector<BigInt> loop(coords, BigInt(1));
        for (size_t g = 0; g < coords; ++g) {
          for (size_t u = 0; u < ciphers.size(); ++u) {
            loop[g] = ctx.AddCiphertexts(
                loop[g], ctx.MulPlaintext(ciphers[u], scalars[g][u]));
          }
        }
        fold_identical = fold_identical && tables_fold() == loop &&
                         straus_fold() == loop;
        const std::string op = "silo_fold_" + std::to_string(shape.users) +
                               "x" + std::to_string(shape.coords);
        RecordOp(table, json, rows, op, "tables", bits,
                 SecondsPerOp([&] { tables_fold(); }, window, min_iters));
        RecordOp(table, json, rows, op, "straus", bits,
                 SecondsPerOp([&] { straus_fold(); }, window, min_iters));
        const bool pick_tables =
            ChooseFoldPath(ciphers.size(), coords, pk.n.BitLength()) ==
            FoldPath::kTables;
        json.Add("fold_tables_over_straus",
                 Find(rows, op, "tables", bits) / Find(rows, op, "straus", bits),
                 {{"users", std::to_string(shape.users)},
                  {"coords", std::to_string(shape.coords)},
                  {"bits", std::to_string(bits)},
                  {"pick", pick_tables ? "tables" : "straus"}});
      }
    }
    json.Add("fold_paths_bitwise_identical", fold_identical ? 1.0 : 0.0);
    if (!fold_identical) {
      std::cerr << "BUG: a silo fold path disagrees with the MulPlaintext "
                   "loop\n";
      return 1;
    }
  }

  // -- Lim-Lee comb fixed-base table at heavy reuse ----------------------
  {
    Rng rng(79);
    BigInt m = GeneratePrime(512, rng);
    Montgomery mont(m);
    BigInt base = BigInt::RandomBelow(m, rng);
    FixedBaseTable comb(mont, base, 512, 100000);
    BigInt exp = BigInt::RandomBits(512, rng);
    const bool comb_ok = comb.Exp(exp) == mont.MontExp(base, exp);
    RecordOp(table, json, rows, "modexp", "fixed_base_comb", 512,
             SecondsPerOp([&] { comb.Exp(exp); }, window, min_iters));
    json.Add("fixed_base_entries", static_cast<double>(comb.entries()),
             {{"layout", "comb"}, {"bits", "512"}});
    json.Add("comb_bitwise_identical", comb_ok ? 1.0 : 0.0);
    if (!comb_ok) {
      std::cerr << "BUG: comb fixed-base output diverges from MontExp\n";
      return 1;
    }
  }
  table.Print(std::cout);

  const int users = smoke ? 6 : 12;
  const int dim = smoke ? 12 : 48;

  // -- Packed protocol rounds: pack_slots 1 vs 2 vs 4 vs 8 ----------------
  // Every factor runs one untimed warm-up round. Each speedup is then the
  // median of kPackedPairs per-pair round-time ratios against pack_slots
  // 1, with the arm that runs first alternating, so host drift lands on
  // both arms alike and one slow ~5 ms round cannot set the gate's input.
  std::cout << "\n=== Protocol round with ciphertext packing (pack-feasible "
               "config: n_max 8, precision 1e-6, clip 8) ===\n";
  constexpr int kPackedPairs = 7;
  const std::vector<int> factors = {1, 2, 4, 8};
  std::vector<PackedRound> packed_rounds(factors.size());
  for (size_t i = 0; i < factors.size(); ++i) {
    if (!SetupPackedRound(factors[i], users, dim, &packed_rounds[i])) {
      std::cerr << "packed protocol setup failed at pack_slots "
                << factors[i] << "\n";
      return 1;
    }
  }
  Vec packed_ref;
  bool packed_identical = true;
  auto round_of = [&](size_t i) {
    return [&, i] {
      Vec out;
      const double seconds = RunPackedRound(&packed_rounds[i], &out);
      if (packed_ref.empty()) packed_ref = out;
      packed_identical = packed_identical && out == packed_ref;
      return seconds;
    };
  };
  std::vector<double> speedups(factors.size(), 1.0);
  for (size_t i = 0; i < factors.size(); ++i) {
    const double warm = round_of(i)();
    packed_rounds[i].seconds.clear();
    const double ratio =
        i == 0 ? 1.0 : MedianPairedRatio(kPackedPairs, round_of(0), round_of(i));
    if (warm < 0.0 || ratio <= 0.0) {
      std::cerr << "packed protocol round failed at pack_slots "
                << factors[i] << "\n";
      return 1;
    }
    speedups[i] = 1.0 / ratio;
  }
  Table packed({"pack_slots", "round_seconds_median", "speedup",
                "bitwise_identical"});
  for (size_t i = 0; i < factors.size(); ++i) {
    std::vector<double>& timed = packed_rounds[i].seconds;
    std::nth_element(timed.begin(), timed.begin() + timed.size() / 2,
                     timed.end());
    const double k_s = timed[timed.size() / 2];
    const std::string ks = std::to_string(factors[i]);
    json.Add("round_seconds_packed", k_s, {{"pack_slots", ks}});
    if (i == 0) {
      packed.AddRow({ks, FormatG(k_s, 4), "1.0", "ref"});
      continue;
    }
    packed.AddRow({ks, FormatG(k_s, 4), FormatG(speedups[i], 3),
                   packed_identical ? "yes" : "NO (BUG)"});
    json.Add("packed_round_speedup", speedups[i], {{"pack_slots", ks}});
  }
  packed.Print(std::cout);
  json.Add("packed_bitwise_identical", packed_identical ? 1.0 : 0.0);
  if (!packed_identical) {
    std::cerr << "BUG: packing changed the round output\n";
    return 1;
  }

  std::cout << "\nThe fast path reuses per-key Montgomery contexts, "
               "decrypts via CRT, consumes precomputed randomizers, and "
               "amortizes per-user fixed-base tables across the weighting "
               "loop; outputs are bitwise identical to the cold path.\n";
  return 0;
}
