// Machine-readable micro benchmarks for the cryptographic substrate,
// focused on the Paillier fast path: cold-context operations (the static
// Paillier shim, which rebuilds Montgomery state per call) against the
// cached PaillierContext (long-lived contexts, sliding-window MontExp with
// a dedicated squaring path, CRT decryption, CRT randomizers on the key
// holder against the eval-only n^2 path, and the one-multiply
// randomizer-pipeline encryption), plus fixed-base exponentiation (per-base
// window tables, math/fixed_base.h) against the sliding-window path it
// amortizes away, Pippenger multi-exponentiation against the per-base
// fold, and the Lim-Lee comb against the radix table layout. Also
// measures fig11-style private weighting rounds at each ciphertext packing
// factor, plus the remaining substrate unit costs behind Figures 10/11
// (BigInt mul/div, secure-aggregation masking serial vs pooled, SHA-256,
// the ChaCha stream, C_LCM).
//
// Emits BENCH_micro_crypto.json via bench_common. Modes:
//   default            — quick sweep (512/1024-bit keys), a few seconds
//   ULDP_BENCH_SMOKE=1 — CI smoke: 512-bit only, short measurement windows
//   ULDP_BENCH_SCALE=full — adds the 2048-bit point

#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>
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

/// One protocol round on a pack-feasible configuration (small n_max /
/// precision / clip so pack_slots up to 8 fits a 512-bit plaintext).
/// Returns wall seconds; `out` receives the aggregate so the caller can
/// assert every packing factor decodes bitwise identically.
double TimedPackedRound(int pack_slots, int users, int dim, Vec* out) {
  const int silos = 3;
  ProtocolConfig pc;
  pc.paillier_bits = 512;
  pc.n_max = 8;  // C_LCM = 840: 8 slots of guard-banded digits fit 512 bits
  pc.precision = 1e-6;
  pc.pack_clip = 8.0;
  pc.seed = 909;
  pc.pack_slots = pack_slots;
  PrivateWeightingProtocol protocol(pc, silos, users);
  Rng rng(23);
  std::vector<std::vector<int>> hist(silos, std::vector<int>(users, 0));
  for (int u = 0; u < users; ++u) {
    // Each user's records land in one silo, so totals stay <= n_max = 8.
    hist[static_cast<int>(rng.UniformInt(silos))][u] =
        1 + static_cast<int>(rng.UniformInt(4));
  }
  if (!protocol.Setup(hist).ok()) return -1.0;
  std::vector<std::vector<Vec>> deltas(silos, std::vector<Vec>(users));
  std::vector<Vec> noise(silos, Vec(dim));
  for (int s = 0; s < silos; ++s) {
    for (int u = 0; u < users; ++u) {
      if (hist[s][u] == 0) continue;
      deltas[s][u].resize(dim);
      for (double& v : deltas[s][u]) v = rng.Gaussian(0.0, 0.1);
    }
    for (double& v : noise[s]) v = rng.Gaussian(0.0, 0.1);
  }
  std::vector<bool> sampled(users, true);
  auto start = Clock::now();
  auto result = protocol.WeightingRound(0, deltas, noise, sampled);
  double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (!result.ok()) return -1.0;
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
    // Fixed-base: per-base window table amortized over many exponentiations
    // of one base (the weighting loop's shape), vs the sliding-window
    // cached path above. The table build is reported separately so the
    // amortization break-even is visible in the artifact.
    FixedBaseTable fb_table(mont, base, bits, /*expected_uses=*/1024);
    if (FixedBaseExp(fb_table, exp) != mont.MontExp(base, exp)) {
      std::cerr << "BUG: fixed-base modexp disagrees with sliding window\n";
      return 1;
    }
    RecordOp(table, json, rows, "modexp", "fixed_base", bits,
           SecondsPerOp([&] { FixedBaseExp(fb_table, exp); }, window,
                        min_iters));
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
    RecordOp(table, json, rows, "secure_agg_mask_dim64", "-", 256,
             SecondsPerOp([&] { agg.MaskVector(0, keys, 1, 64); }, window,
                          min_iters));
    // Mask generation serial vs pooled (per-peer PRF streams on the global
    // pool; bitwise identical output).
    RecordOp(table, json, rows, "secure_agg_mask_dim256", "serial", 256,
             SecondsPerOp([&] { agg.MaskVector(0, keys, 2, 256); }, window,
                          min_iters));
    RecordOp(table, json, rows, "secure_agg_mask_dim256", "pooled", 256,
             SecondsPerOp(
                 [&] {
                   agg.MaskVector(0, keys, 2, 256, &ThreadPool::Global());
                 },
                 window, min_iters));

    std::string data(4096, 'x');
    RecordOp(table, json, rows, "sha256_4096B", "-", 0,
             SecondsPerOp([&] { Sha256(data); }, window, min_iters));
    ChaChaRng stream(ChaChaRng::DeriveKey("bench"), ChaChaRng::MakeNonce(1));
    RecordOp(table, json, rows, "chacha_u64", "-", 0,
             SecondsPerOp([&] { stream.NextUint64(); }, window, min_iters));
    RecordOp(table, json, rows, "lcm_up_to_100", "-", 0,
             SecondsPerOp([&] { LcmUpTo(100); }, window, min_iters));
  }

  // -- Pippenger multi-exp vs the per-ciphertext MontExp fold -------------
  // The weighting-phase shape: fold prod_i c_i^{k_i} mod n^2 over a batch
  // of ciphertexts. The bucket method shares window squarings across the
  // whole batch; the loop pays them per base.
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
    RecordOp(table, json, rows, op, "pippenger", 512,
             SecondsPerOp([&] { multi.Product(exps); }, window, min_iters));
    const double loop_s = Find(rows, op, "loop", 512);
    const double multi_s = Find(rows, op, "pippenger", 512);
    json.Add("speedup_multi_exp_vs_loop", loop_s / multi_s,
             {{"bases", std::to_string(batch)}, {"bits", "512"}});
    json.Add("multi_exp_bitwise_identical", 1.0);
  }

  // -- Lim-Lee comb vs radix fixed-base layout ----------------------------
  // Same reuse budget, same base: the comb trades a few per-use squarings
  // for a much smaller table.
  {
    Rng rng(79);
    BigInt m = GeneratePrime(512, rng);
    Montgomery mont(m);
    BigInt base = BigInt::RandomBelow(m, rng);
    FixedBaseTable radix(mont, base, 512, 100000,
                         FixedBaseTable::Strategy::kRadix);
    FixedBaseTable comb(mont, base, 512, 100000,
                        FixedBaseTable::Strategy::kComb);
    BigInt exp = BigInt::RandomBits(512, rng);
    const BigInt want = mont.MontExp(base, exp);
    const bool comb_ok = radix.Exp(exp) == want && comb.Exp(exp) == want;
    RecordOp(table, json, rows, "modexp", "fixed_base_radix", 512,
             SecondsPerOp([&] { radix.Exp(exp); }, window, min_iters));
    RecordOp(table, json, rows, "modexp", "fixed_base_comb", 512,
             SecondsPerOp([&] { comb.Exp(exp); }, window, min_iters));
    const double radix_s = Find(rows, "modexp", "fixed_base_radix", 512);
    const double comb_s = Find(rows, "modexp", "fixed_base_comb", 512);
    json.Add("fixed_base_entries", static_cast<double>(radix.entries()),
             {{"layout", "radix"}, {"bits", "512"}});
    json.Add("fixed_base_entries", static_cast<double>(comb.entries()),
             {{"layout", "comb"}, {"bits", "512"}});
    json.Add("fixed_base_entries_ratio_radix_vs_comb",
             static_cast<double>(radix.entries()) /
                 static_cast<double>(comb.entries()),
             {{"bits", "512"}});
    json.Add("comb_vs_radix_speed_ratio", radix_s / comb_s,
             {{"bits", "512"}});
    json.Add("comb_bitwise_identical", comb_ok ? 1.0 : 0.0);
    if (!comb_ok) {
      std::cerr << "BUG: comb/radix fixed-base outputs diverge\n";
      return 1;
    }
  }
  table.Print(std::cout);

  const int users = smoke ? 6 : 12;
  const int dim = smoke ? 12 : 48;

  // -- Packed protocol rounds: pack_slots 1 vs 2 vs 4 vs 8 ----------------
  std::cout << "\n=== Protocol round with ciphertext packing (pack-feasible "
               "config: n_max 8, precision 1e-6, clip 8) ===\n";
  Vec packed_ref;
  double packed1_s = TimedPackedRound(1, users, dim, &packed_ref);
  if (packed1_s < 0.0) {
    std::cerr << "packed protocol round failed\n";
    return 1;
  }
  Table packed({"pack_slots", "round_seconds", "speedup",
                "bitwise_identical"});
  packed.AddRow({"1", FormatG(packed1_s, 4), "1.0", "ref"});
  json.Add("round_seconds_packed", packed1_s, {{"pack_slots", "1"}});
  bool packed_identical = true;
  for (int k : {2, 4, 8}) {
    Vec out;
    double k_s = TimedPackedRound(k, users, dim, &out);
    if (k_s < 0.0) {
      std::cerr << "packed protocol round failed at pack_slots " << k << "\n";
      return 1;
    }
    const bool same = out == packed_ref;
    packed_identical = packed_identical && same;
    const std::string ks = std::to_string(k);
    packed.AddRow({ks, FormatG(k_s, 4), FormatG(packed1_s / k_s, 3),
                   same ? "yes" : "NO (BUG)"});
    json.Add("round_seconds_packed", k_s, {{"pack_slots", ks}});
    json.Add("packed_round_speedup", packed1_s / k_s, {{"pack_slots", ks}});
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
