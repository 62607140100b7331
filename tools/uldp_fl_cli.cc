// Command-line experiment runner: the downstream-user entry point for
// running any Uldp-FL algorithm on a built-in synthetic dataset or a CSV
// file without writing C++ — and for driving the distributed Protocol 1
// over TCP.
//
//   uldp_fl_cli --dataset=creditcard --method=uldp-avg-w --rounds=30
//               --users=100 --silos=5 --allocation=zipf --sigma=5
//   uldp_fl_cli --csv=transactions.csv --label-column=30 ...
//
//   # distributed Protocol 1 (one server, N silo clients on loopback):
//   uldp_fl_cli --serve=7100 --silos=2 --users=8 --dim=16 --rounds=2
//   uldp_fl_cli --connect=127.0.0.1:7100 --silo-id=0 --silos=2 --users=8
//               --dim=16
//
// Run with --help for the full flag list.

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common/parse.h"
#include "core/experiment.h"
#include "fl/session.h"
#include "core/private_weighting.h"
#include "core/uldp_avg.h"
#include "core/uldp_group.h"
#include "core/uldp_naive.h"
#include "core/uldp_sgd.h"
#include "data/allocation.h"
#include "data/csv_loader.h"
#include "data/synthetic.h"
#include "dp/calibration.h"
#include "fl/fedavg.h"
#include "net/demo.h"
#include "net/protocol_node.h"
#include "net/tcp.h"
#include "net/transcript.h"
#include "obs/metrics.h"
#include "obs/stats_server.h"
#include "obs/trace.h"

namespace uldp {
namespace {

struct Flags {
  std::string dataset = "creditcard";  // creditcard|mnist|heart|tcga
  std::string csv;                     // overrides dataset when set
  int label_column = -1;
  std::string method = "uldp-avg";  // default|uldp-naive|uldp-group|
                                    // uldp-avg|uldp-avg-w|uldp-sgd
  std::string allocation = "zipf";  // uniform|zipf
  int users = 100;
  int silos = 5;
  int rounds = 20;
  int eval_every = 5;
  int records = 6000;
  int group_k = 8;
  double sigma = 5.0;
  double clip = 1.0;
  double local_lr = 0.1;
  double global_lr = 0.0;  // 0 = method default
  double delta = 1e-5;
  double user_sample_rate = 1.0;
  double target_epsilon = 0.0;  // > 0: calibrate sigma instead of --sigma
  int local_epochs = 2;
  uint64_t seed = 1;
  int num_seeds = 1;  // > 1 averages runs
  int threads = 0;    // round-engine threads (0 = auto)
  // Asynchronous staleness-bounded rounds.
  bool async = false;      // local: async trainers; with --serve/--connect:
                           // async FL demo over the transport layer
  int max_staleness = 0;   // staleness bound tau
  int async_buffer = 0;    // arrivals per server step (0 = silos)
  // Elastic membership (async server/clients).
  bool elastic = false;    // dynamic membership: mid-run joins + eviction
  int min_silos = 0;       // fail below this active population (0 = 1)
  bool masked = false;     // submit pairwise-masked deltas (secure agg)
  // Checkpoint/resume (local experiments and the async server).
  std::string checkpoint_dir;  // write <dir>/session.ckpt
  int checkpoint_every = 0;    // every K rounds (0 = off)
  bool resume = false;         // load the checkpoint and continue
  // Fault injection (--fail-silo=ID:ROUND / --join-silo=ID:ROUND).
  double straggler = 0.0;  // async client: seconds of compute per step
  int fail_silo = -1;  // this silo crashes when released with ROUND
  int fail_round = -1;
  int join_silo = -1;  // this silo joins mid-run at version >= ROUND
  int join_round = -1;
  // Distributed Protocol 1 modes.
  int serve = -1;           // >= 0: run a protocol server on this port
                            // (0 picks an ephemeral port and prints it)
  std::string connect;      // host:port: run a silo client
  int silo_id = -1;         // required with --connect
  int dim = 16;             // demo model dimension
  int paillier_bits = 512;  // protocol modulus (demo scale)
  int n_max = 30;           // protocol N_max
  int ot_slots = 0;         // > 0: OT-based private sub-sampling, P slots
  int pack_slots = 1;       // ciphertext packing slots (1 = unpacked)
  bool verify = false;      // server: compare against the in-process run
  int net_timeout = 0;      // seconds; recv/handshake deadline on TCP (0=off)
  // Streaming rounds (bounded peak RSS; must match on every party).
  int stream_chunk_users = 0;   // > 0: stream enc weights in user chunks
  int stream_chunk_coords = 0;  // cipher-upload chunk size (0 = default)
  int stream_window = 0;        // unacked chunks in flight (0 = default)
  int max_frame_bytes = 0;      // wire frame payload cap (0 = default)
  // Tamper-evident transcripts (src/net/transcript.h).
  std::string record_transcript;  // dir: write this party's transcript
  std::string verify_transcript;  // file: verify chain/HMAC + replay
  std::string hmac_key;           // hex key for the keyed chain finalizer
  // Telemetry (src/obs/) — strictly passive: results are bitwise
  // identical with or without these.
  std::string metrics_out;  // write the metrics registry JSON on exit
  std::string trace_out;    // record spans, write Chrome trace JSON on exit
  int stats_port = -1;      // >= 0: live Prometheus endpoint (servers;
                            // 0 picks an ephemeral port and prints it)
};

void PrintHelp() {
  std::cout <<
      "uldp_fl_cli — run a cross-silo user-level-DP FL experiment\n\n"
      "  --dataset=creditcard|mnist|heart|tcga   built-in synthetic data\n"
      "  --csv=PATH --label-column=N             or load a CSV instead\n"
      "  --method=default|uldp-naive|uldp-group|uldp-avg|uldp-avg-w|"
      "uldp-sgd\n"
      "  --allocation=uniform|zipf   user/silo record allocation\n"
      "  --users=N --silos=N --records=N\n"
      "  --rounds=T --eval-every=K --local-epochs=Q\n"
      "  --sigma=S --clip=C --local-lr=LR --global-lr=LR --delta=D\n"
      "  --target-epsilon=E          calibrate sigma for this budget\n"
      "  --user-sample-rate=Q        user-level sub-sampling (Alg. 4)\n"
      "  --group-k=K                 group size for uldp-group\n"
      "  --seed=N --num-seeds=M      M > 1 reports mean±std over seeds\n"
      "  --threads=N                 silo-round threads (0 = auto;\n"
      "                              results are identical for any N)\n"
      "  --async                     asynchronous staleness-bounded rounds:\n"
      "                              silo deltas apply as they land instead\n"
      "                              of barrier-waiting on the slowest silo\n"
      "  --max-staleness=T           accept updates up to T versions stale\n"
      "                              (discounted 1/(1+tau); 0 = barrier,\n"
      "                              bitwise-identical to sync)\n"
      "  --async-buffer=K            arrivals per server step (0 = silos)\n"
      "  --checkpoint-dir=PATH       write PATH/session.ckpt (local runs\n"
      "                              and the async server)\n"
      "  --checkpoint-every=K        checkpoint every K rounds and on the\n"
      "                              final round (required with\n"
      "                              --checkpoint-dir)\n"
      "  --resume                    load the checkpoint and continue; the\n"
      "                              resumed run is bitwise identical to an\n"
      "                              uninterrupted one on the same seed\n\n"
      "Distributed Protocol 1 (src/net/): a server plus one client per\n"
      "silo exchange every phase as wire frames over TCP and produce\n"
      "bitwise-identical aggregates to the in-process simulation.\n"
      "  --serve=PORT                run the protocol server (0 = pick an\n"
      "                              ephemeral port and print it)\n"
      "  --connect=HOST:PORT --silo-id=K   run silo K's client\n"
      "  --dim=D --paillier-bits=B --n-max=N   demo protocol shape\n"
      "  --ot-slots=P                OT-based private user sub-sampling\n"
      "                              with P slots (0 = off); all parties\n"
      "                              must agree\n"
      "  --pack-slots=K              pack K fixed-point coordinates per\n"
      "                              Paillier ciphertext (1 = unpacked);\n"
      "                              all parties must agree\n"
      "  --verify                    server: also run the in-process\n"
      "                              protocol and require bitwise equality\n"
      "  --net-timeout=SECONDS       TCP recv/handshake deadline — a hung\n"
      "                              peer fails fast instead of blocking\n"
      "                              forever (0 = off)\n"
      "  --stream-chunk-users=K      stream encrypted weights K users at a\n"
      "                              time and fold silo ciphers chunk by\n"
      "                              chunk: peak resident ciphertexts are\n"
      "                              O(K), independent of --users, and the\n"
      "                              aggregates stay bitwise identical\n"
      "                              (0 = materialize whole rounds)\n"
      "  --stream-chunk-coords=C     cipher-upload coordinates per chunk\n"
      "                              (0 = default 256)\n"
      "  --stream-window=W           unacknowledged chunks in flight per\n"
      "                              peer (0 = default 4)\n"
      "  --max-frame-bytes=B         reject any wire frame whose payload\n"
      "                              exceeds B bytes before allocating it\n"
      "                              (0 = default cap)\n"
      "Tamper-evident transcripts (src/net/transcript.h; see\n"
      "docs/transcripts.md):\n"
      "  --record-transcript=DIR     record every frame this party sends or\n"
      "                              receives as a hash-chained transcript\n"
      "                              in DIR (server.ult / siloK.ult /\n"
      "                              async-*.ult), written on every exit\n"
      "                              path including failures; recording is\n"
      "                              passive — the run's bytes and results\n"
      "                              are unchanged\n"
      "  --verify-transcript=FILE    verify a recorded transcript: trailing\n"
      "                              digest, SHA-256 hash chain, optional\n"
      "                              HMAC, then a deterministic replay\n"
      "                              through the real protocol drivers that\n"
      "                              must reproduce every recorded outbound\n"
      "                              frame byte-for-byte (protocol roles;\n"
      "                              async roles verify chain + HMAC only)\n"
      "  --hmac-key=HEX              keyed chain finalizer: with\n"
      "                              --record-transcript, bind the chain\n"
      "                              head to this key; with\n"
      "                              --verify-transcript, require and check\n"
      "                              the binding (a forger who re-hashes a\n"
      "                              doctored chain fails without the key)\n"
      "With --async, --serve/--connect run the asynchronous FL demo over\n"
      "TCP (StalenessInfo/RoundAck frames) instead of Protocol 1;\n"
      "--verify requires --max-staleness=0, where the distributed run is\n"
      "bitwise-identical to the synchronous engine (with --masked, to its\n"
      "secure fixed-point reduce).\n"
      "Elastic membership (async demo only):\n"
      "  --elastic                   server: admit mid-run join requests at\n"
      "                              flush boundaries and evict dead silos\n"
      "                              instead of failing the run\n"
      "  --min-silos=N               fail the run if the active population\n"
      "                              drops below N (default 1)\n"
      "  --masked                    silos upload pairwise-masked deltas\n"
      "                              (fl/local_trainer.h) whose masks\n"
      "                              cancel in a sum bitwise identical to\n"
      "                              the in-process secure reduce. The pair\n"
      "                              keys come from public strings (a\n"
      "                              simulation), so a server deriving\n"
      "                              them can unmask each silo's delta\n"
      "  --straggler=SECONDS         async client: sleep this long per\n"
      "                              local step (slows the run so kill/\n"
      "                              resume drills can land mid-run)\n"
      "  --fail-silo=ID:ROUND        the client running silo ID crashes\n"
      "                              (closes its socket mid-round) once\n"
      "                              released with version >= ROUND\n"
      "  --join-silo=ID:ROUND        silo ID joins mid-run: its client\n"
      "                              sends a join request admitted at the\n"
      "                              first flush with version >= ROUND;\n"
      "                              the server waits for one fewer silo\n"
      "                              before starting\n"
      "All parties must be started with the same --silos/--users/--seed\n"
      "and protocol shape flags (enforced by a config digest at join\n"
      "time); --dim must match too, but a mismatch only surfaces as a\n"
      "dimension error at round time. --rounds/--threads are\n"
      "server-/party-local.\n"
      "Observability (src/obs/; passive — results are bitwise identical\n"
      "with or without these, in every mode):\n"
      "  --metrics-out=PATH          write the metrics registry snapshot\n"
      "                              (counters, gauges, histograms) as JSON\n"
      "                              on exit — including failed runs\n"
      "  --trace-out=PATH            record phase/chunk trace spans and\n"
      "                              write Chrome trace-event JSON on exit\n"
      "                              (load in about://tracing or Perfetto)\n"
      "  --stats-port=PORT           servers: live Prometheus text endpoint\n"
      "                              on 127.0.0.1:PORT (0 = pick an\n"
      "                              ephemeral port and print it)\n";
}

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* out) {
  std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

/// Strict numeric flag parsing: any malformed or out-of-range value is a
/// clear error instead of atoi's silent 0.
Status ParseIntInto(const std::string& value, const std::string& name,
                    int64_t min, int64_t max, int* out) {
  auto v = ParseInt(value, min, max, "--" + name);
  if (!v.ok()) return v.status();
  *out = static_cast<int>(v.value());
  return Status::Ok();
}

Status ParseDoubleInto(const std::string& value, const std::string& name,
                       double* out) {
  auto v = ParseDouble(value, "--" + name);
  if (!v.ok()) return v.status();
  *out = v.value();
  return Status::Ok();
}

/// Parses the fault-injection flags' "ID:ROUND" form.
Status ParseSiloRound(const std::string& value, const std::string& name,
                      int* silo, int* round) {
  size_t colon = value.find(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == value.size()) {
    return Status::InvalidArgument("--" + name + " expects ID:ROUND, got \"" +
                                   value + "\"");
  }
  ULDP_RETURN_IF_ERROR(
      ParseIntInto(value.substr(0, colon), name, 0, (1 << 16) - 1, silo));
  ULDP_RETURN_IF_ERROR(
      ParseIntInto(value.substr(colon + 1), name, 0, 1 << 24, round));
  return Status::Ok();
}

Result<Flags> ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (arg == "--help" || arg == "-h") {
      PrintHelp();
      std::exit(0);
    } else if (arg == "--verify") {
      flags.verify = true;
    } else if (arg == "--async") {
      flags.async = true;
    } else if (arg == "--elastic") {
      flags.elastic = true;
    } else if (arg == "--masked") {
      flags.masked = true;
    } else if (arg == "--resume") {
      flags.resume = true;
    } else if (ParseFlag(arg, "min-silos", &value)) {
      ULDP_RETURN_IF_ERROR(
          ParseIntInto(value, "min-silos", 1, 1 << 16, &flags.min_silos));
    } else if (ParseFlag(arg, "checkpoint-dir", &value)) {
      flags.checkpoint_dir = value;
    } else if (ParseFlag(arg, "checkpoint-every", &value)) {
      ULDP_RETURN_IF_ERROR(ParseIntInto(value, "checkpoint-every", 1, 1 << 24,
                                        &flags.checkpoint_every));
    } else if (ParseFlag(arg, "straggler", &value)) {
      ULDP_RETURN_IF_ERROR(
          ParseDoubleInto(value, "straggler", &flags.straggler));
    } else if (ParseFlag(arg, "fail-silo", &value)) {
      ULDP_RETURN_IF_ERROR(ParseSiloRound(value, "fail-silo",
                                          &flags.fail_silo,
                                          &flags.fail_round));
    } else if (ParseFlag(arg, "join-silo", &value)) {
      ULDP_RETURN_IF_ERROR(ParseSiloRound(value, "join-silo",
                                          &flags.join_silo,
                                          &flags.join_round));
    } else if (ParseFlag(arg, "max-staleness", &value)) {
      ULDP_RETURN_IF_ERROR(ParseIntInto(value, "max-staleness", 0, 1 << 20,
                                        &flags.max_staleness));
    } else if (ParseFlag(arg, "async-buffer", &value)) {
      ULDP_RETURN_IF_ERROR(ParseIntInto(value, "async-buffer", 0, 1 << 16,
                                        &flags.async_buffer));
    } else if (ParseFlag(arg, "net-timeout", &value)) {
      ULDP_RETURN_IF_ERROR(ParseIntInto(value, "net-timeout", 0, 1 << 20,
                                        &flags.net_timeout));
    } else if (ParseFlag(arg, "stream-chunk-users", &value)) {
      ULDP_RETURN_IF_ERROR(ParseIntInto(value, "stream-chunk-users", 0,
                                        1 << 24, &flags.stream_chunk_users));
    } else if (ParseFlag(arg, "stream-chunk-coords", &value)) {
      ULDP_RETURN_IF_ERROR(ParseIntInto(value, "stream-chunk-coords", 0,
                                        1 << 20, &flags.stream_chunk_coords));
    } else if (ParseFlag(arg, "stream-window", &value)) {
      ULDP_RETURN_IF_ERROR(ParseIntInto(value, "stream-window", 0, 1 << 16,
                                        &flags.stream_window));
    } else if (ParseFlag(arg, "max-frame-bytes", &value)) {
      ULDP_RETURN_IF_ERROR(ParseIntInto(value, "max-frame-bytes", 0,
                                        1 << 30, &flags.max_frame_bytes));
    } else if (ParseFlag(arg, "dataset", &value)) {
      flags.dataset = value;
    } else if (ParseFlag(arg, "csv", &value)) {
      flags.csv = value;
    } else if (ParseFlag(arg, "label-column", &value)) {
      ULDP_RETURN_IF_ERROR(ParseIntInto(value, "label-column", -1, 1 << 20,
                                        &flags.label_column));
    } else if (ParseFlag(arg, "method", &value)) {
      flags.method = value;
    } else if (ParseFlag(arg, "allocation", &value)) {
      flags.allocation = value;
    } else if (ParseFlag(arg, "users", &value)) {
      ULDP_RETURN_IF_ERROR(
          ParseIntInto(value, "users", 1, 1 << 24, &flags.users));
    } else if (ParseFlag(arg, "silos", &value)) {
      ULDP_RETURN_IF_ERROR(
          ParseIntInto(value, "silos", 1, 1 << 16, &flags.silos));
    } else if (ParseFlag(arg, "rounds", &value)) {
      ULDP_RETURN_IF_ERROR(
          ParseIntInto(value, "rounds", 1, 1 << 24, &flags.rounds));
    } else if (ParseFlag(arg, "eval-every", &value)) {
      ULDP_RETURN_IF_ERROR(
          ParseIntInto(value, "eval-every", 1, 1 << 24, &flags.eval_every));
    } else if (ParseFlag(arg, "records", &value)) {
      ULDP_RETURN_IF_ERROR(
          ParseIntInto(value, "records", 1, 1 << 28, &flags.records));
    } else if (ParseFlag(arg, "group-k", &value)) {
      ULDP_RETURN_IF_ERROR(
          ParseIntInto(value, "group-k", 1, 1 << 24, &flags.group_k));
    } else if (ParseFlag(arg, "sigma", &value)) {
      ULDP_RETURN_IF_ERROR(ParseDoubleInto(value, "sigma", &flags.sigma));
    } else if (ParseFlag(arg, "clip", &value)) {
      ULDP_RETURN_IF_ERROR(ParseDoubleInto(value, "clip", &flags.clip));
    } else if (ParseFlag(arg, "local-lr", &value)) {
      ULDP_RETURN_IF_ERROR(
          ParseDoubleInto(value, "local-lr", &flags.local_lr));
    } else if (ParseFlag(arg, "global-lr", &value)) {
      ULDP_RETURN_IF_ERROR(
          ParseDoubleInto(value, "global-lr", &flags.global_lr));
    } else if (ParseFlag(arg, "delta", &value)) {
      ULDP_RETURN_IF_ERROR(ParseDoubleInto(value, "delta", &flags.delta));
    } else if (ParseFlag(arg, "user-sample-rate", &value)) {
      ULDP_RETURN_IF_ERROR(ParseDoubleInto(value, "user-sample-rate",
                                           &flags.user_sample_rate));
    } else if (ParseFlag(arg, "target-epsilon", &value)) {
      ULDP_RETURN_IF_ERROR(ParseDoubleInto(value, "target-epsilon",
                                           &flags.target_epsilon));
    } else if (ParseFlag(arg, "local-epochs", &value)) {
      ULDP_RETURN_IF_ERROR(ParseIntInto(value, "local-epochs", 1, 1 << 20,
                                        &flags.local_epochs));
    } else if (ParseFlag(arg, "seed", &value)) {
      auto seed = ParseUint(value, ~0ull, "--seed");
      if (!seed.ok()) return seed.status();
      flags.seed = seed.value();
    } else if (ParseFlag(arg, "num-seeds", &value)) {
      ULDP_RETURN_IF_ERROR(
          ParseIntInto(value, "num-seeds", 1, 1 << 16, &flags.num_seeds));
    } else if (ParseFlag(arg, "threads", &value)) {
      ULDP_RETURN_IF_ERROR(
          ParseIntInto(value, "threads", 0, 1 << 14, &flags.threads));
    } else if (ParseFlag(arg, "serve", &value)) {
      ULDP_RETURN_IF_ERROR(
          ParseIntInto(value, "serve", 0, 65535, &flags.serve));
    } else if (ParseFlag(arg, "connect", &value)) {
      flags.connect = value;
    } else if (ParseFlag(arg, "silo-id", &value)) {
      ULDP_RETURN_IF_ERROR(
          ParseIntInto(value, "silo-id", 0, (1 << 16) - 1, &flags.silo_id));
    } else if (ParseFlag(arg, "dim", &value)) {
      ULDP_RETURN_IF_ERROR(ParseIntInto(value, "dim", 1, 1 << 20, &flags.dim));
    } else if (ParseFlag(arg, "paillier-bits", &value)) {
      ULDP_RETURN_IF_ERROR(ParseIntInto(value, "paillier-bits", 64, 8192,
                                        &flags.paillier_bits));
    } else if (ParseFlag(arg, "n-max", &value)) {
      ULDP_RETURN_IF_ERROR(
          ParseIntInto(value, "n-max", 1, 1 << 16, &flags.n_max));
    } else if (ParseFlag(arg, "ot-slots", &value)) {
      ULDP_RETURN_IF_ERROR(
          ParseIntInto(value, "ot-slots", 0, 1 << 16, &flags.ot_slots));
    } else if (ParseFlag(arg, "pack-slots", &value)) {
      ULDP_RETURN_IF_ERROR(
          ParseIntInto(value, "pack-slots", 1, 1 << 10, &flags.pack_slots));
    } else if (ParseFlag(arg, "record-transcript", &value)) {
      flags.record_transcript = value;
    } else if (ParseFlag(arg, "verify-transcript", &value)) {
      flags.verify_transcript = value;
    } else if (ParseFlag(arg, "hmac-key", &value)) {
      flags.hmac_key = value;
    } else if (ParseFlag(arg, "metrics-out", &value)) {
      flags.metrics_out = value;
    } else if (ParseFlag(arg, "trace-out", &value)) {
      flags.trace_out = value;
    } else if (ParseFlag(arg, "stats-port", &value)) {
      ULDP_RETURN_IF_ERROR(
          ParseIntInto(value, "stats-port", 0, 65535, &flags.stats_port));
    } else {
      return Status::InvalidArgument("unknown flag: " + arg +
                                     " (try --help)");
    }
  }
  if (flags.serve >= 0 && !flags.connect.empty()) {
    return Status::InvalidArgument(
        "--serve and --connect are mutually exclusive");
  }
  if (!flags.connect.empty() && flags.silo_id < 0) {
    return Status::InvalidArgument("--connect requires --silo-id");
  }
  if ((flags.serve >= 0 || !flags.connect.empty()) && flags.silos < 2) {
    return Status::InvalidArgument(
        "the distributed protocol needs --silos >= 2");
  }
  if (!flags.connect.empty() && flags.silo_id >= flags.silos) {
    return Status::OutOfRange("--silo-id must be < --silos");
  }
  if (flags.stream_chunk_users > 0 && flags.async) {
    return Status::InvalidArgument(
        "--stream-chunk-users applies to Protocol 1, not the async FL demo");
  }
  if ((flags.ot_slots > 0 || flags.pack_slots > 1) && flags.async) {
    return Status::InvalidArgument(
        "--ot-slots/--pack-slots apply to Protocol 1, not the async FL demo");
  }
  if (flags.stats_port >= 0 && flags.serve < 0) {
    return Status::InvalidArgument(
        "--stats-port runs on the servers; it requires --serve");
  }
  if ((flags.stream_chunk_coords > 0 || flags.stream_window > 0) &&
      flags.stream_chunk_users <= 0) {
    return Status::InvalidArgument(
        "--stream-chunk-coords/--stream-window require --stream-chunk-users");
  }
  if (flags.async_buffer > flags.silos) {
    return Status::InvalidArgument("--async-buffer must be <= --silos");
  }
  if ((flags.max_staleness > 0 || flags.async_buffer > 0) && !flags.async) {
    return Status::InvalidArgument(
        "--max-staleness/--async-buffer require --async");
  }
  if (flags.async && flags.verify &&
      (flags.max_staleness != 0 ||
       (flags.async_buffer != 0 && flags.async_buffer != flags.silos))) {
    return Status::InvalidArgument(
        "--verify needs --max-staleness=0 and a full --async-buffer (the "
        "barrier case); a staleness-bounded or partial-buffer run over a "
        "real network has no deterministic reference)");
  }
  const bool distributed_async =
      flags.async && (flags.serve >= 0 || !flags.connect.empty());
  if ((flags.elastic || flags.masked) && !distributed_async) {
    return Status::InvalidArgument(
        "--elastic/--masked apply to the distributed async demo "
        "(--async with --serve or --connect)");
  }
  if (flags.min_silos > 0 && !flags.elastic) {
    return Status::InvalidArgument("--min-silos requires --elastic");
  }
  if (flags.min_silos > flags.silos) {
    return Status::InvalidArgument("--min-silos must be <= --silos");
  }
  if (flags.straggler < 0) {
    return Status::InvalidArgument("--straggler must be >= 0");
  }
  if (flags.straggler > 0 && !flags.async) {
    return Status::InvalidArgument("--straggler requires --async");
  }
  if ((flags.fail_silo >= 0 || flags.join_silo >= 0) && !flags.elastic) {
    return Status::InvalidArgument(
        "--fail-silo/--join-silo require --elastic (a fixed cohort treats "
        "any departure as fatal)");
  }
  if ((flags.fail_silo >= flags.silos || flags.join_silo >= flags.silos)) {
    return Status::OutOfRange("--fail-silo/--join-silo ID must be < --silos");
  }
  if (flags.masked &&
      (flags.elastic || flags.max_staleness != 0 ||
       (flags.async_buffer != 0 && flags.async_buffer != flags.silos))) {
    return Status::InvalidArgument(
        "--masked needs the full fixed cohort every step (no --elastic, "
        "--max-staleness=0, full --async-buffer): pairwise masks only "
        "cancel when all silos contribute");
  }
  if (flags.verify && flags.elastic) {
    return Status::InvalidArgument(
        "--verify replays the fixed-cohort schedule; drop --elastic");
  }
  if (flags.resume && flags.checkpoint_dir.empty()) {
    return Status::InvalidArgument("--resume requires --checkpoint-dir");
  }
  if (!flags.verify_transcript.empty() &&
      (flags.serve >= 0 || !flags.connect.empty() ||
       !flags.record_transcript.empty())) {
    return Status::InvalidArgument(
        "--verify-transcript is its own mode; drop --serve/--connect/"
        "--record-transcript");
  }
  if (!flags.record_transcript.empty() && flags.serve < 0 &&
      flags.connect.empty()) {
    return Status::InvalidArgument(
        "--record-transcript applies to the distributed modes "
        "(--serve/--connect); local runs have no wire traffic to record");
  }
  if (!flags.hmac_key.empty() && flags.record_transcript.empty() &&
      flags.verify_transcript.empty()) {
    return Status::InvalidArgument(
        "--hmac-key requires --record-transcript or --verify-transcript");
  }
  if (!flags.checkpoint_dir.empty() && flags.checkpoint_every <= 0 &&
      !flags.resume) {
    return Status::InvalidArgument(
        "--checkpoint-dir requires --checkpoint-every=K (K >= 1)");
  }
  if (!flags.checkpoint_dir.empty() &&
      (!flags.connect.empty() || (flags.serve >= 0 && !flags.async))) {
    return Status::InvalidArgument(
        "checkpointing applies to local experiments and the async server, "
        "not silo clients or the Protocol 1 server");
  }
  if (!flags.checkpoint_dir.empty() && flags.num_seeds > 1) {
    return Status::InvalidArgument(
        "checkpointing a multi-seed averaged run is not supported (the "
        "seeds would overwrite each other's session.ckpt)");
  }
  return flags;
}

ProtocolConfig NetProtocolConfig(const Flags& flags) {
  ProtocolConfig config;
  config.paillier_bits = flags.paillier_bits;
  config.n_max = flags.n_max;
  config.seed = flags.seed;
  config.num_threads = flags.threads;
  config.stream_chunk_users = flags.stream_chunk_users;
  config.stream_chunk_coords = flags.stream_chunk_coords;
  config.stream_window = flags.stream_window;
  config.ot_slots = flags.ot_slots;
  config.pack_slots = flags.pack_slots;
  return config;
}

net::AsyncRoundsConfig NetAsyncConfig(const Flags& flags) {
  net::AsyncRoundsConfig config;
  config.max_staleness = flags.max_staleness;
  config.buffer_size = flags.async_buffer;
  config.step_scale = 1.0 / flags.silos;
  config.seed = flags.seed;
  config.elastic = flags.elastic;
  config.min_silos = flags.min_silos > 0 ? flags.min_silos : 1;
  config.masked = flags.masked;
  return config;
}

/// Applies the per-connection transport flags to a TCP endpoint:
/// --net-timeout (handshake + recv deadline) and --max-frame-bytes
/// (payload cap enforced before allocation).
Status ApplyNetTimeout(net::TcpTransport& transport, const Flags& flags) {
  if (flags.max_frame_bytes > 0) {
    transport.set_max_frame_payload(
        static_cast<uint32_t>(flags.max_frame_bytes));
  }
  if (flags.net_timeout <= 0) return Status::Ok();
  return transport.SetRecvTimeout(flags.net_timeout * 1000);
}

/// Holds a party's live transcript recorder and writes the file when it
/// goes out of scope — every exit path of a Run* function, success or
/// failure, leaves a chain-valid (possibly partial) transcript behind,
/// the same always-flush discipline as FlushTelemetry. Null `log` means
/// recording is off and the destructor is a no-op.
struct TranscriptFlusher {
  std::shared_ptr<net::TranscriptLog> log;
  std::string path;

  TranscriptFlusher() = default;
  TranscriptFlusher(TranscriptFlusher&&) = default;
  TranscriptFlusher& operator=(TranscriptFlusher&&) = default;
  ~TranscriptFlusher() {
    if (log == nullptr) return;
    Status wrote = log->WriteFile(path);
    if (!wrote.ok()) {
      std::cerr << "record-transcript: " << wrote.ToString() << "\n";
      return;
    }
    std::cout << "transcript written to " << path << " ("
              << log->entry_count() << " frames)" << std::endl;
  }
};

/// Builds this party's transcript recorder (--record-transcript), or a
/// null flusher when recording is off. The file name encodes the role so
/// one directory collects a whole cohort's transcripts.
Result<TranscriptFlusher> MakeTranscriptRecorder(const Flags& flags) {
  TranscriptFlusher out;
  if (flags.record_transcript.empty()) return out;
  std::vector<uint8_t> key;
  if (!flags.hmac_key.empty()) {
    auto parsed = net::ParseHexKey(flags.hmac_key);
    if (!parsed.ok()) return parsed.status();
    key = std::move(parsed.value());
  }
  const bool serving = flags.serve >= 0;
  net::TranscriptMeta meta;
  std::string name;
  if (flags.async) {
    // Async transcripts carry chain + HMAC evidence only (no replay), so
    // the meta records the run shape without a protocol config digest.
    meta.role = serving ? net::TranscriptRole::kAsyncServer
                        : net::TranscriptRole::kAsyncSilo;
    meta.silo_id = serving ? 0 : static_cast<uint32_t>(flags.silo_id);
    meta.num_silos = static_cast<uint32_t>(flags.silos);
    meta.dim = static_cast<uint32_t>(flags.dim);
    meta.rounds = serving ? static_cast<uint64_t>(flags.rounds) : 0;
    meta.seed = flags.seed;
    name = serving ? "async-server.ult"
                   : "async-silo" + std::to_string(flags.silo_id) + ".ult";
  } else {
    meta = net::TranscriptMeta::FromProtocolConfig(
        NetProtocolConfig(flags),
        serving ? net::TranscriptRole::kProtocolServer
                : net::TranscriptRole::kProtocolSilo,
        serving ? 0 : static_cast<uint32_t>(flags.silo_id), flags.silos,
        flags.users, flags.dim,
        serving ? static_cast<uint64_t>(flags.rounds) : 0);
    name = serving ? "server.ult"
                   : "silo" + std::to_string(flags.silo_id) + ".ult";
  }
  out.log = std::make_shared<net::TranscriptLog>(meta, std::move(key));
  out.path = flags.record_transcript + "/" + name;
  return out;
}

int RunServeAsync(const Flags& flags) {
  auto listener = net::TcpListener::Listen(flags.serve);
  if (!listener.ok()) {
    std::cerr << listener.status().ToString() << "\n";
    return 1;
  }
  std::cout << "uldp_fl_cli: async round server listening on port "
            << listener.value().port() << " (" << flags.silos << " silos, dim "
            << flags.dim << ", " << flags.rounds << " steps, max staleness "
            << flags.max_staleness << ")" << std::endl;

  auto recorder = MakeTranscriptRecorder(flags);
  if (!recorder.ok()) {
    std::cerr << recorder.status().ToString() << "\n";
    return 2;
  }
  // Declared before the server so a failure path flushes the transcript
  // only after the server (and its receive threads) are torn down.
  TranscriptFlusher transcript = std::move(recorder.value());
  // Transcript peer ids are the accept counter (shared with the elastic
  // acceptor thread below, hence atomic).
  std::atomic<uint32_t> accept_count{0};

  net::AsyncRoundsConfig config = NetAsyncConfig(flags);
  net::AsyncRoundServer server(config, flags.silos, flags.dim);
  if (!flags.checkpoint_dir.empty()) {
    server.SetCheckpoint(flags.checkpoint_dir, flags.checkpoint_every);
  }
  if (flags.resume) {
    auto state =
        SessionState::ReadFile(flags.checkpoint_dir + "/session.ckpt");
    if (!state.ok()) {
      std::cerr << "resume: " << state.status().ToString() << "\n";
      return 1;
    }
    uint64_t resumed_round = state.value().round;
    Status restored = server.RestoreSession(std::move(state.value()));
    if (!restored.ok()) {
      std::cerr << "resume: " << restored.ToString() << "\n";
      return 1;
    }
    std::cout << "resuming from " << flags.checkpoint_dir
              << "/session.ckpt at round " << resumed_round << std::endl;
  }

  // With --join-silo one member of the cohort connects mid-run, so the
  // initial barrier waits for one fewer silo; the elastic accept thread
  // below picks up the late joiner.
  const int initial_cohort = flags.silos - (flags.join_silo >= 0 ? 1 : 0);
  while (server.connected_silos() < initial_cohort) {
    auto conn = listener.value().Accept();
    if (!conn.ok()) {
      std::cerr << conn.status().ToString() << "\n";
      return 1;
    }
    Status limited = ApplyNetTimeout(*conn.value(), flags);
    if (!limited.ok()) {
      std::cerr << limited.ToString() << "\n";
      return 1;
    }
    if (transcript.log != nullptr) {
      conn.value()->BindTranscript(transcript.log,
                                   accept_count.fetch_add(1));
    }
    Status added = server.AddConnection(std::move(conn.value()));
    if (!added.ok()) {
      std::cerr << "rejected join: " << added.ToString() << std::endl;
      continue;
    }
    std::cout << "silo connected (" << server.connected_silos() << "/"
              << initial_cohort << ")" << std::endl;
  }

  // Elastic runs keep accepting mid-run join requests while the round
  // loop executes; closing the listener after the run unblocks Accept.
  std::thread acceptor;
  if (flags.elastic) {
    acceptor = std::thread([&listener, &server, &flags, &transcript,
                            &accept_count]() {
      for (;;) {
        auto conn = listener.value().Accept();
        if (!conn.ok()) return;  // listener closed: the run is over
        if (!ApplyNetTimeout(*conn.value(), flags).ok()) continue;
        if (transcript.log != nullptr) {
          conn.value()->BindTranscript(transcript.log,
                                       accept_count.fetch_add(1));
        }
        Status added = server.AddConnection(std::move(conn.value()));
        if (!added.ok()) {
          std::cerr << "rejected join: " << added.ToString() << std::endl;
        }
      }
    });
  }

  Result<Vec> out = [&]() -> Result<Vec> {
    if (flags.resume) return server.Resume(flags.rounds);
    Vec global(flags.dim, 0.0);
    return server.Run(flags.rounds, global);
  }();
  if (acceptor.joinable()) {
    listener.value().Close();
    acceptor.join();
  }
  if (!out.ok()) {
    std::cerr << out.status().ToString() << "\n";
    return 1;
  }
  std::cout << "async rounds done: applied " << server.stats().applied
            << ", rejected " << server.stats().rejected << ", dropped "
            << server.stats().dropped << ", max staleness "
            << server.stats().max_staleness_seen;
  if (flags.elastic) {
    std::cout << "; evictions " << server.evictions() << ", admissions "
              << server.admissions();
  }
  std::cout << "; params[0.." << std::min<size_t>(3, out.value().size())
            << ") =";
  for (size_t d = 0; d < std::min<size_t>(3, out.value().size()); ++d) {
    std::cout << " " << out.value()[d];
  }
  std::cout << std::endl;
  {
    // A grep-friendly whole-model fingerprint so the kill-and-resume smoke
    // can compare runs without parsing float prints.
    net::WireWriter w;
    w.F64Vec(out.value());
    std::cout << "final params digest " << std::hex
              << net::WireDigest(w.buffer()) << std::dec << std::endl;
  }

  if (flags.verify) {
    // Serial replay of the staleness-bounded update rule at tau = 0 (the
    // barrier case): identical work, identical reduce — bitwise equal. A
    // masked run replays the secure reduce its unmasked sum must equal.
    AsyncAggregator reference(flags.silos, 0, 0);
    Vec ref(flags.dim, 0.0);
    for (int r = 0; r < flags.rounds; ++r) {
      for (int s = 0; s < flags.silos; ++s) {
        Vec delta;
        Status worked = net::MakeAsyncDemoWork(flags.seed, s, flags.dim)(
            static_cast<uint64_t>(r), ref, &delta);
        if (!worked.ok()) {
          std::cerr << "verify work: " << worked.ToString() << "\n";
          return 1;
        }
        reference.Offer(s, r, std::move(delta));
      }
      Vec sum =
          reference.Flush(flags.masked, static_cast<uint64_t>(r), nullptr);
      Axpy(config.step_scale, sum, ref);
    }
    if (ref != out.value()) {
      std::cerr << "VERIFY FAILED: distributed async parameters differ from "
                   "the synchronous engine\n";
      return 1;
    }
    std::cout << "verify: distributed async run bitwise-matches the "
                 "synchronous engine"
              << (flags.masked ? " (secure reduce)" : "") << std::endl;
  }
  return 0;
}

int RunConnectAsync(const Flags& flags) {
  auto hp = ParseHostPort(flags.connect, "--connect");
  if (!hp.ok()) {
    std::cerr << hp.status().ToString() << "\n";
    return 2;
  }
  auto transport = net::TcpTransport::Connect(hp.value().host,
                                              hp.value().port);
  if (!transport.ok()) {
    std::cerr << transport.status().ToString() << "\n";
    return 1;
  }
  Status limited = ApplyNetTimeout(*transport.value(), flags);
  if (!limited.ok()) {
    std::cerr << limited.ToString() << "\n";
    return 1;
  }
  auto recorder = MakeTranscriptRecorder(flags);
  if (!recorder.ok()) {
    std::cerr << recorder.status().ToString() << "\n";
    return 2;
  }
  TranscriptFlusher transcript = std::move(recorder.value());
  if (transcript.log != nullptr) {
    transport.value()->BindTranscript(transcript.log, 0);
  }
  std::cout << "async silo " << flags.silo_id << " connected to "
            << flags.connect << std::endl;
  net::AsyncDemoOptions options;
  options.sleep_seconds = flags.straggler;
  if (flags.fail_silo == flags.silo_id) {
    options.fail_at_version = flags.fail_round;
  }
  if (flags.join_silo == flags.silo_id) {
    options.join_at_version = flags.join_round;
  }
  Status status = net::RunAsyncDemoSilo(NetAsyncConfig(flags), flags.silo_id,
                                        flags.silos, flags.dim,
                                        *transport.value(), options);
  if (!status.ok()) {
    if (options.fail_at_version >= 0 &&
        status.message().find("injected silo failure") != std::string::npos) {
      // The --fail-silo drill fired as scheduled: an expected outcome for
      // the churn smoke, not an error.
      std::cout << "async silo " << flags.silo_id
                << " crashed as scheduled: " << status.ToString()
                << std::endl;
      return 0;
    }
    std::cerr << "async silo " << flags.silo_id << ": " << status.ToString()
              << "\n";
    return 1;
  }
  std::cout << "async silo " << flags.silo_id << " finished" << std::endl;
  return 0;
}

int RunServe(const Flags& flags) {
  auto listener = net::TcpListener::Listen(flags.serve);
  if (!listener.ok()) {
    std::cerr << listener.status().ToString() << "\n";
    return 1;
  }
  std::cout << "uldp_fl_cli: protocol server listening on port "
            << listener.value().port() << " (" << flags.silos << " silos, "
            << flags.users << " users, dim " << flags.dim << ", "
            << flags.rounds << " rounds)" << std::endl;

  auto recorder = MakeTranscriptRecorder(flags);
  if (!recorder.ok()) {
    std::cerr << recorder.status().ToString() << "\n";
    return 2;
  }
  // Declared before the server so a failure path flushes the transcript
  // only after the server (and its receive threads) are torn down.
  TranscriptFlusher transcript = std::move(recorder.value());
  ProtocolConfig config = NetProtocolConfig(flags);
  net::ProtocolServer server(config, flags.silos, flags.users);
  // Transcript peer ids are the accept counter — a rejected join still
  // consumes an id, so its recorded Join/Error exchange replays as a
  // rejected join instead of polluting the next peer's stream.
  uint32_t accept_count = 0;
  while (server.connected_silos() < flags.silos) {
    auto conn = listener.value().Accept();
    if (!conn.ok()) {
      std::cerr << conn.status().ToString() << "\n";
      return 1;
    }
    Status limited = ApplyNetTimeout(*conn.value(), flags);
    if (!limited.ok()) {
      std::cerr << limited.ToString() << "\n";
      return 1;
    }
    if (transcript.log != nullptr) {
      conn.value()->BindTranscript(transcript.log, accept_count++);
    }
    Status added = server.AddConnection(std::move(conn.value()));
    if (!added.ok()) {
      // A rejected join (bad id, mismatched config) is the client's
      // problem; keep serving the cohort.
      std::cerr << "rejected join: " << added.ToString() << std::endl;
      continue;
    }
    std::cout << "silo connected (" << server.connected_silos() << "/"
              << flags.silos << ")" << std::endl;
  }

  Status setup = server.RunSetup();
  if (!setup.ok()) {
    std::cerr << "setup: " << setup.ToString() << "\n";
    return 1;
  }
  std::cout << "setup complete" << std::endl;

  std::vector<bool> mask(flags.users, true);
  std::vector<Vec> aggregates;
  for (int r = 0; r < flags.rounds; ++r) {
    auto out = server.RunRound(static_cast<uint64_t>(r), mask);
    if (!out.ok()) {
      std::cerr << "round " << r << ": " << out.status().ToString() << "\n";
      return 1;
    }
    std::cout << "round " << r << " aggregate[0.."
              << std::min<size_t>(3, out.value().size()) << ") =";
    for (size_t d = 0; d < std::min<size_t>(3, out.value().size()); ++d) {
      std::cout << " " << out.value()[d];
    }
    std::cout << std::endl;
    aggregates.push_back(std::move(out.value()));
  }
  Status shutdown = server.Shutdown();
  if (!shutdown.ok()) {
    std::cerr << "shutdown: " << shutdown.ToString() << "\n";
    return 1;
  }
  for (const auto& phase : server.phase_stats()) {
    std::cout << "phase " << phase.phase << ": sent " << phase.bytes_sent
              << " B, received " << phase.bytes_received << " B in "
              << phase.seconds << " s" << std::endl;
  }

  if (flags.verify) {
    // Replays the exact same protocol in process (same seed, same demo
    // inputs) and requires bitwise equality — the transport subsystem's
    // core invariant, checkable from the command line.
    net::DemoInputs in = net::MakeDemoInputs(flags.seed, flags.silos,
                                             flags.users, flags.dim);
    PrivateWeightingProtocol protocol(config, flags.silos, flags.users);
    Status ps = protocol.Setup(in.histograms);
    if (!ps.ok()) {
      std::cerr << "verify setup: " << ps.ToString() << "\n";
      return 1;
    }
    for (int r = 0; r < flags.rounds; ++r) {
      auto out = protocol.WeightingRound(static_cast<uint64_t>(r), in.deltas,
                                         in.noise, mask);
      if (!out.ok()) {
        std::cerr << "verify round: " << out.status().ToString() << "\n";
        return 1;
      }
      if (out.value() != aggregates[r]) {
        std::cerr << "VERIFY FAILED: round " << r
                  << " distributed aggregate differs from in-process run\n";
        return 1;
      }
    }
    std::cout << "verify: distributed aggregates bitwise-match the "
                 "in-process run" << std::endl;
  }
  return 0;
}

int RunConnect(const Flags& flags) {
  auto hp = ParseHostPort(flags.connect, "--connect");
  if (!hp.ok()) {
    std::cerr << hp.status().ToString() << "\n";
    return 2;
  }
  auto transport = net::TcpTransport::Connect(hp.value().host,
                                              hp.value().port);
  if (!transport.ok()) {
    std::cerr << transport.status().ToString() << "\n";
    return 1;
  }
  Status limited = ApplyNetTimeout(*transport.value(), flags);
  if (!limited.ok()) {
    std::cerr << limited.ToString() << "\n";
    return 1;
  }
  auto recorder = MakeTranscriptRecorder(flags);
  if (!recorder.ok()) {
    std::cerr << recorder.status().ToString() << "\n";
    return 2;
  }
  TranscriptFlusher transcript = std::move(recorder.value());
  if (transcript.log != nullptr) {
    transport.value()->BindTranscript(transcript.log, 0);
  }
  std::cout << "silo " << flags.silo_id << " connected to " << flags.connect
            << std::endl;
  Status status = net::RunDemoSilo(NetProtocolConfig(flags), flags.silo_id,
                                   flags.silos, flags.users, flags.dim,
                                   flags.seed, *transport.value());
  if (!status.ok()) {
    std::cerr << "silo " << flags.silo_id << ": " << status.ToString()
              << "\n";
    return 1;
  }
  std::cout << "silo " << flags.silo_id << " finished" << std::endl;
  return 0;
}

struct LoadedData {
  std::unique_ptr<FederatedDataset> dataset;
  std::unique_ptr<Model> model;
  UtilityMetric metric = UtilityMetric::kAccuracy;
};

Result<LoadedData> LoadData(const Flags& flags) {
  Rng rng(flags.seed);
  LoadedData out;
  AllocationOptions alloc;
  if (flags.allocation == "zipf") {
    alloc.kind = AllocationKind::kZipf;
  } else if (flags.allocation == "uniform") {
    alloc.kind = AllocationKind::kUniform;
  } else {
    return Status::InvalidArgument("unknown allocation: " + flags.allocation);
  }

  if (!flags.csv.empty()) {
    CsvOptions csv;
    csv.label_column = flags.label_column;
    auto records = LoadCsvRecords(flags.csv, csv);
    if (!records.ok()) return records.status();
    auto all = std::move(records.value());
    // 80/20 train/test split.
    size_t split = all.size() * 4 / 5;
    std::vector<Record> train(all.begin(), all.begin() + split);
    std::vector<Record> test(all.begin() + split, all.end());
    ULDP_RETURN_IF_ERROR(AllocateUsersAndSilos(train, flags.users,
                                               flags.silos, alloc, rng));
    int classes = 0;
    for (const auto& r : train) classes = std::max(classes, r.label + 1);
    if (classes < 2) {
      return Status::InvalidArgument(
          "CSV training requires --label-column with >= 2 classes");
    }
    size_t dim = train[0].features.size();
    out.dataset = std::make_unique<FederatedDataset>(
        std::move(train), std::move(test), flags.users, flags.silos);
    out.model = MakeMlp({dim, 16}, static_cast<size_t>(classes));
    return out;
  }

  if (flags.dataset == "creditcard") {
    auto data = MakeCreditcardLike(flags.records, flags.records / 4, rng);
    ULDP_RETURN_IF_ERROR(AllocateUsersAndSilos(data.train, flags.users,
                                               flags.silos, alloc, rng));
    out.dataset = std::make_unique<FederatedDataset>(
        std::move(data.train), std::move(data.test), flags.users,
        flags.silos);
    out.model = MakeMlp({30, 16}, 2);
  } else if (flags.dataset == "mnist") {
    auto data = MakeMnistLike(flags.records, flags.records / 5, rng);
    ULDP_RETURN_IF_ERROR(AllocateUsersAndSilos(data.train, flags.users,
                                               flags.silos, alloc, rng));
    out.dataset = std::make_unique<FederatedDataset>(
        std::move(data.train), std::move(data.test), flags.users,
        flags.silos);
    out.model = MakeMlp({196, 48}, 10);
  } else if (flags.dataset == "heart") {
    auto data = MakeHeartDiseaseLike(rng);
    ULDP_RETURN_IF_ERROR(AllocateUsersWithinSilos(
        data.train, flags.users, data.num_silos, alloc, rng));
    out.dataset = std::make_unique<FederatedDataset>(
        std::move(data.train), std::move(data.test), flags.users,
        data.num_silos);
    out.model = MakeMlp({13}, 2);
  } else if (flags.dataset == "tcga") {
    AllocationOptions cox_alloc = alloc;
    cox_alloc.min_records_per_pair = 2;
    auto data = MakeTcgaBrcaLike(rng);
    ULDP_RETURN_IF_ERROR(AllocateUsersWithinSilos(
        data.train, flags.users, data.num_silos, cox_alloc, rng));
    out.dataset = std::make_unique<FederatedDataset>(
        std::move(data.train), std::move(data.test), flags.users,
        data.num_silos);
    out.model = std::make_unique<CoxRegression>(39);
    out.metric = UtilityMetric::kCIndex;
  } else {
    return Status::InvalidArgument("unknown dataset: " + flags.dataset);
  }
  return out;
}

Result<std::unique_ptr<FlAlgorithm>> MakeAlgorithm(const Flags& flags,
                                                   const FederatedDataset& fd,
                                                   const Model& model,
                                                   double sigma,
                                                   uint64_t seed) {
  FlConfig config;
  config.local_lr = flags.local_lr;
  config.clip = flags.clip;
  config.sigma = sigma;
  config.local_epochs = flags.local_epochs;
  config.seed = seed;
  config.num_threads = flags.threads;
  config.async_rounds = flags.async;
  config.max_staleness = flags.max_staleness;
  config.async_buffer = flags.async_buffer;

  auto lr_or = [&](double fallback) {
    return flags.global_lr > 0.0 ? flags.global_lr : fallback;
  };
  std::unique_ptr<FlAlgorithm> alg;
  if (flags.method == "default") {
    config.global_lr = lr_or(1.0);
    alg = std::make_unique<FedAvgTrainer>(fd, model, config);
  } else if (flags.method == "uldp-naive") {
    config.global_lr = lr_or(1.0);
    alg = std::make_unique<UldpNaiveTrainer>(fd, model, config);
  } else if (flags.method == "uldp-group") {
    config.global_lr = lr_or(1.0);
    alg = std::make_unique<UldpGroupTrainer>(
        fd, model, config, GroupSizeSpec::Fixed(flags.group_k), 0.1, 10);
  } else if (flags.method == "uldp-avg" || flags.method == "uldp-avg-w") {
    config.global_lr = lr_or(30.0);
    UldpAvgOptions options;
    options.user_sample_rate = flags.user_sample_rate;
    if (flags.method == "uldp-avg-w") {
      options.weighting = WeightingStrategy::kEnhanced;
    }
    alg = std::make_unique<UldpAvgTrainer>(fd, model, config, options);
  } else if (flags.method == "uldp-sgd") {
    config.global_lr = lr_or(50.0);
    alg = std::make_unique<UldpSgdTrainer>(fd, model, config,
                                           WeightingStrategy::kUniform,
                                           flags.user_sample_rate);
  } else {
    return Status::InvalidArgument("unknown method: " + flags.method +
                                   " (try --help)");
  }
  return alg;
}

int RunLocal(const Flags& flags) {
  double sigma = flags.sigma;
  if (flags.target_epsilon > 0.0 && flags.method != "default") {
    auto calibrated = SigmaForTargetEpsilon(flags.target_epsilon, flags.delta,
                                            flags.rounds,
                                            flags.user_sample_rate);
    if (!calibrated.ok()) {
      std::cerr << "sigma calibration: " << calibrated.status().ToString()
                << "\n";
      return 1;
    }
    sigma = calibrated.value();
    std::cout << "Calibrated sigma = " << sigma << " for ("
              << flags.target_epsilon << ", " << flags.delta << ")-ULDP over "
              << flags.rounds << " rounds.\n";
  }

  auto data_or = LoadData(flags);
  if (!data_or.ok()) {
    std::cerr << data_or.status().ToString() << "\n";
    return 1;
  }
  LoadedData& data = data_or.value();
  std::cout << "Dataset: " << data.dataset->num_train_records()
            << " records, " << data.dataset->num_users() << " users, "
            << data.dataset->num_silos() << " silos (mean "
            << data.dataset->MeanRecordsPerUser() << " records/user)\n";

  ExperimentConfig experiment;
  experiment.rounds = flags.rounds;
  experiment.eval_every = flags.eval_every;
  experiment.delta = flags.delta;
  experiment.metric = data.metric;
  experiment.checkpoint_dir = flags.checkpoint_dir;
  experiment.checkpoint_every = flags.checkpoint_every;
  experiment.resume = flags.resume;

  if (flags.num_seeds > 1) {
    AlgorithmFactory factory = [&](uint64_t seed)
        -> std::unique_ptr<FlAlgorithm> {
      auto alg = MakeAlgorithm(flags, *data.dataset, *data.model, sigma,
                               seed);
      if (!alg.ok()) return nullptr;
      return std::move(alg.value());
    };
    auto trace = RunExperimentAveraged(factory, *data.model, *data.dataset,
                                       experiment, flags.num_seeds,
                                       flags.seed);
    if (!trace.ok()) {
      std::cerr << trace.status().ToString() << "\n";
      return 1;
    }
    PrintAveragedTrace(flags.method, trace.value());
    return 0;
  }

  auto alg = MakeAlgorithm(flags, *data.dataset, *data.model, sigma,
                           flags.seed);
  if (!alg.ok()) {
    std::cerr << alg.status().ToString() << "\n";
    return 1;
  }
  auto trace =
      RunExperiment(*alg.value(), *data.model, *data.dataset, experiment);
  if (!trace.ok()) {
    std::cerr << trace.status().ToString() << "\n";
    return 1;
  }
  PrintTrace(alg.value()->name(), trace.value());
  return 0;
}

int RunVerifyTranscript(const Flags& flags) {
  auto file = net::TranscriptFile::ReadFile(flags.verify_transcript);
  if (!file.ok()) {
    std::cerr << "verify-transcript: " << file.status().ToString() << "\n";
    return 1;
  }
  const net::TranscriptMeta& meta = file.value().meta;
  std::cout << "transcript " << flags.verify_transcript << ": role "
            << net::TranscriptRoleName(meta.role) << ", silo "
            << meta.silo_id << ", " << meta.num_silos << " silos, "
            << meta.num_users << " users, dim " << meta.dim << ", "
            << meta.rounds << " rounds, " << file.value().entries.size()
            << " frames" << std::endl;
  std::vector<uint8_t> key;
  if (!flags.hmac_key.empty()) {
    auto parsed = net::ParseHexKey(flags.hmac_key);
    if (!parsed.ok()) {
      std::cerr << parsed.status().ToString() << "\n";
      return 2;
    }
    key = std::move(parsed.value());
  }
  net::ReplayReport report;
  Status verified = net::VerifyTranscript(
      file.value(), flags.hmac_key.empty() ? nullptr : &key, &report);
  if (!verified.ok()) {
    std::cerr << "transcript verification FAILED: " << verified.ToString()
              << "\n";
    return 1;
  }
  std::cout << "hash chain OK over " << report.entries << " frames"
            << std::endl;
  if (report.hmac_verified) {
    std::cout << "HMAC OK (chain head bound to the supplied key)"
              << std::endl;
  } else if (report.hmac_skipped) {
    std::cout << "warning: transcript carries an HMAC but no --hmac-key was "
                 "supplied; keyed check skipped" << std::endl;
  }
  if (report.replay_skipped) {
    std::cout << "replay skipped (async-role transcript: chain + HMAC "
                 "evidence only)" << std::endl;
  } else {
    std::cout << "replay OK: reproduced " << report.frames_matched
              << " outbound frames byte-for-byte, consumed "
              << report.frames_fed << " inbound frames" << std::endl;
  }
  std::cout << "transcript verified" << std::endl;
  return 0;
}

int Dispatch(const Flags& flags) {
  if (!flags.verify_transcript.empty()) {
    return RunVerifyTranscript(flags);
  }
  if (flags.serve >= 0) {
    return flags.async ? RunServeAsync(flags) : RunServe(flags);
  }
  if (!flags.connect.empty()) {
    return flags.async ? RunConnectAsync(flags) : RunConnect(flags);
  }
  return RunLocal(flags);
}

/// Writes the end-of-run telemetry artifacts. Runs after every mode
/// dispatch — including failed rounds, FailAll teardowns, and injected
/// silo crashes — so an aborted run still leaves a complete metrics
/// snapshot and a valid (tmp+rename, never truncated) trace file.
void FlushTelemetry(const Flags& flags) {
  if (!flags.metrics_out.empty()) {
    Status s =
        obs::MetricsRegistry::Global().WriteJsonFile(flags.metrics_out);
    if (!s.ok()) {
      std::cerr << "metrics-out: " << s.ToString() << "\n";
    }
  }
  if (!flags.trace_out.empty()) {
    Status s = obs::TraceBuffer::Global().WriteJson(flags.trace_out);
    if (!s.ok()) {
      std::cerr << "trace-out: " << s.ToString() << "\n";
    }
  }
}

int Run(int argc, char** argv) {
  auto flags_or = ParseFlags(argc, argv);
  if (!flags_or.ok()) {
    std::cerr << flags_or.status().ToString() << "\n";
    return 2;
  }
  const Flags& flags = flags_or.value();

  if (!flags.trace_out.empty()) {
    obs::TraceBuffer::Global().Enable();
  }
  std::unique_ptr<obs::StatsServer> stats;
  if (flags.stats_port >= 0) {
    auto started = obs::StatsServer::Start(flags.stats_port);
    if (!started.ok()) {
      std::cerr << "stats-port: " << started.status().ToString() << "\n";
      return 1;
    }
    stats = std::move(started.value());
    std::cout << "live stats on http://127.0.0.1:" << stats->port()
              << std::endl;
  }

  int rc = Dispatch(flags);
  if (stats != nullptr) stats->Stop();
  FlushTelemetry(flags);
  return rc;
}

}  // namespace
}  // namespace uldp

int main(int argc, char** argv) { return uldp::Run(argc, argv); }
