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
// Every flag is one entry of FlagTable(): its name, the Flags field it
// sets and how its value parses, its help text, and the runs that read
// it. Parsing, --help and the check that refuses a flag the run does not
// read all come from that table. Run with --help for the full flag list.

#include <atomic>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <iterator>
#include <memory>
#include <sstream>
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

/// Every value the command line sets. FlagTable() holds each field's
/// default, parser and help.
struct Flags {
  // Data and method (local runs).
  std::string dataset, csv, method, allocation;
  int label_column, users, silos, records, num_seeds;
  uint64_t seed;
  // Training and privacy.
  int rounds, eval_every, local_epochs, group_k, threads;
  double local_lr, global_lr, sigma, clip, delta, target_epsilon,
      user_sample_rate;
  // Asynchronous rounds and checkpoints.
  bool async, resume;
  int max_staleness, async_buffer, checkpoint_every;
  std::string checkpoint_dir;
  // Distributed modes: serve < 0 and an empty connect mean neither.
  int serve, silo_id, dim, paillier_bits, n_max, ot_slots, pack_slots,
      stream_chunk_users, stream_chunk_coords, net_timeout, max_frame_bytes;
  std::string connect;
  bool verify;
  // Async server and silos; a silo of -1 is no drill.
  bool elastic, masked;
  int min_silos, fail_silo, fail_round, join_silo, join_round;
  double straggler;
  // Transcripts and telemetry; stats_port < 0 is off.
  std::string record_transcript, verify_transcript, hmac_key, metrics_out,
      trace_out;
  int stats_port;
};

/// The runs a flag can apply to, one bit each; a flag's entry holds the
/// set that reads it.
enum Run : unsigned {
  kLocal = 1u << 0,
  kProtocolServer = 1u << 1,
  kProtocolSilo = 1u << 2,
  kAsyncServer = 1u << 3,
  kAsyncSilo = 1u << 4,
  kTranscriptCheck = 1u << 5,
};
constexpr const char* kRunNames[] = {"local run",    "Protocol 1 server",
                                     "Protocol 1 silo", "async server",
                                     "async silo",   "transcript check"};
constexpr unsigned kProtocol = kProtocolServer | kProtocolSilo;
constexpr unsigned kAsyncParties = kAsyncServer | kAsyncSilo;
constexpr unsigned kParties = kProtocol | kAsyncParties;
constexpr unsigned kServers = kProtocolServer | kAsyncServer;
constexpr unsigned kSilos = kProtocolSilo | kAsyncSilo;
constexpr unsigned kAllRuns = kLocal | kParties | kTranscriptCheck;

Run RunOf(const Flags& flags) {
  if (!flags.verify_transcript.empty()) return kTranscriptCheck;
  if (flags.serve >= 0) return flags.async ? kAsyncServer : kProtocolServer;
  if (!flags.connect.empty()) return flags.async ? kAsyncSilo : kProtocolSilo;
  return kLocal;
}

/// How a flag's text becomes its Flags field: the placeholder --help
/// shows (nullptr for a switch, which takes no value), the default as
/// --help shows it ("" when it means "off"), the reset to that default,
/// and the parser with its range and message.
struct Value {
  const char* meta;
  std::string shown;
  std::function<void(Flags&)> reset;
  std::function<Status(const std::string& flag, const std::string& text,
                       Flags&)>
      parse;
};

Value Switch(bool Flags::*field) {
  return {nullptr, "", [=](Flags& f) { f.*field = false; },
          [=](const std::string&, const std::string&, Flags& f) {
            f.*field = true;
            return Status::Ok();
          }};
}

/// A number read by `parse` (common/parse.h, given the text and the flag).
template <typename T, typename Parse>
Value Number(const char* meta, T Flags::*field, T def, Parse parse) {
  std::ostringstream shown;
  shown << def;
  return {meta, shown.str(), [=](Flags& f) { f.*field = def; },
          [=](const std::string& flag, const std::string& text,
              Flags& f) -> Status {
            auto v = parse(text, flag);
            if (!v.ok()) return v.status();
            f.*field = static_cast<T>(v.value());
            return Status::Ok();
          }};
}

/// An integer in [min, max]; a default below `min` means "off".
Value Int(const char* meta, int Flags::*field, int def, int64_t min,
          int64_t max) {
  Value v = Number(meta, field, def, [=](const std::string& text,
                                         const std::string& flag) {
    return ParseInt(text, min, max, flag);
  });
  if (def < min) v.shown.clear();
  return v;
}

/// The reals a Double flag admits: `holds` decides, and `text` names the
/// range in a refusal, as interval notation.
struct Range {
  const char* text;
  bool (*holds)(double);
};
const Range kAnyReal{"", [](double) { return true; }};
const Range kPositive{"(0, inf)", [](double v) { return v > 0.0; }};
const Range kNonNegative{"[0, inf)", [](double v) { return v >= 0.0; }};

/// A finite real in `range`.
Value Double(const char* meta, double Flags::*field, double def,
             Range range = kAnyReal) {
  return Number(meta, field, def, [=](const std::string& text,
                                      const std::string& flag)
                                      -> Result<double> {
    auto v = ParseDouble(text, flag);
    if (v.ok() && !range.holds(v.value())) {
      return Status::OutOfRange(flag + ": \"" + text + "\" out of range " +
                                range.text);
    }
    return v;
  });
}

/// Free text; `check`, when set, refuses a malformed value with its own
/// message.
Value Text(const char* meta, std::string Flags::*field, const char* def = "",
           Status (*check)(const std::string&) = nullptr) {
  return {meta, def, [=](Flags& f) { f.*field = def; },
          [=](const std::string&, const std::string& text,
              Flags& f) -> Status {
            if (check != nullptr) ULDP_RETURN_IF_ERROR(check(text));
            f.*field = text;
            return Status::Ok();
          }};
}

/// The fault drills' "ID:ROUND" form.
Value SiloRound(int Flags::*silo, int Flags::*round) {
  const Value id = Int("", silo, -1, 0, (1 << 16) - 1);
  const Value at = Int("", round, -1, 0, 1 << 24);
  return {"ID:ROUND", "",
          [=](Flags& f) {
            id.reset(f);
            at.reset(f);
          },
          [=](const std::string& flag, const std::string& text,
              Flags& f) -> Status {
            const size_t colon = text.find(':');
            if (colon == std::string::npos || colon == 0 ||
                colon + 1 == text.size()) {
              return Status::InvalidArgument(
                  flag + " expects ID:ROUND, got \"" + text + "\"");
            }
            ULDP_RETURN_IF_ERROR(id.parse(flag, text.substr(0, colon), f));
            return at.parse(flag, text.substr(colon + 1), f);
          }};
}

/// One flag: its name, the runs that read it, its value and help, and,
/// for flags those runs read only in some cases, that condition.
struct FlagSpec {
  const char* name;
  unsigned runs;
  Value value;
  const char* help;
  const char* only = nullptr;
  bool (*holds)(const Flags&) = nullptr;
};

struct FlagGroup {
  const char* title;
  std::vector<FlagSpec> flags;
};

bool WithCsv(const Flags& f) { return !f.csv.empty(); }
bool WithAsync(const Flags& f) { return f.async; }
bool PrivateMethod(const Flags& f) { return f.method != "default"; }
// creditcard and mnist take their silo and record counts from the flags;
// heart and tcga fix both, and a CSV brings its own records.
bool SizedByFlags(const Flags& f) {
  return f.csv.empty() && f.dataset != "heart" && f.dataset != "tcga";
}

/// A local heart or tcga run has the dataset's silo count; every other
/// run reads --silos.
bool DatasetFixesSilos(const Flags& f) {
  return RunOf(f) == kLocal && !WithCsv(f) && !SizedByFlags(f);
}

const std::vector<FlagGroup>& FlagTable() {
  static const std::vector<FlagGroup> table = {
      {"Data and method:",
       {{"dataset", kLocal, Text("NAME", &Flags::dataset, "creditcard"),
         "built-in synthetic data: creditcard, mnist, heart (4 silos) or "
         "tcga (6 silos)",
         "local runs only without --csv",
         [](const Flags& f) { return !WithCsv(f); }},
        {"csv", kLocal, Text("PATH", &Flags::csv),
         "load this CSV instead (80/20 train/test split)"},
        {"label-column", kLocal,
         Int("N", &Flags::label_column, -1, -1, 1 << 20),
         "the CSV's 0-based label column (-1 = none)",
         "local runs only with --csv", WithCsv},
        {"method", kLocal, Text("NAME", &Flags::method, "uldp-avg"),
         "default (non-private FedAvg), uldp-naive, uldp-group, uldp-avg, "
         "uldp-avg-w or uldp-sgd"},
        {"allocation", kLocal, Text("KIND", &Flags::allocation, "zipf"),
         "user/silo record allocation: uniform or zipf"},
        {"users", kLocal | kProtocol, Int("N", &Flags::users, 100, 1, 1 << 24),
         "users across all silos"},
        {"silos", kLocal | kParties, Int("N", &Flags::silos, 5, 1, 1 << 16),
         "silos in the federation",
         "local runs only with --csv, --dataset=creditcard or "
         "--dataset=mnist (heart has 4 silos, tcga 6)",
         [](const Flags& f) { return WithCsv(f) || SizedByFlags(f); }},
        {"records", kLocal, Int("N", &Flags::records, 6000, 1, 1 << 28),
         "synthetic training records",
         "local runs only with --dataset=creditcard or --dataset=mnist "
         "(heart and tcga have fixed records, a CSV its own)",
         SizedByFlags},
        {"num-seeds", kLocal, Int("M", &Flags::num_seeds, 1, 1, 1 << 16),
         "M > 1 reports mean±std over M seeds"},
        {"seed", kLocal | kParties,
         Number("N", &Flags::seed, uint64_t{1},
                [](const std::string& text, const std::string& flag) {
                  return ParseUint(text, ~0ull, flag);
                }),
         "seed of every random draw"}}},
      {"Training and privacy:",
       {{"rounds", kLocal | kServers, Int("T", &Flags::rounds, 20, 1, 1 << 24),
         "training rounds (async server: server steps)"},
        {"eval-every", kLocal, Int("K", &Flags::eval_every, 5, 1, 1 << 24),
         "evaluate every K rounds"},
        {"local-epochs", kLocal,
         Int("Q", &Flags::local_epochs, 2, 1, 1 << 20),
         "local epochs per round"},
        {"local-lr", kLocal, Double("LR", &Flags::local_lr, 0.1),
         "local learning rate"},
        {"global-lr", kLocal, Double("LR", &Flags::global_lr, 0.0),
         "server learning rate (0 = the method's default)"},
        {"sigma", kLocal, Double("S", &Flags::sigma, 5.0, kPositive),
         "noise multiplier",
         "local runs only with a private --method and no --target-epsilon",
         [](const Flags& f) {
           return PrivateMethod(f) && f.target_epsilon <= 0.0;
         }},
        {"clip", kLocal, Double("C", &Flags::clip, 1.0, kPositive),
         "per-user clipping bound",
         "local runs only with a private --method (not default)",
         PrivateMethod},
        {"delta", kLocal,
         Double("D", &Flags::delta, 1e-5,
                {"(0, 1)", [](double d) { return d > 0.0 && d < 1.0; }}),
         "the delta of the reported (epsilon, delta)-ULDP",
         "local runs only with a private --method (not default)",
         PrivateMethod},
        {"target-epsilon", kLocal,
         Double("E", &Flags::target_epsilon, 0.0, kNonNegative),
         "calibrate sigma so the run ends at (E, --delta)-ULDP (0 = use "
         "--sigma)",
         "local runs only with --method=uldp-naive, uldp-avg, uldp-avg-w or "
         "uldp-sgd, the methods whose Gaussian mechanism it calibrates",
         [](const Flags& f) {
           return PrivateMethod(f) && f.method != "uldp-group";
         }},
        {"user-sample-rate", kLocal | kProtocol,
         Double("Q", &Flags::user_sample_rate, 1.0,
                {"(0, 1]", [](double q) { return q > 0.0 && q <= 1.0; }}),
         "user-level sub-sampling rate (Alg. 4); a Protocol 1 run samples "
         "through its OT slots, in multiples of 1/P",
         "local runs only with --method=uldp-avg, uldp-avg-w or uldp-sgd, "
         "the methods that sample users; Protocol 1 runs only with "
         "--ot-slots > 0",
         [](const Flags& f) {
           if (RunOf(f) != kLocal) return f.ot_slots > 0;
           return f.method == "uldp-avg" || f.method == "uldp-avg-w" ||
                  f.method == "uldp-sgd";
         }},
        {"group-k", kLocal, Int("K", &Flags::group_k, 8, 1, 1 << 24),
         "group size", "local runs only with --method=uldp-group",
         [](const Flags& f) { return f.method == "uldp-group"; }},
        {"threads", kLocal | kProtocol,
         Int("N", &Flags::threads, 0, 0, 1 << 14),
         "silo-round threads (0 = auto; results are identical for any N)"}}},
      {"Asynchronous rounds and checkpoints:",
       {{"async", kLocal | kAsyncParties, Switch(&Flags::async),
         "asynchronous staleness-bounded rounds: silo deltas apply as they "
         "land instead of barrier-waiting on the slowest silo; with "
         "--serve/--connect, the async FL demo instead of Protocol 1"},
        {"max-staleness", kLocal | kAsyncParties,
         Int("T", &Flags::max_staleness, 0, 0, 1 << 20),
         "accept updates up to T versions stale (discounted 1/(1+tau); 0 = "
         "barrier, bitwise-identical to sync)",
         "local runs only with --async", WithAsync},
        {"async-buffer", kLocal | kAsyncParties,
         Int("K", &Flags::async_buffer, 0, 0, 1 << 16),
         "arrivals per server step (0 = silos)",
         "local runs only with --async", WithAsync},
        {"checkpoint-dir", kLocal | kAsyncServer,
         Text("PATH", &Flags::checkpoint_dir), "write PATH/session.ckpt"},
        {"checkpoint-every", kLocal | kAsyncServer,
         Int("K", &Flags::checkpoint_every, 0, 1, 1 << 24),
         "checkpoint every K rounds and on the final round (required with "
         "--checkpoint-dir)"},
        {"resume", kLocal | kAsyncServer, Switch(&Flags::resume),
         "load the checkpoint and continue, bitwise identical to an "
         "uninterrupted run on the same seed"}}},
      {"Distributed runs (src/net/): a server plus one client per silo "
       "exchange every phase as wire frames over TCP; Protocol 1's "
       "aggregates are bitwise identical to the in-process simulation. All "
       "parties must share --silos/--users/--seed and the protocol shape "
       "flags (a config digest checks them at join time); --dim must match "
       "too, but a mismatch only surfaces at round time.",
       {{"serve", kServers, Int("PORT", &Flags::serve, -1, 0, 65535),
         "run the server on this port (0 = pick an ephemeral port and print "
         "it)"},
        {"connect", kSilos,
         Text("HOST:PORT", &Flags::connect, "",
              [](const std::string& text) {
                return ParseHostPort(text, "--connect").status();
              }),
         "run a silo client against this server"},
        {"silo-id", kSilos, Int("K", &Flags::silo_id, -1, 0, (1 << 16) - 1),
         "this client's silo (required with --connect)"},
        {"dim", kParties, Int("D", &Flags::dim, 16, 1, 1 << 20),
         "demo model dimension"},
        {"paillier-bits", kProtocol,
         Int("B", &Flags::paillier_bits, 512, 64, 8192),
         "Paillier modulus bits (demo scale)"},
        {"n-max", kProtocol, Int("N", &Flags::n_max, 30, 1, 1 << 16),
         "protocol N_max"},
        {"ot-slots", kProtocol, Int("P", &Flags::ot_slots, 0, 0, 1 << 16),
         "OT-based private user sub-sampling with P slots (0 = off)"},
        {"pack-slots", kProtocol, Int("K", &Flags::pack_slots, 1, 1, 1 << 10),
         "fixed-point coordinates per Paillier ciphertext (1 = unpacked)"},
        {"stream-chunk-users", kProtocol,
         Int("K", &Flags::stream_chunk_users, 0, 0, 1 << 24),
         "stream encrypted weights and silo ciphers K users at a time, so "
         "peak resident ciphertexts are O(K) and the aggregates stay "
         "bitwise identical (0 = materialize whole rounds)"},
        {"stream-chunk-coords", kProtocol,
         Int("C", &Flags::stream_chunk_coords, 0, 0, 1 << 20),
         "cipher-upload coordinates per chunk (0 = default 256)"},
        {"verify", kServers, Switch(&Flags::verify),
         "also run the rounds in process (async: the synchronous engine, "
         "with --masked its secure reduce) and require bitwise equality"},
        {"net-timeout", kParties,
         Int("SECONDS", &Flags::net_timeout, 0, 0, 1 << 20),
         "TCP recv/handshake deadline, so a hung peer fails fast (0 = off)"},
        {"max-frame-bytes", kParties,
         Int("B", &Flags::max_frame_bytes, 0, 0, 1 << 30),
         "reject any wire frame whose payload exceeds B bytes before "
         "allocating it (0 = default cap)"}}},
      {"Async server and silos (--async with --serve or --connect):",
       {{"elastic", kAsyncParties, Switch(&Flags::elastic),
         "admit mid-run joins at flush boundaries and evict dead silos "
         "instead of failing the run"},
        {"min-silos", kAsyncParties, Int("N", &Flags::min_silos, 0, 1, 1 << 16),
         "fail the run if the active population drops below N (default 1)"},
        {"masked", kAsyncParties, Switch(&Flags::masked),
         "upload pairwise-masked deltas that cancel in the sum; the pair "
         "keys come from public strings (a simulation), so a server "
         "deriving them can unmask each delta"},
        {"straggler", kAsyncSilo,
         Double("SECONDS", &Flags::straggler, 0.0, kNonNegative),
         "sleep this long per local step, so kill/resume drills land "
         "mid-run"},
        {"fail-silo", kAsyncParties,
         SiloRound(&Flags::fail_silo, &Flags::fail_round),
         "silo ID's client crashes once released with version >= ROUND"},
        {"join-silo", kAsyncParties,
         SiloRound(&Flags::join_silo, &Flags::join_round),
         "silo ID joins mid-run, admitted at the first flush with version "
         ">= ROUND; the server starts with one fewer silo"}}},
      {"Tamper-evident transcripts (docs/transcripts.md):",
       {{"record-transcript", kParties, Text("DIR", &Flags::record_transcript),
         "record every frame this party sends or receives as a hash-chained "
         "transcript in DIR, written on every exit path; recording is "
         "passive"},
        {"verify-transcript", kTranscriptCheck,
         Text("FILE", &Flags::verify_transcript),
         "check a transcript's digest, hash chain and HMAC, then replay it "
         "through the real drivers byte for byte (async roles: chain and "
         "HMAC only)"},
        {"hmac-key", kParties | kTranscriptCheck,
         Text("HEX", &Flags::hmac_key, "",
              [](const std::string& text) {
                return net::ParseHexKey(text).status();
              }),
         "keyed chain finalizer: bind the chain head to this key when "
         "recording, require and check the binding when verifying"}}},
      {"Observability (src/obs/; passive: results are bitwise identical):",
       {{"metrics-out", kAllRuns, Text("PATH", &Flags::metrics_out),
         "write the metrics snapshot as JSON on exit, including failed runs"},
        {"trace-out", kAllRuns, Text("PATH", &Flags::trace_out),
         "write the run's trace spans as Chrome trace-event JSON on exit"},
        {"stats-port", kServers, Int("PORT", &Flags::stats_port, -1, 0, 65535),
         "live Prometheus text endpoint on 127.0.0.1:PORT (0 = ephemeral, "
         "printed)"}}},
  };
  return table;
}

/// The runs that read a flag, as --help and the refusal name them.
std::string ReadBy(const FlagSpec& spec) {
  std::string out;
  for (size_t i = 0; i < std::size(kRunNames); ++i) {
    if ((spec.runs & (1u << i)) == 0) continue;
    out += (out.empty() ? "" : ", ") + std::string(kRunNames[i]);
  }
  return spec.only == nullptr ? out : out + "; " + spec.only;
}

/// Prints `text` word-wrapped to 78 columns, each line indented `indent`.
void PrintWrapped(const std::string& text, size_t indent) {
  std::istringstream words(text);
  std::string word, line;
  while (words >> word) {
    if (!line.empty() && indent + line.size() + 1 + word.size() > 78) {
      std::cout << std::string(indent, ' ') << line << "\n";
      line.clear();
    }
    line += (line.empty() ? "" : " ") + word;
  }
  if (!line.empty()) std::cout << std::string(indent, ' ') << line << "\n";
}

void PrintHelp() {
  std::cout << "uldp_fl_cli — run a cross-silo user-level-DP FL experiment\n\n";
  PrintWrapped(
      "A run is local (the default), a Protocol 1 server (--serve) or silo "
      "(--connect), an async server or silo (--serve or --connect with "
      "--async), or a transcript check (--verify-transcript). Each flag "
      "names the runs that read it; a flag given to any other run is an "
      "error. Every party of a protocol reads the flags that describe the "
      "whole cohort, so one argument list starts every party.",
      0);
  for (const FlagGroup& group : FlagTable()) {
    std::cout << "\n";
    PrintWrapped(group.title, 0);
    for (const FlagSpec& spec : group.flags) {
      std::cout << "  --" << spec.name
                << (spec.value.meta ? std::string("=") + spec.value.meta : "")
                << "\n";
      const std::string shown =
          spec.value.shown.empty() ? "" : " (default " + spec.value.shown + ")";
      PrintWrapped(spec.help + shown + ". Read by: " + ReadBy(spec) + ".", 6);
    }
  }
}

const FlagSpec* FindFlag(const std::string& name) {
  for (const FlagGroup& group : FlagTable()) {
    for (const FlagSpec& spec : group.flags) {
      if (name == spec.name) return &spec;
    }
  }
  return nullptr;
}

/// The checks between flag values, each with its own message.
Status CheckValues(const Flags& flags) {
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
  if (flags.stream_chunk_coords > 0 && flags.stream_chunk_users <= 0) {
    return Status::InvalidArgument(
        "--stream-chunk-coords requires --stream-chunk-users");
  }
  if (DatasetFixesSilos(flags)) {
    const int silos =
        flags.dataset == "heart" ? kHeartDiseaseSilos : kTcgaBrcaSilos;
    if (flags.async_buffer > silos) {
      return Status::InvalidArgument(
          "--async-buffer must be <= " + std::to_string(silos) +
          ", the silo count of --dataset=" + flags.dataset);
    }
  } else if (flags.async_buffer > flags.silos) {
    return Status::InvalidArgument("--async-buffer must be <= --silos");
  }
  if (flags.async && flags.verify &&
      (flags.max_staleness != 0 ||
       (flags.async_buffer != 0 && flags.async_buffer != flags.silos))) {
    return Status::InvalidArgument(
        "--verify needs --max-staleness=0 and a full --async-buffer (the "
        "barrier case); a staleness-bounded or partial-buffer run over a "
        "real network has no deterministic reference)");
  }
  if (flags.min_silos > 0 && !flags.elastic) {
    return Status::InvalidArgument("--min-silos requires --elastic");
  }
  if (flags.min_silos > flags.silos) {
    return Status::InvalidArgument("--min-silos must be <= --silos");
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
  if (!flags.checkpoint_dir.empty() && flags.num_seeds > 1) {
    return Status::InvalidArgument(
        "checkpointing a multi-seed averaged run is not supported (the "
        "seeds would overwrite each other's session.ckpt)");
  }
  return Status::Ok();
}

Result<Flags> ParseFlags(int argc, char** argv) {
  Flags flags{};
  for (const FlagGroup& group : FlagTable()) {
    for (const FlagSpec& spec : group.flags) spec.value.reset(flags);
  }
  std::vector<const FlagSpec*> given;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintHelp();
      std::exit(0);
    }
    // "--name=value", or a bare "--name" for a switch.
    const size_t eq = arg.find('=');
    const FlagSpec* spec =
        arg.rfind("--", 0) == 0 ? FindFlag(arg.substr(2, eq - 2)) : nullptr;
    if (spec == nullptr ||
        (spec->value.meta == nullptr) != (eq == std::string::npos)) {
      return Status::InvalidArgument("unknown flag: " + arg +
                                     " (try --help)");
    }
    ULDP_RETURN_IF_ERROR(spec->value.parse(
        "--" + std::string(spec->name),
        eq == std::string::npos ? "" : arg.substr(eq + 1), flags));
    given.push_back(spec);
  }
  if (flags.serve >= 0 && !flags.connect.empty()) {
    return Status::InvalidArgument(
        "--serve and --connect are mutually exclusive");
  }
  const Run run = RunOf(flags);
  auto refuse = [run](const FlagSpec& spec) {
    return Status::InvalidArgument(
        "--" + std::string(spec.name) + " does not apply to this " +
        kRunNames[__builtin_ctz(run)] + "; it is read by: " + ReadBy(spec));
  };
  for (const FlagSpec* spec : given) {
    if ((spec->runs & run) == 0) return refuse(*spec);
  }
  // The narrower conditions come second, so a flag from the wrong run is
  // named as such.
  for (const FlagSpec* spec : given) {
    if (spec->holds != nullptr && !spec->holds(flags)) return refuse(*spec);
  }
  ULDP_RETURN_IF_ERROR(CheckValues(flags));
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
  config.ot_slots = flags.ot_slots;
  config.sample_rate = flags.user_sample_rate;
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

/// --hmac-key's bytes (the hex was checked when parsed); empty if unset.
std::vector<uint8_t> HmacKey(const Flags& flags) {
  if (flags.hmac_key.empty()) return {};
  return net::ParseHexKey(flags.hmac_key).value();
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
TranscriptFlusher MakeTranscriptRecorder(const Flags& flags) {
  TranscriptFlusher out;
  if (flags.record_transcript.empty()) return out;
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
    meta.config.seed = flags.seed;
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
  out.log = std::make_shared<net::TranscriptLog>(meta, HmacKey(flags));
  out.path = flags.record_transcript + "/" + name;
  return out;
}

/// What both servers open before their server object: the listener on
/// --serve and this party's transcript. Declared before the server, so a
/// failure path flushes the transcript only after the server (and its
/// receive threads) are torn down.
struct ServerSocket {
  net::TcpListener listener;
  TranscriptFlusher transcript;
  // Transcript peer ids are the accept counter (shared with the async
  // server's elastic acceptor thread, hence atomic). A rejected join
  // still consumes an id, so its recorded Join/Error exchange replays as
  // a rejected join instead of polluting the next peer's stream.
  std::atomic<uint32_t> accepted{0};

  /// Applies the transport flags to an accepted connection and binds it
  /// to the transcript.
  Status Prepare(net::TcpTransport& conn, const Flags& flags) {
    ULDP_RETURN_IF_ERROR(ApplyNetTimeout(conn, flags));
    if (transcript.log != nullptr) {
      conn.BindTranscript(transcript.log, accepted.fetch_add(1));
    }
    return Status::Ok();
  }

  /// Accepts silos until `server` holds `cohort` of them. A rejected join
  /// (bad id, mismatched config) is the client's problem; the server
  /// keeps serving the cohort.
  template <typename Server>
  Status AcceptCohort(Server& server, int cohort, const Flags& flags) {
    while (server.connected_silos() < cohort) {
      auto conn = listener.Accept();
      if (!conn.ok()) return conn.status();
      ULDP_RETURN_IF_ERROR(Prepare(*conn.value(), flags));
      Status added = server.AddConnection(std::move(conn.value()));
      if (!added.ok()) {
        std::cerr << "rejected join: " << added.ToString() << std::endl;
        continue;
      }
      std::cout << "silo connected (" << server.connected_silos() << "/"
                << cohort << ")" << std::endl;
    }
    return Status::Ok();
  }
};

/// Listens on --serve, announces "uldp_fl_cli: <what> listening on port P
/// (<shape>)" and starts the transcript; null (error printed) on failure.
std::unique_ptr<ServerSocket> OpenServerSocket(const Flags& flags,
                                               const std::string& what,
                                               const std::string& shape) {
  auto listener = net::TcpListener::Listen(flags.serve);
  if (!listener.ok()) {
    std::cerr << listener.status().ToString() << "\n";
    return nullptr;
  }
  std::cout << "uldp_fl_cli: " << what << " listening on port "
            << listener.value().port() << " (" << shape << ")" << std::endl;
  auto socket = std::make_unique<ServerSocket>();
  socket->listener = std::move(listener.value());
  socket->transcript = MakeTranscriptRecorder(flags);
  return socket;
}

/// A silo client's connection to --connect with the transport flags
/// applied and this party's transcript bound. The transcript is declared
/// first, so it is written after the transport closes.
struct SiloConnection {
  TranscriptFlusher transcript;
  std::unique_ptr<net::TcpTransport> transport;
};

Result<SiloConnection> ConnectSilo(const Flags& flags) {
  // The address was checked when parsed.
  const HostPort hp = ParseHostPort(flags.connect, "--connect").value();
  auto transport = net::TcpTransport::Connect(hp.host, hp.port);
  if (!transport.ok()) return transport.status();
  ULDP_RETURN_IF_ERROR(ApplyNetTimeout(*transport.value(), flags));
  SiloConnection out;
  out.transcript = MakeTranscriptRecorder(flags);
  if (out.transcript.log != nullptr) {
    transport.value()->BindTranscript(out.transcript.log, 0);
  }
  out.transport = std::move(transport.value());
  return Result<SiloConnection>(std::move(out));
}

int RunServeAsync(const Flags& flags) {
  auto socket = OpenServerSocket(
      flags, "async round server",
      std::to_string(flags.silos) + " silos, dim " +
          std::to_string(flags.dim) + ", " + std::to_string(flags.rounds) +
          " steps, max staleness " + std::to_string(flags.max_staleness));
  if (socket == nullptr) return 1;

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
  Status joined = socket->AcceptCohort(server, initial_cohort, flags);
  if (!joined.ok()) {
    std::cerr << joined.ToString() << "\n";
    return 1;
  }

  // Elastic runs keep accepting mid-run join requests while the round
  // loop executes; closing the listener after the run unblocks Accept.
  std::thread acceptor;
  if (flags.elastic) {
    acceptor = std::thread([&socket, &server, &flags]() {
      for (;;) {
        auto conn = socket->listener.Accept();
        if (!conn.ok()) return;  // listener closed: the run is over
        if (!socket->Prepare(*conn.value(), flags).ok()) continue;
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
    socket->listener.Close();
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
    // Serial replay of the barrier case (tau = 0, full buffer), whose
    // async reduce is the synchronous engine's silo-ordered AggregateDeltas:
    // identical work, identical reduce — bitwise equal. A masked run
    // replays the secure reduce its unmasked sum must equal. The replay
    // skips the async aggregator, so it books nothing into the fl.async
    // counters --metrics-out reports for the server.
    Vec ref(flags.dim, 0.0);
    for (int r = 0; r < flags.rounds; ++r) {
      std::vector<Vec> deltas(flags.silos);
      for (int s = 0; s < flags.silos; ++s) {
        Status worked = net::MakeAsyncDemoWork(flags.seed, s, flags.dim)(
            static_cast<uint64_t>(r), ref, &deltas[s]);
        if (!worked.ok()) {
          std::cerr << "verify work: " << worked.ToString() << "\n";
          return 1;
        }
      }
      Axpy(config.step_scale,
           AggregateDeltas(deltas, flags.masked, static_cast<uint64_t>(r),
                           nullptr),
           ref);
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
  auto conn = ConnectSilo(flags);
  if (!conn.ok()) {
    std::cerr << conn.status().ToString() << "\n";
    return 1;
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
                                        *conn.value().transport, options);
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

void FlushTelemetry(const Flags& flags);

int RunServe(const Flags& flags) {
  auto socket = OpenServerSocket(
      flags, "protocol server",
      std::to_string(flags.silos) + " silos, " +
          std::to_string(flags.users) + " users, dim " +
          std::to_string(flags.dim) + ", " + std::to_string(flags.rounds) +
          " rounds");
  if (socket == nullptr) return 1;
  ProtocolConfig config = NetProtocolConfig(flags);
  net::ProtocolServer server(config, flags.silos, flags.users);
  Status joined = socket->AcceptCohort(server, flags.silos, flags);
  if (!joined.ok()) {
    std::cerr << joined.ToString() << "\n";
    return 1;
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
    // core invariant, checkable from the command line. The reference's
    // silo cores book their work into this process's registry and trace,
    // so the server's telemetry is written first, describing the
    // distributed run only.
    FlushTelemetry(flags);
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
  auto conn = ConnectSilo(flags);
  if (!conn.ok()) {
    std::cerr << conn.status().ToString() << "\n";
    return 1;
  }
  std::cout << "silo " << flags.silo_id << " connected to " << flags.connect
            << std::endl;
  Status status = net::RunDemoSilo(NetProtocolConfig(flags), flags.silo_id,
                                   flags.silos, flags.users, flags.dim,
                                   flags.seed, *conn.value().transport);
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

  if (flags.dataset == "creditcard" || flags.dataset == "mnist") {
    const bool card = flags.dataset == "creditcard";
    auto data = card ? MakeCreditcardLike(flags.records, flags.records / 4, rng)
                     : MakeMnistLike(flags.records, flags.records / 5, rng);
    ULDP_RETURN_IF_ERROR(AllocateUsersAndSilos(data.train, flags.users,
                                               flags.silos, alloc, rng));
    out.dataset = std::make_unique<FederatedDataset>(
        std::move(data.train), std::move(data.test), flags.users,
        flags.silos);
    out.model = card ? MakeMlp({30, 16}, 2) : MakeMlp({196, 48}, 10);
  } else if (flags.dataset == "heart" || flags.dataset == "tcga") {
    const bool heart = flags.dataset == "heart";
    if (!heart) alloc.min_records_per_pair = 2;
    auto data = heart ? MakeHeartDiseaseLike(rng) : MakeTcgaBrcaLike(rng);
    ULDP_RETURN_IF_ERROR(AllocateUsersWithinSilos(
        data.train, flags.users, data.num_silos, alloc, rng));
    out.dataset = std::make_unique<FederatedDataset>(
        std::move(data.train), std::move(data.test), flags.users,
        data.num_silos);
    if (heart) {
      out.model = MakeMlp({13}, 2);
    } else {
      out.model = std::make_unique<CoxRegression>(39);
      out.metric = UtilityMetric::kCIndex;
    }
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
  if (flags.target_epsilon > 0.0) {
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
  const std::vector<uint8_t> key = HmacKey(flags);
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
  const Run run = RunOf(flags);
  if (run == kTranscriptCheck) return RunVerifyTranscript(flags);
  if (run == kProtocolServer) return RunServe(flags);
  if (run == kAsyncServer) return RunServeAsync(flags);
  if (run == kProtocolSilo) return RunConnect(flags);
  if (run == kAsyncSilo) return RunConnectAsync(flags);
  return RunLocal(flags);
}

/// Writes the end-of-run telemetry artifacts, once per process: a run
/// that flushes early (a protocol server before its --verify reference)
/// keeps what it wrote. Runs after every mode dispatch — including failed
/// rounds, FailAll teardowns, and injected silo crashes — so an aborted
/// run still leaves a complete metrics snapshot and a valid (tmp+rename,
/// never truncated) trace file.
void FlushTelemetry(const Flags& flags) {
  static bool flushed = false;
  if (flushed) return;
  flushed = true;
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
