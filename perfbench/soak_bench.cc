// Churned-soak benchmark for the admission service (see README.md).
//
// Replays a seeded server::RequestStream through an AdmissionService set up
// like production (AdmissiondConfig defaults, analysis.threads = 2) and
// measures the cost of fresh admission decisions from the outside, through
// the layers' public calls only: AdmissionService::submit / run_round, the
// controller's MetricsRegistry (obs::names constants), ServiceStats and
// obs::ScopedRecording around the spans that already exist in src/.
//
//   soak_bench --workload light|mid|saturated|burst --seed N --seconds S
//              --trace 0|1
//
// --trace 0 replays the stream in passes until S seconds have been
// measured and reports the end-to-end metrics. --trace 1 replays it once
// untraced and once traced and reports the per-layer metrics. Either way
// every SETUP verdict is checked, and the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/net/topology.h"
#include "src/obs/names.h"
#include "src/obs/span.h"
#include "src/obs/stopwatch.h"
#include "src/server/admissiond.h"
#include "src/server/request_stream.h"

namespace {

using namespace hetnet;  // NOLINT: benchmark binary
namespace names = obs::names;

// Why each workload exists is recorded in README.md.
struct Workload {
  const char* name;
  double lambda;            // Poisson SETUP rate per virtual second
  std::uint64_t warmup;     // SETUPs replayed during set-up, untimed
  std::uint64_t setups;     // timed SETUPs (>= 1000 for a resolved p99)
  std::size_t outstanding;  // requests submitted per run_round
  // The workload's character: its admit ratio must stay in this band at
  // every seed, or the workload no longer exercises what it is named for.
  double min_admit;
  double max_admit;
};

constexpr Workload kWorkloads[] = {
    {"light", 20.0, 100, 1000, 1, 0.9, 1.0},
    {"burst", 20.0, 100, 1000, 2, 0.9, 1.0},
    // Runnable, but left out of BENCHMARK.json as unsteady across seeds.
    {"mid", 250.0, 100, 1000, 1, 0.3, 0.7},
    {"saturated", 2000.0, 100, 1000, 1, 0.0, 0.2},
};

// Set-ups timed per end-to-end run; setup_s is their median.
constexpr int kSetupRepeats = 3;

constexpr double kMeanLifetimeMs = 500.0;
constexpr int kSourceVariants = 4;
constexpr int kAnalysisThreads = 2;

// Decision paths of one SETUP, in classification order.
enum Path {
  kLedgerReject,
  kFloorReject,
  kScreenAdmit,
  kMemoHit,
  kExactAdmit,
  kExactReject,
  kNumPaths
};
constexpr const char* kPathNames[kNumPaths] = {
    "ledger_reject", "floor_reject", "screen_admit",
    "memo_hit",      "exact_admit",  "exact_reject"};

double now_s() { return double(obs::monotonic_ns()) * 1e-9; }

// ---------------------------------------------------------------------------
// Stream and service set-up.

server::AdmissiondConfig service_config() {
  server::AdmissiondConfig config;  // batch 32, prewarm on, flight on, SLO off
  config.cac.analysis.threads = kAnalysisThreads;
  // Keeps one Outcome per SETUP so every verdict can be checked.
  config.record_outcomes = true;
  return config;
}

// The stream's requests up to and including the last SETUP: the RELEASE
// tail that drains after it carries no decisions.
std::vector<server::Request> make_stream(const net::AbhnTopology& topology,
                                         const Workload& w,
                                         std::uint64_t seed) {
  server::StreamConfig config;
  config.num_setups = w.warmup + w.setups;
  config.lambda = w.lambda;
  config.mean_lifetime = units::ms(kMeanLifetimeMs);
  config.seed = seed;
  config.source_variants = kSourceVariants;
  server::RequestStream stream(&topology, config);
  std::vector<server::Request> reqs = stream.drain();
  while (!reqs.empty() && reqs.back().type != server::RequestType::kSetup) {
    reqs.pop_back();
  }
  return reqs;
}

// ---------------------------------------------------------------------------
// Decision-path classification from registry counter deltas.

struct CounterView {
  std::uint64_t requests = 0;
  std::uint64_t admitted = 0;
  std::uint64_t no_bandwidth = 0;
  std::uint64_t infeasible = 0;
  std::uint64_t screen_admit = 0;
  std::uint64_t screen_reject = 0;
  std::uint64_t fallback = 0;
  std::uint64_t decision_evals = 0;
  std::uint64_t decision_hits = 0;
  std::uint64_t probe_evals = 0;
  std::uint64_t screen_evals = 0;
  std::uint64_t floor_certs = 0;
  std::uint64_t upper_certs = 0;
  std::uint64_t prewarm_points = 0;
  std::uint64_t port_evals = 0;
  std::uint64_t port_hits = 0;
  std::uint64_t suffix_evals = 0;
  std::uint64_t suffix_hits = 0;
  std::uint64_t flat_hits = 0;
  std::uint64_t flat_compiles = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;
};

CounterView read_counters(const server::AdmissionService& service) {
  const std::map<std::string, std::uint64_t> snap =
      service.cac().metrics().counter_snapshot();
  const auto get = [&](const char* name) -> std::uint64_t {
    const auto it = snap.find(name);
    return it == snap.end() ? 0 : it->second;
  };
  CounterView v;
  v.requests = get(names::kCacRequests);
  v.admitted = get(names::kCacAdmitted);
  v.no_bandwidth = get(names::kCacRejectedNoSyncBandwidth);
  v.infeasible = get(names::kCacRejectedInfeasible);
  v.screen_admit = get(names::kCacTierScreenAdmit);
  v.screen_reject = get(names::kCacTierScreenReject);
  v.fallback = get(names::kCacTierFallback);
  v.decision_evals = get(names::kCacSessionDecisionEvals);
  v.decision_hits = get(names::kCacSessionDecisionHits);
  v.probe_evals = get(names::kCacProbeEvals);
  v.screen_evals = get(names::kCacScreenEvals);
  v.floor_certs = get(names::kCacScreenFloorCerts);
  v.upper_certs = get(names::kCacScreenUpperCerts);
  v.prewarm_points = get(names::kCacPrewarmPoints);
  v.port_evals = get(names::kCacSessionPortEvals);
  v.port_hits = get(names::kCacSessionPortHits);
  v.suffix_evals = get(names::kCacSessionSuffixEvals);
  v.suffix_hits = get(names::kCacSessionSuffixHits);
  v.flat_hits = get(names::kCacSessionFlatHits);
  v.flat_compiles = get(names::kCacSessionFlatCompiles);
  v.evictions = get(names::kCacSessionEvictions);
  v.entries = get(names::kCacSessionEntries);
  return v;
}

// The path of one SETUP from the signals that identify it. The tier
// counters partition cac.requests (exactly one increments per request); a
// fallback request with no freshly stored joint evaluation was answered
// from the session's decision memo.
Path classify(bool ledger_reject, bool floor_reject, bool screen_admit,
              bool fresh_eval, bool admitted) {
  if (ledger_reject) return kLedgerReject;
  if (floor_reject) return kFloorReject;
  if (screen_admit) return kScreenAdmit;
  if (!fresh_eval) return kMemoHit;
  return admitted ? kExactAdmit : kExactReject;
}

// Per-SETUP signals of a round that held several SETUPs (burst), where
// counter deltas cannot tell the SETUPs apart: the flight recorder's tier,
// the committed Outcome, and whether the SETUP's cac.request span enclosed
// a fresh cac.probe_eval (resolved after the trace is parsed).
struct PendingSetup {
  net::ConnectionId id = 0;
  bool ledger_reject = false;
  bool floor_reject = false;
  bool screen_admit = false;
  bool admitted = false;
};

// ---------------------------------------------------------------------------
// One replay of the stream.

// A fresh service and its stream: everything set up before the first
// request. Pinned on the heap, because the service keeps a pointer to the
// topology.
struct Soak {
  Soak(const Workload& w, std::uint64_t seed)
      : topology(net::paper_topology_params()),
        reqs(make_stream(topology, w, seed)),
        service(&topology, service_config()) {
    for (std::uint64_t setups = 0; first_timed < reqs.size(); ++first_timed) {
      if (reqs[first_timed].type != server::RequestType::kSetup) continue;
      if (setups++ == w.warmup) break;
    }
  }
  Soak(const Soak&) = delete;
  Soak& operator=(const Soak&) = delete;

  const net::AbhnTopology topology;
  const std::vector<server::Request> reqs;
  server::AdmissionService service;
  std::size_t first_timed = 0;  // the first request after the warm-up prefix
};

// Builds a fresh service and replays the stream's warm-up prefix through
// it, `outstanding` requests per round, so the timed window starts from a
// populated service.
std::unique_ptr<Soak> set_up(const Workload& w, std::uint64_t seed,
                             std::size_t outstanding, double* seconds) {
  const double t0 = now_s();
  auto soak = std::make_unique<Soak>(w, seed);
  for (std::size_t next = 0; next < soak->first_timed;) {
    const std::size_t n = std::min(outstanding, soak->first_timed - next);
    for (std::size_t k = 0; k < n; ++k) soak->service.submit(soak->reqs[next++]);
    soak->service.run_round();
  }
  *seconds = now_s() - t0;
  return soak;
}

struct PassResult {
  double wall_s = 0.0;             // first submit to the last round's return
  std::uint64_t requests = 0;      // committed
  std::uint64_t rounds = 0;
  std::vector<double> latency_us;  // per timed SETUP
  std::uint64_t admitted = 0;      // timed SETUPs admitted
  std::uint64_t checked = 0;       // SETUP verdicts checked (warm-up too)
  std::uint64_t failed = 0;        // SETUPs failing their verdict check
  std::uint64_t digest = 0;
  std::string error;               // first failed check, if any
  // Traced passes only.
  CounterView before, after;
  std::vector<std::pair<net::ConnectionId, Path>> paths;  // counter-classified
  std::vector<PendingSetup> pending;                      // span-classified
  std::string trace_json;
  std::uint64_t trace_dropped = 0;
};

// An admitted SETUP must carry a finite bound within its deadline on a
// usable allocation; a rejected one must say why.
bool verdict_ok(const server::Outcome& o, const net::ConnectionSpec& spec,
                Seconds h_min_abs) {
  if (!o.admitted) return o.reason != core::RejectReason::kNone;
  if (o.reason != core::RejectReason::kNone) return false;
  if (!isfinite(o.worst_case_delay) || !(o.worst_case_delay <= spec.deadline)) {
    return false;
  }
  if (!(o.alloc.h_s >= h_min_abs)) return false;
  const bool intra_ring = spec.src.ring == spec.dst.ring;
  return intra_ring || o.alloc.h_r >= h_min_abs;  // intra-ring: no H_R
}

// Feeds the whole stream to the service, `outstanding` requests per round,
// timing each SETUP from its submit to the return of the round that
// committed it. A traced pass also records spans and classifies every
// SETUP's decision path.
PassResult run_pass(Soak& soak, std::size_t outstanding, bool traced) {
  PassResult r;
  server::AdmissionService& service = soak.service;
  const std::vector<server::Request>& reqs = soak.reqs;
  std::optional<obs::ScopedRecording> recording;
  if (traced) {
    recording.emplace(true, std::size_t(1) << 23);
    r.before = read_counters(service);
  }
  std::vector<std::int64_t> stamps;
  std::vector<const server::Request*> round_setups;
  r.latency_us.reserve(reqs.size());
  const std::uint64_t admitted_before = service.stats().admitted;
  const double t0 = now_s();
  for (std::size_t next = soak.first_timed; next < reqs.size();) {
    stamps.clear();
    round_setups.clear();
    std::size_t submitted = 0;
    for (; submitted < outstanding && next < reqs.size(); ++submitted) {
      HETNET_OBS_SPAN("bench.submit", "bench");
      const server::Request& req = reqs[next++];
      if (req.type == server::RequestType::kSetup) {
        stamps.push_back(obs::monotonic_ns());
        round_setups.push_back(&req);
      }
      service.submit(req);
    }
    const CounterView pre = traced ? read_counters(service) : CounterView{};
    std::size_t committed = 0;
    {
      HETNET_OBS_SPAN("bench.run_round", "bench");
      committed = service.run_round();
    }
    const std::int64_t t_return = obs::monotonic_ns();
    for (const std::int64_t stamp : stamps) {
      r.latency_us.push_back(double(t_return - stamp) * 1e-3);
    }
    r.requests += committed;
    ++r.rounds;
    if (committed != submitted && r.error.empty()) {
      r.error = "run_round committed " + std::to_string(committed) + " of " +
                std::to_string(submitted) + " outstanding requests";
    }
    if (!traced || round_setups.empty()) continue;
    if (round_setups.size() == 1) {
      const CounterView post = read_counters(service);
      r.paths.emplace_back(
          round_setups.front()->id,
          classify(post.no_bandwidth != pre.no_bandwidth,
                   post.screen_reject != pre.screen_reject,
                   post.screen_admit != pre.screen_admit,
                   post.decision_evals != pre.decision_evals,
                   post.admitted != pre.admitted));
      continue;
    }
    // Several SETUPs in one round: per-SETUP tier from the flight
    // recorder, which retains far more events than one round commits.
    std::map<std::uint64_t, int> tier_by_seq;
    for (const obs::FlightEvent& ev : service.flight()->snapshot()) {
      if (!ev.release) tier_by_seq[ev.seq] = ev.tier;
    }
    const std::vector<server::Outcome>& outs = service.outcomes();
    for (std::size_t k = outs.size() - round_setups.size(); k < outs.size();
         ++k) {
      const server::Outcome& o = outs[k];
      const int tier = tier_by_seq[o.seq];
      r.pending.push_back({o.id,
                           o.reason == core::RejectReason::kNoSyncBandwidth,
                           tier == 2, tier == 1, o.admitted});
    }
  }
  r.wall_s = now_s() - t0;
  if (traced) {
    r.after = read_counters(service);
    std::ostringstream trace;
    recording->recorder().write_chrome_trace(trace);
    r.trace_json = trace.str();
    r.trace_dropped = recording->recorder().dropped_count();
    recording.reset();
  }

  const Seconds h_min_abs = service.cac().config().h_min_abs;
  std::map<net::ConnectionId, const net::ConnectionSpec*> spec_by_id;
  for (const server::Request& req : reqs) {
    if (req.type == server::RequestType::kSetup) spec_by_id[req.id] = &req.spec;
  }
  for (const server::Outcome& o : service.outcomes()) {
    const auto it = spec_by_id.find(o.id);
    if (it == spec_by_id.end() || !verdict_ok(o, *it->second, h_min_abs)) {
      ++r.failed;
      if (r.error.empty()) {
        r.error = "SETUP " + std::to_string(o.id) + " failed its verdict check";
      }
    }
  }
  const server::ServiceStats& stats = service.stats();
  r.admitted = stats.admitted - admitted_before;
  r.checked = service.outcomes().size();
  if (stats.setups != spec_by_id.size() ||
      service.outcomes().size() != spec_by_id.size()) {
    // SETUPs that never came back with a verdict fail too.
    r.failed += spec_by_id.size() -
                std::min(spec_by_id.size(), service.outcomes().size());
    if (r.error.empty()) r.error = "committed SETUP count mismatch";
  }
  r.digest = service.decision_digest();
  return r;
}

// ---------------------------------------------------------------------------
// Trace analysis.

struct Span {
  std::string name;
  int tid = 0;
  double ts = 0.0;   // µs
  double dur = 0.0;  // µs
  double child = 0.0;
  std::int64_t conn = -1;         // cac.request
  std::int64_t connections = -1;  // analyzer.run
  int probe_evals = 0;            // direct cac.probe_eval children
};

std::int64_t json_int_arg(const std::string& line, const char* key) {
  const std::string k = std::string("\"") + key + "\":";
  const std::size_t at = line.find(k);
  if (at == std::string::npos) return -1;
  return std::strtoll(line.c_str() + at + k.size(), nullptr, 10);
}

double json_num(const std::string& line, const char* key) {
  const std::string k = std::string("\"") + key + "\":";
  const std::size_t at = line.find(k);
  if (at == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + at + k.size(), nullptr);
}

// Parses TraceRecorder::write_chrome_trace output (one event per line) and
// attributes each span's time to its innermost enclosing span on the same
// thread, so `dur - child` is its self time.
std::vector<Span> parse_trace(const std::string& json) {
  std::vector<Span> spans;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t n0 = line.find("{\"name\":\"");
    if (n0 == std::string::npos) continue;
    const std::size_t n1 = line.find('"', n0 + 9);
    Span s;
    s.name = line.substr(n0 + 9, n1 - (n0 + 9));
    s.ts = json_num(line, "ts");
    s.dur = json_num(line, "dur");
    s.tid = int(json_int_arg(line, "tid"));
    s.conn = json_int_arg(line, "conn");
    s.connections = json_int_arg(line, "connections");
    spans.push_back(std::move(s));
  }
  std::stable_sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.dur > b.dur;
  });
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    while (!stack.empty() &&
           (spans[stack.back()].tid != spans[i].tid ||
            spans[stack.back()].ts + spans[stack.back()].dur <= spans[i].ts)) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      Span& parent = spans[stack.back()];
      parent.child += spans[i].dur;
      if (spans[i].name == "cac.probe_eval") ++parent.probe_evals;
    }
    stack.push_back(i);
  }
  return spans;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of the samples at or
  // below it.
  const std::size_t rank = std::size_t(std::ceil(q * double(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("failed operations: %llu of %llu SETUPs (%.4f%%)\n",
              (unsigned long long)failed, (unsigned long long)attempted,
              100.0 * ratio(double(failed), double(attempted)));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false", (unsigned long long)attempted,
              (unsigned long long)failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit);
  }
  std::printf("}}\n");
}

struct Check {
  bool ok = true;
  void require(bool cond, const std::string& what) {
    if (!cond) {
      ok = false;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }
};

void check_pass(Check& check, const PassResult& p, const Workload& w,
                std::uint64_t seed) {
  check.require(p.error.empty(), p.error);
  const double admit = ratio(double(p.admitted), double(p.latency_us.size()));
  check.require(admit >= w.min_admit && admit <= w.max_admit,
                std::string(w.name) + " admit ratio " + std::to_string(admit) +
                    " outside its band at seed " + std::to_string(seed));
}

// ---------------------------------------------------------------------------
// The two modes.

int run_end_to_end(const Workload& w, std::uint64_t seed, double seconds) {
  Check check;
  std::vector<double> setup(kSetupRepeats);
  std::unique_ptr<Soak> soak;
  for (double& s : setup) {
    soak.reset();
    soak = set_up(w, seed, w.outstanding, &s);
  }
  std::vector<PassResult> passes;
  double measured = 0.0;
  while (passes.empty() || measured < seconds) {
    if (soak == nullptr) {
      double s = 0.0;
      soak = set_up(w, seed, w.outstanding, &s);
      setup.push_back(s);
    }
    passes.push_back(run_pass(*soak, w.outstanding, false));
    soak.reset();
    measured += passes.back().wall_s;
    std::printf("pass %zu: %llu requests in %.3f s\n", passes.size(),
                (unsigned long long)passes.back().requests,
                passes.back().wall_s);
  }
  std::vector<double> latency;
  std::uint64_t requests = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const PassResult& p : passes) {
    check_pass(check, p, w, seed);
    check.require(p.digest == passes.front().digest,
                  "decision digest differs between passes");
    latency.insert(latency.end(), p.latency_us.begin(), p.latency_us.end());
    requests += p.requests;
    attempted += p.checked;
    failed += p.failed;
  }
  const PassResult& first = passes.front();
  double mean = 0.0;
  for (const double v : latency) mean += v;
  mean /= double(latency.size());

  std::printf("workload %s seed %llu: %zu pass(es), %zu SETUP samples, "
              "%llu requests in %.3f s\n",
              w.name, (unsigned long long)seed, passes.size(), latency.size(),
              (unsigned long long)requests, measured);
  std::printf("decision_digest %llu, admitted %llu of %zu SETUPs per pass\n",
              (unsigned long long)first.digest,
              (unsigned long long)first.admitted, first.latency_us.size());
  const std::vector<Metric> metrics = {
      {"throughput_rps", double(requests) / measured, "1/s"},
      {"decision_p50_us", quantile(latency, 0.5), "us"},
      {"decision_p99_us", quantile(latency, 0.99), "us"},
      {"decision_mean_us", mean, "us"},
      {"admit_ratio",
       ratio(double(first.admitted), double(first.latency_us.size())),
       "ratio"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
  print_result(check.ok && failed == 0, attempted, failed, metrics);
  return 0;
}

int run_traced(const Workload& w, std::uint64_t seed) {
  Check check;
  double setup_s = 0.0;
  const PassResult plain =
      run_pass(*set_up(w, seed, w.outstanding, &setup_s), w.outstanding, false);
  const PassResult p =
      run_pass(*set_up(w, seed, w.outstanding, &setup_s), w.outstanding, true);
  check_pass(check, plain, w, seed);
  check_pass(check, p, w, seed);
  check.require(p.digest == plain.digest,
                "decision digest differs with tracing on");
  check.require(p.trace_dropped == 0,
                std::to_string(p.trace_dropped) + " trace events dropped");
  std::uint64_t failed = plain.failed + p.failed;
  std::uint64_t attempted = plain.checked + p.checked;
  // A batched workload must decide exactly as the one-request-round replay
  // of its stream (for burst, the light workload), where no round merges
  // shards or prewarms.
  if (w.outstanding > 1) {
    const PassResult serial = run_pass(*set_up(w, seed, 1, &setup_s), 1, false);
    check_pass(check, serial, w, seed);
    check.require(serial.digest == p.digest,
                  "burst digest differs from the one-request-round replay");
    failed += serial.failed;
    attempted += serial.checked;
  }

  std::vector<Span> spans = parse_trace(p.trace_json);
  int commit_tid = -1;
  for (const Span& s : spans) {
    if (s.name == "bench.run_round") commit_tid = s.tid;
  }
  std::map<std::string, double> self_ms;  // commit thread
  std::map<std::string, double> total_ms;  // commit thread
  std::map<std::string, std::uint64_t> count;  // every thread
  double helper_busy_ms = 0.0;
  double flows = 0.0;
  std::map<std::int64_t, const Span*> request_span;
  for (const Span& s : spans) {
    ++count[s.name];
    if (s.name == "analyzer.run") flows += double(s.connections);
    if (s.tid != commit_tid) {
      if (s.name == "pool.drain") helper_busy_ms += s.dur * 1e-3;
      continue;
    }
    self_ms[s.name] += std::max(0.0, s.dur - s.child) * 1e-3;
    total_ms[s.name] += s.dur * 1e-3;
    if (s.name == "cac.request") request_span[s.conn] = &s;
  }
  double accounted_ms = 0.0;
  for (const auto& [name, ms] : self_ms) accounted_ms += ms;
  const double wall_ms = p.wall_s * 1e3;
  const double coverage = ratio(accounted_ms, wall_ms);
  check.require(coverage >= 0.9, "per-layer self times cover only " +
                                     std::to_string(coverage) +
                                     " of the commit thread's wall time");

  // Decision paths: counter-classified SETUPs plus the burst rounds' SETUPs,
  // whose fresh-evaluation signal is read off their cac.request span.
  std::vector<std::pair<net::ConnectionId, Path>> paths = p.paths;
  for (const PendingSetup& s : p.pending) {
    const auto it = request_span.find(std::int64_t(s.id));
    const bool fresh = it != request_span.end() && it->second->probe_evals > 0;
    paths.emplace_back(s.id, classify(s.ledger_reject, s.floor_reject,
                                      s.screen_admit, fresh, s.admitted));
  }
  std::uint64_t path_count[kNumPaths] = {};
  double path_us[kNumPaths] = {};
  for (const auto& [id, path] : paths) {
    ++path_count[path];
    const auto it = request_span.find(std::int64_t(id));
    check.require(it != request_span.end(),
                  "no cac.request span for SETUP " + std::to_string(id));
    if (it != request_span.end()) path_us[path] += it->second->dur;
  }
  // Self-check: the paths partition the measured SETUPs and agree with the
  // registry totals.
  const CounterView& a = p.after;
  const CounterView& b = p.before;
  const std::uint64_t setups = p.latency_us.size();
  check.require(paths.size() == setups && a.requests - b.requests == setups,
                "decision paths do not partition the measured SETUPs");
  check.require(path_count[kLedgerReject] == a.no_bandwidth - b.no_bandwidth,
                "ledger_reject count disagrees with the registry");
  check.require(path_count[kFloorReject] == a.screen_reject - b.screen_reject,
                "floor_reject count disagrees with the registry");
  check.require(path_count[kScreenAdmit] == a.screen_admit - b.screen_admit,
                "screen_admit count disagrees with the registry");
  check.require(a.admitted - b.admitted + a.no_bandwidth - b.no_bandwidth +
                        a.infeasible - b.infeasible ==
                    setups,
                "admitted + rejected counters disagree with the SETUP count");
  check.require(path_count[kMemoHit] + path_count[kExactAdmit] +
                        path_count[kExactReject] + path_count[kLedgerReject] ==
                    a.fallback - b.fallback,
                "fallback paths disagree with cac.tier.fallback");

  std::printf("workload %s seed %llu (traced): %llu measured SETUPs, "
              "%llu requests in %.3f s traced, %.3f s untraced\n",
              w.name, (unsigned long long)seed, (unsigned long long)setups,
              (unsigned long long)p.requests, p.wall_s, plain.wall_s);
  std::printf("decision_digest %llu; %zu trace events, %llu dropped; "
              "self times cover %.1f%% of the commit thread\n",
              (unsigned long long)p.digest, spans.size(),
              (unsigned long long)p.trace_dropped, 100.0 * coverage);
  std::printf("self time per span on the commit thread:\n");
  for (const auto& [name, ms] : self_ms) {
    std::printf("  %-24s %10.3f ms  %5.1f%%  (%llu spans)\n", name.c_str(), ms,
                100.0 * ratio(ms, wall_ms), (unsigned long long)count[name]);
  }
  std::printf("  %-24s %10.3f ms  (helper threads)\n", "pool.drain",
              helper_busy_ms);

  const double dsetups = double(setups);
  std::vector<Metric> metrics = {
      {"server.self_us_per_req",
       ratio(self_ms["bench.run_round"] * 1e3, double(p.requests)), "us"},
      {"server.reqs_per_round", ratio(double(p.requests), double(p.rounds)),
       "req"},
      {"server.prewarm_ms", total_ms["cac.prewarm_batch"], "ms"},
      {"server.prewarm_points", double(a.prewarm_points - b.prewarm_points),
       "count"},
      {"server.prewarm_hit_ratio",
       ratio(double(a.decision_hits - b.decision_hits),
             double(a.prewarm_points - b.prewarm_points)),
       "ratio"},
  };
  for (int k = 0; k < kNumPaths; ++k) {
    const std::string base = std::string("cac.path.") + kPathNames[k];
    metrics.push_back({base + ".count", double(path_count[k]), "count"});
    metrics.push_back(
        {base + ".mean_us", ratio(path_us[k], double(path_count[k])), "us"});
  }
  const std::vector<Metric> rest = {
      {"cac.request_self_ms", self_ms["cac.request"], "ms"},
      {"cac.probe_evals_per_setup",
       ratio(double(a.probe_evals - b.probe_evals), dsetups), "count"},
      {"cac.probe_eval_ms", total_ms["cac.probe_eval"], "ms"},
      {"cac.screen_ms", total_ms["cac.screen_eval"], "ms"},
      {"cac.screen_cert_ratio",
       ratio(double(a.floor_certs - b.floor_certs + a.upper_certs -
                    b.upper_certs),
             double(a.screen_evals - b.screen_evals)),
       "ratio"},
      {"analyzer.runs", double(count["analyzer.run"]), "count"},
      {"analyzer.flows_per_run",
       ratio(flows, double(count["analyzer.run"])), "flows"},
      {"analyzer.run_self_ms", self_ms["analyzer.run"], "ms"},
      {"analyzer.wave_ms", self_ms["analyzer.wave"], "ms"},
      {"analyzer.suffix_ms", self_ms["analyzer.suffixes"], "ms"},
      {"analyzer.prefix_ms", self_ms["analyzer.prefixes"], "ms"},
      {"session.port_hit_ratio",
       ratio(double(a.port_hits - b.port_hits),
             double(a.port_hits - b.port_hits + a.port_evals - b.port_evals)),
       "ratio"},
      {"session.suffix_hit_ratio",
       ratio(double(a.suffix_hits - b.suffix_hits),
             double(a.suffix_hits - b.suffix_hits + a.suffix_evals -
                    b.suffix_evals)),
       "ratio"},
      {"session.decision_hit_ratio",
       ratio(double(a.decision_hits - b.decision_hits),
             double(a.decision_hits - b.decision_hits + a.decision_evals -
                    b.decision_evals)),
       "ratio"},
      {"session.flat_hit_ratio",
       ratio(double(a.flat_hits - b.flat_hits),
             double(a.flat_hits - b.flat_hits + a.flat_compiles -
                    b.flat_compiles)),
       "ratio"},
      {"session.evictions", double(a.evictions - b.evictions), "count"},
      {"session.entries", double(a.entries), "count"},
      {"pool.region_ms", self_ms["pool.region"], "ms"},
      {"pool.helper_busy_ms", helper_busy_ms, "ms"},
      {"trace_overhead", ratio(p.wall_s, plain.wall_s), "ratio"},
      {"trace.coverage", coverage, "ratio"},
  };
  metrics.insert(metrics.end(), rest.begin(), rest.end());
  print_result(check.ok && failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else {
      std::fprintf(stderr, "soak_bench: unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) {
      return trace != 0 ? run_traced(w, seed) : run_end_to_end(w, seed, seconds);
    }
  }
  std::fprintf(stderr,
               "usage: soak_bench --workload light|mid|saturated|burst "
               "[--seed N] [--seconds S] [--trace 0|1]\n");
  return 2;
}
