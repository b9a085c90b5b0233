// qsel_perfbench — one benchmark run of one workload.
//
//   qsel_perfbench --workload tcp_serial --seed 7 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with no probe attached.
// --trace 1 alternates untraced and traced episodes (TimedTransport on
// every node) and reports the per-layer metrics of the traced ones plus
// the tracing overhead between the two; --spans FILE writes the last
// traced episode's span log as CSV.
//
// A run is several episodes, each on a freshly built cluster: TCP
// episodes split the run's seconds, and a sim episode is the workload's
// fixed virtual interval, repeated until the seconds are used. Each
// metric is the median over the run's episodes.
//
// Every metric goes to stdout as a "name value unit" line; the last line
// is one JSON object {correct, attempted, failed, metrics}. The exit code
// is 1 when a correctness gate failed, 2 on bad arguments.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "crypto/signer.hpp"
#include "rig/rig.hpp"

namespace {

using namespace perfbench;

/// Extra setups timed before each episode, besides the episode's own.
constexpr int kSetupsPerEpisode = 4;
/// Wall length of one TCP episode.
constexpr double kTcpEpisodeS = 3.0;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: qsel_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\nworkloads:");
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_u64(const char* arg) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(arg, &end, 10);
  if (end == arg || *end != '\0' || arg[0] == '-') usage();
  return value;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Nearest-rank percentile of exact samples, in microseconds.
double percentile_us(std::vector<std::uint64_t> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  auto rank = static_cast<std::size_t>(
      p * static_cast<double>(samples.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return static_cast<double>(samples[rank - 1]) * 1e-3;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Moves the thread to the next CPU of the process's affinity set before
/// each episode: no migrations inside an episode, and a run samples every
/// CPU instead of only the one it started on, whose neighbours may be busy
/// for the whole run.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  std::vector<std::size_t> cpus_;
  std::size_t next_ = 0;
};

struct Metric {
  const char* name;
  double value;
  const char* unit;
};
using Metrics = std::vector<Metric>;

/// Per-metric median over episodes that report the same metric list.
Metrics median_of(const std::vector<Metrics>& runs) {
  Metrics out = runs.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> values;
    for (const Metrics& run : runs) values.push_back(run[i].value);
    out[i].value = median(values);
  }
  return out;
}

class Report {
 public:
  void add(const Metric& m) {
    std::printf("%-28s %.6g %s\n", m.name, m.value, m.unit);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  json_.empty() ? "" : ",", m.name, m.value, m.unit);
    json_ += buf;
  }
  void add(const Metrics& metrics) {
    for (const Metric& m : metrics) add(m);
  }
  void note(const std::string& line) { std::printf("# %s\n", line.c_str()); }

  /// Applies the correctness gate of one episode.
  void gate(const Episode& e) {
    attempted_ += e.attempted;
    failed_ += e.failed;
    if (e.error.empty()) return;
    note("correctness gate: " + e.error);
    correct_ = false;
  }
  void fail(const std::string& why) {
    note(why);
    correct_ = false;
  }

  int finish() {
    const bool correct = correct_ && attempted_ > 0;
    std::printf(
        "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
        "\"metrics\":{%s}}\n",
        correct ? "true" : "false",
        static_cast<unsigned long long>(attempted_),
        static_cast<unsigned long long>(failed_), json_.c_str());
    return correct ? 0 : 1;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::string json_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Outputs that must repeat exactly across runs of one sim seed.
bool same_outputs(const Episode& a, const Episode& b) {
  return a.committed == b.committed && a.app_digest == b.app_digest &&
         a.responses_digest == b.responses_digest &&
         a.observed.view_changes == b.observed.view_changes &&
         a.window_gaps_ns == b.window_gaps_ns &&
         a.latencies_ns == b.latencies_ns;
}

/// TCP episodes each draw their own op stream from the run's seed: the
/// delayed-ACK stalls that set tcp_window's throughput depend on the exact
/// message sizes, so a single stream would make a whole run measure one
/// input. Sim episodes repeat the seed exactly, as their outputs must.
std::uint64_t episode_seed(const Workload& w, std::uint64_t seed,
                           std::size_t episode) {
  return w.tcp ? seed * 1000 + episode : seed;
}

double ops(const Episode& e) {
  return static_cast<double>(std::max<std::uint64_t>(1, e.committed));
}

Metrics end_to_end(const Episode& e) {
  return {
      {"ops_per_s",
       static_cast<double>(e.committed) * 1e9 /
           static_cast<double>(std::max<std::uint64_t>(1, e.interval_ns)),
       "1/s"},
      {"lat_p50_us", percentile_us(e.latencies_ns, 0.50), "us"},
      {"lat_p99_us", percentile_us(e.latencies_ns, 0.99), "us"},
      {"cpu_us_per_op", e.cpu_s * 1e6 / ops(e), "us"},
      {"outage_ms",
       median(std::vector<double>(e.window_gaps_ns.begin(),
                                  e.window_gaps_ns.end())) *
           1e-6,
       "ms"},
  };
}

Metrics per_layer(const Episode& e) {
  const auto idx = [](SpanName n) { return static_cast<std::size_t>(n); };
  const Probe::Totals& t = e.spans;
  const Observed& o = e.observed;
  const MessageCounts& m = e.messages;
  const auto per_op = [&](std::uint64_t v) {
    return static_cast<double>(v) / ops(e);
  };
  const auto us_per_op = [&](std::uint64_t ns) { return per_op(ns) * 1e-3; };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  // The loop's own work: thread CPU inside rounds minus the upcalls into
  // the layers above it.
  const double loop_busy_ns =
      d(t.round_cpu_ns) - d(t.under_round_ns[idx(SpanName::kXpaxosUpcall)] +
                            t.under_round_ns[idx(SpanName::kLoadUpcall)]);
  return {
      {"load.submit_us_per_op", us_per_op(t.self_ns[idx(SpanName::kLoadSubmit)]), "us"},
      {"load.reply_us_per_op", us_per_op(t.self_ns[idx(SpanName::kLoadUpcall)]), "us"},
      {"load.retransmits_per_op", per_op(o.retransmissions), "count"},
      {"net.frames_per_op", per_op(o.io.frames_sent), "count"},
      {"net.bytes_per_op", per_op(o.io.bytes_sent), "B"},
      {"net.writev_per_op", per_op(o.io.writev_calls), "count"},
      {"net.frames_shared_frac", ratio(d(o.io.frames_shared), d(o.io.frames_sent)), "frac"},
      {"net.send_us_per_op", us_per_op(t.self_ns[idx(SpanName::kNetSend)]), "us"},
      {"net.loop_busy_us_per_op", loop_busy_ns * 1e-3 / ops(e), "us"},
      {"net.idle_frac",
       1.0 - ratio(d(t.round_cpu_ns), d(t.total_ns[idx(SpanName::kRound)])), "frac"},
      {"net.poll_rounds_per_op", per_op(e.rounds), "count"},
      {"xpaxos.handler_us_per_op", us_per_op(t.self_ns[idx(SpanName::kXpaxosUpcall)]), "us"},
      {"xpaxos.prepare_per_op", per_op(m.prepare), "count"},
      {"xpaxos.commit_per_op", per_op(m.commit), "count"},
      {"smr.request_per_op", per_op(m.request), "count"},
      {"smr.reply_per_op", per_op(m.reply), "count"},
      {"xpaxos.batch_mean", ratio(d(m.proposal_entries), d(m.proposals)), "count"},
      {"xpaxos.pending_max", d(e.queue.pending_max), "count"},
      {"xpaxos.in_flight_mean", ratio(d(e.queue.in_flight_sum), d(e.queue.samples)), "count"},
      {"xpaxos.view_changes", d(o.view_changes), "count"},
      {"xpaxos.viewchange_bytes_mean", ratio(d(m.viewchange_bytes), d(m.viewchange)), "B"},
      {"xpaxos.history_len", d(e.history_len), "count"},
      {"fd.expectations_per_op", per_op(o.fd_expectations), "count"},
      {"fd.suspicions", d(o.fd_suspicions), "count"},
      {"qs.quorums_issued", d(o.qs_quorums), "count"},
      {"qs.solver_runs", d(o.qs_solver_runs), "count"},
      {"qs.cache_hits", d(o.qs_cache_hits), "count"},
      {"sim.events_per_op", per_op(o.timer_events), "count"},
      {"sim.msgs_per_op", per_op(o.sim_messages), "count"},
      {"sim.bytes_per_op", per_op(o.sim_bytes), "B"},
  };
}

/// Public Signer and Sha256 calls on a `message_bytes` buffer.
Metrics time_crypto(std::size_t message_bytes, std::uint64_t seed) {
  using namespace qsel;
  crypto::KeyRegistry keys(2, seed);
  const crypto::Signer signer(keys, 0);
  Rng rng(seed);
  std::vector<std::uint8_t> message(std::max<std::size_t>(1, message_bytes));
  for (auto& b : message) b = static_cast<std::uint8_t>(rng());
  std::vector<std::uint8_t> block(64 * 1024);
  for (auto& b : block) b = static_cast<std::uint8_t>(rng());

  constexpr int kBatches = 7;
  constexpr int kCalls = 500;
  constexpr int kBlocks = 8;
  std::vector<double> sign, verify, sha;
  std::uint64_t sink = 0;
  for (int batch = 0; batch < kBatches; ++batch) {
    crypto::Signature sig;
    std::uint64_t t = wall_ns();
    for (int i = 0; i < kCalls; ++i) {
      message[0] = static_cast<std::uint8_t>(i);
      sig = signer.sign(message);
      sink += sig.tag.bytes[0];
    }
    sign.push_back(static_cast<double>(wall_ns() - t) * 1e-3 / kCalls);
    t = wall_ns();
    for (int i = 0; i < kCalls; ++i)
      sink += signer.verify(message, sig) ? 1u : 0u;
    verify.push_back(static_cast<double>(wall_ns() - t) * 1e-3 / kCalls);
    t = wall_ns();
    for (int i = 0; i < kBlocks; ++i) {
      block[0] = static_cast<std::uint8_t>(i);
      sink += crypto::sha256(block).bytes[0];
    }
    sha.push_back(static_cast<double>(wall_ns() - t) * 1e-3 /
                  (kBlocks * static_cast<double>(block.size()) / 1024));
  }
  if (sink == 0) std::fprintf(stderr, "#\n");  // keeps the calls observable
  return {{"crypto.sign_us", median(sign), "us"},
          {"crypto.verify_us", median(verify), "us"},
          {"crypto.sha256_us_per_kb", median(sha), "us"}};
}

std::string summary(const Workload& w, std::uint64_t seed,
                    const std::vector<Episode>& episodes) {
  std::uint64_t samples = 0;
  for (const Episode& e : episodes) samples += e.latencies_ns.size();
  const Episode& e = episodes.front();
  return std::string(w.name) + " seed " + std::to_string(seed) + ": " +
         std::to_string(episodes.size()) + " episode(s), " +
         std::to_string(samples) + " latency samples, first episode " +
         std::to_string(e.committed) + " committed, " +
         std::to_string(e.observed.view_changes) +
         " view changes, app digest " +
         e.app_digest.to_hex().substr(0, 16);
}

int run_untraced(const Workload& w, std::uint64_t seed, double seconds) {
  Report report;
  const std::uint64_t start = wall_ns();
  std::vector<double> setups;
  std::vector<Episode> episodes;
  CpuRotation cpus;
  const int count = std::max(1, static_cast<int>(seconds / kTcpEpisodeS));
  const auto length =
      static_cast<std::uint64_t>(std::max(0.5, seconds / count - 0.05) * 1e9);
  do {
    cpus.next();
    for (int i = 0; i < kSetupsPerEpisode; ++i)
      setups.push_back(time_setup(w, seed));
    episodes.push_back(run_episode(w, episode_seed(w, seed, episodes.size()),
                                   length, nullptr));
  } while (w.tcp ? episodes.size() < static_cast<std::size_t>(count)
                 : static_cast<double>(wall_ns() - start) * 1e-9 < seconds);

  std::vector<Metrics> runs;
  for (const Episode& e : episodes) {
    report.gate(e);
    if (!w.tcp && !same_outputs(e, episodes.front()))
      report.fail("sim outputs differ between episodes of one seed");
    setups.push_back(e.setup_s);
    runs.push_back(end_to_end(e));
  }
  report.note(summary(w, seed, episodes));
  std::string spread = "ops_per_s, cpu_us_per_op by episode:";
  for (const Metrics& run : runs) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " %.0f/%.1f", run[0].value, run[3].value);
    spread += buf;
  }
  report.note(spread);
  report.add(median_of(runs));
  const double attempted = static_cast<double>(report.attempted());
  report.add({"ok_frac",
              ratio(attempted - static_cast<double>(report.failed()), attempted),
              "frac"});
  report.add({"rss_mb", peak_rss_mb(), "MB"});
  report.add({"setup_s", median(setups), "s"});
  return report.finish();
}

int run_traced(const Workload& w, std::uint64_t seed, double seconds,
               const char* spans_path) {
  Report report;
  // Untraced/traced pairs; the overhead compares committed ops per wall
  // second (on sim, too, where ops_per_s itself is virtual).
  const double pair_s = w.tcp ? 2 * kTcpEpisodeS : 15.0;
  const int pairs = std::max(1, static_cast<int>(seconds / pair_s));
  const auto length = static_cast<std::uint64_t>(
      std::max(0.5, seconds / (2 * pairs) - 0.05) * 1e9);
  std::vector<Episode> untraced;
  std::vector<Episode> traced;
  std::vector<Metrics> layers;
  std::vector<double> untraced_rate, traced_rate;
  std::vector<std::uint32_t> signed_sizes;
  CpuRotation cpus;
  for (int i = 0; i < pairs; ++i) {
    cpus.next();
    const std::uint64_t inputs = episode_seed(w, seed, untraced.size());
    untraced.push_back(run_episode(w, inputs, length, nullptr));
    Probe probe;
    traced.push_back(run_episode(w, inputs, length, &probe));
    const Episode& u = untraced.back();
    const Episode& t = traced.back();
    report.gate(u);
    report.gate(t);
    if (!w.tcp && !same_outputs(u, t))
      report.fail("traced sim outputs differ from untraced");
    layers.push_back(per_layer(t));
    untraced_rate.push_back(static_cast<double>(u.committed) / u.wall_s);
    traced_rate.push_back(static_cast<double>(t.committed) / t.wall_s);
    signed_sizes.insert(signed_sizes.end(), t.messages.signed_sizes.begin(),
                        t.messages.signed_sizes.end());
    if (i + 1 == pairs && spans_path != nullptr && !probe.write(spans_path))
      report.fail(std::string("cannot write ") + spans_path);
  }

  std::vector<double> sizes(signed_sizes.begin(), signed_sizes.end());
  const double signed_bytes = median(sizes);
  report.note(summary(w, seed, traced) + " (traced); median PREPARE/COMMIT " +
              std::to_string(static_cast<std::uint64_t>(signed_bytes)) + " B");
  report.add(median_of(layers));
  report.add(time_crypto(static_cast<std::size_t>(signed_bytes), seed));
  report.add({"trace.overhead_frac",
              1.0 - ratio(median(traced_rate), median(untraced_rate)), "frac"});
  return report.finish();
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 0;
  int trace = -1;
  const char* spans = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = find_workload(value);
      if (workload == nullptr) usage();
    } else if (arg == "--seed") {
      seed = parse_u64(value);
    } else if (arg == "--seconds") {
      seconds = parse_u64(value);
    } else if (arg == "--trace") {
      trace = std::strcmp(value, "0") == 0   ? 0
              : std::strcmp(value, "1") == 0 ? 1
                                             : -1;
      if (trace < 0) usage();
    } else if (arg == "--spans") {
      spans = value;
    } else {
      usage();
    }
  }
  if (workload == nullptr || trace < 0 || seconds == 0) usage();
  const auto s = static_cast<double>(seconds);
  return trace == 1 ? run_traced(*workload, seed, s, spans)
                    : run_untraced(*workload, seed, s);
}
