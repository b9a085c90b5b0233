// qsel_load — deterministic closed-/open-loop load generator for the
// XPaxos SMR path (src/load/driver.hpp).
//
//   qsel_load --clients 8 --outstanding 8 --duration-ms 400 --json
//   qsel_load --substrate loopback --requests 200 --window 16 --batch 8
//
// Two substrates: `sim` (default) runs on the simulated network in
// virtual time — the report is a bit-identical function of (config,
// seed), which is what the BENCH_6 deterministic gates and the CLI
// determinism test rely on. `loopback` runs the same client logic over
// real TCP on 127.0.0.1 and reports wall-clock throughput.
//
// --json prints the single-line report JSON (fixed key order); without it
// a short human-readable summary goes to stdout. Bad arguments exit 2,
// including an --outstanding or --max-outstanding above the replicas'
// per-client reply window (smr::kReplyWindow, 256); a zero-length run
// (--duration-ms 0, no --requests) is valid and prints a clean empty
// report.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "load/driver.hpp"
#include "smr/client_messages.hpp"

namespace {

using namespace qsel;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--substrate sim|loopback] [--seed S]\n"
      "       [--clients N] [--outstanding N] [--rate PER_SEC]"
      " [--max-outstanding N]\n"
      "       [--requests PER_CLIENT] [--duration-ms MS]\n"
      "       [--window W] [--batch B] [--key-space K] [--value-bytes B]\n"
      "       [--zipf THETA] [--json]\n",
      argv0);
  std::exit(2);
}

std::uint64_t parse_u64(const char* arg, const char* argv0) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(arg, &end, 10);
  if (end == arg || *end != '\0') usage(argv0);
  return value;
}

/// A per-client in-flight window: 1..smr::kReplyWindow.
std::uint32_t parse_window(const char* arg, const char* argv0) {
  const std::uint64_t value = parse_u64(arg, argv0);
  if (value == 0 || value > smr::kReplyWindow) usage(argv0);
  return static_cast<std::uint32_t>(value);
}

double parse_double(const char* arg, const char* argv0) {
  char* end = nullptr;
  const double value = std::strtod(arg, &end);
  if (end == arg || *end != '\0' || value < 0.0) usage(argv0);
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  load::LoadConfig config;
  config.duration_ms = 200;
  bool loopback = false;
  bool json = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&] {
      if (++i >= argc) usage(argv[0]);
      return argv[i];
    };
    if (arg == "--substrate") {
      const std::string value = next();
      if (value == "loopback") {
        loopback = true;
      } else if (value == "sim") {
        loopback = false;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--seed") {
      config.seed = parse_u64(next(), argv[0]);
    } else if (arg == "--clients") {
      config.clients = static_cast<std::uint32_t>(parse_u64(next(), argv[0]));
      if (config.clients == 0) usage(argv[0]);
    } else if (arg == "--outstanding") {
      config.outstanding = parse_window(next(), argv[0]);
    } else if (arg == "--rate") {
      config.open_rate_per_sec = parse_u64(next(), argv[0]);
    } else if (arg == "--max-outstanding") {
      config.max_outstanding = parse_window(next(), argv[0]);
    } else if (arg == "--requests") {
      config.requests_per_client = parse_u64(next(), argv[0]);
    } else if (arg == "--duration-ms") {
      config.duration_ms = parse_u64(next(), argv[0]);
    } else if (arg == "--window") {
      config.pipeline_window =
          static_cast<std::size_t>(parse_u64(next(), argv[0]));
      if (config.pipeline_window == 0) usage(argv[0]);
    } else if (arg == "--batch") {
      config.max_batch = static_cast<std::size_t>(parse_u64(next(), argv[0]));
      if (config.max_batch == 0) usage(argv[0]);
    } else if (arg == "--key-space") {
      config.key_space = static_cast<std::uint32_t>(parse_u64(next(), argv[0]));
      if (config.key_space == 0) usage(argv[0]);
    } else if (arg == "--value-bytes") {
      config.value_bytes =
          static_cast<std::uint32_t>(parse_u64(next(), argv[0]));
    } else if (arg == "--zipf") {
      config.zipf_theta = parse_double(next(), argv[0]);
    } else if (arg == "--json") {
      json = true;
    } else {
      usage(argv[0]);
    }
  }

  const load::LoadReport report =
      loopback ? load::run_loopback(config) : load::run_sim(config);

  if (json) {
    std::printf("%s\n", report.to_json().c_str());
  } else {
    std::printf("substrate        %s\n", loopback ? "loopback" : "sim");
    std::printf("committed        %llu\n",
                static_cast<unsigned long long>(report.committed));
    std::printf("submitted        %llu\n",
                static_cast<unsigned long long>(report.submitted));
    std::printf("shed             %llu\n",
                static_cast<unsigned long long>(report.shed));
    std::printf("retransmissions  %llu\n",
                static_cast<unsigned long long>(report.retransmissions));
    std::printf("view changes     %llu\n",
                static_cast<unsigned long long>(report.view_changes));
    std::printf("duration         %.3f ms\n",
                static_cast<double>(report.duration_ns) / 1e6);
    std::printf("throughput       %.1f ops/sec\n",
                report.throughput_per_sec());
    std::printf("latency p50      %.3f ms\n",
                static_cast<double>(report.latency.p50()) / 1e6);
    std::printf("latency p99      %.3f ms\n",
                static_cast<double>(report.latency.p99()) / 1e6);
    std::printf("latency p999     %.3f ms\n",
                static_cast<double>(report.latency.p999()) / 1e6);
    std::printf("app digest       %s\n", report.app_digest.to_hex().c_str());
    if (!report.history_error.empty())
      std::printf("HISTORY VIOLATION %s\n", report.history_error.c_str());
  }
  return report.history_error.empty() ? 0 : 1;
}
