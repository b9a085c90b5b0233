#include "rig/probe.hpp"

#include <time.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "xpaxos/messages.hpp"

namespace perfbench {

using namespace qsel;

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kRound: return "round";
    case SpanName::kXpaxosUpcall: return "xpaxos.upcall";
    case SpanName::kLoadUpcall: return "load.upcall";
    case SpanName::kLoadSubmit: return "load.submit";
    case SpanName::kNetSend: return "net.send";
  }
  return "?";
}

void Probe::reset() {
  if (!stack_.empty()) throw std::logic_error("probe reset with open spans");
  log_.clear();
  next_id_ = 0;
  totals_ = Totals{};
  counts_ = MessageCounts{};
  last_signed_.reset();
}

std::uint32_t Probe::open(SpanName name) {
  const std::uint32_t id = next_id_++;
  const std::uint32_t parent = stack_.empty() ? kNoParent : stack_.back().id;
  const std::uint64_t now = wall_ns();
  if (log_.size() < kMaxLoggedSpans)
    log_.push_back(Span{now, 0, parent, name});
  stack_.push_back(Open{id, name, now, 0});
  return id;
}

void Probe::close(std::uint32_t id) {
  const std::uint64_t now = wall_ns();
  const Open span = stack_.back();
  stack_.pop_back();
  if (span.id != id) throw std::logic_error("probe spans closed out of order");
  const std::uint64_t duration = now - span.start_ns;
  const auto n = static_cast<std::size_t>(span.name);
  ++totals_.count[n];
  totals_.total_ns[n] += duration;
  totals_.self_ns[n] += duration - span.child_ns;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
    if (stack_.back().name == SpanName::kRound)
      totals_.under_round_ns[n] += duration;
  }
  if (id < log_.size()) log_[id].end_ns = now;
}

void Probe::count_send(const sim::PayloadPtr& message, std::size_t copies) {
  const std::string_view tag = message->type_tag();
  if (tag == "smr.request") {
    counts_.request += copies;
  } else if (tag == "smr.reply") {
    counts_.reply += copies;
  } else if (tag == "xpaxos.prepare" || tag == "xpaxos.commit") {
    const bool prepare = tag == "xpaxos.prepare";
    (prepare ? counts_.prepare : counts_.commit) += copies;
    if (message == last_signed_) return;
    last_signed_ = message;
    counts_.signed_sizes.push_back(
        static_cast<std::uint32_t>(message->wire_size()));
    if (prepare) {
      ++counts_.proposals;
      counts_.proposal_entries +=
          static_cast<const xpaxos::PrepareMessage&>(*message).requests.size();
    }
  } else if (tag == "xpaxos.viewchange") {
    counts_.viewchange += copies;
    counts_.viewchange_bytes += copies * message->wire_size();
  }
}

bool Probe::write(const std::string& path) const {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> out(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!out) return false;
  std::fprintf(out.get(), "index,name,start_ns,end_ns,parent\n");
  for (std::size_t i = 0; i < log_.size(); ++i) {
    const Span& s = log_[i];
    std::fprintf(out.get(), "%zu,%s,%llu,%llu,%lld\n", i, span_name(s.name),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent));
  }
  return std::ferror(out.get()) == 0;
}

void TimedTransport::set_handler(Handler handler) {
  if (!handler) {
    inner_.set_handler(nullptr);
    return;
  }
  inner_.set_handler(
      [this, handler = std::move(handler)](ProcessId from,
                                           const sim::PayloadPtr& message) {
        const std::uint32_t span = probe_.open(upcall_);
        handler(from, message);
        probe_.close(span);
      });
}

void TimedTransport::send(ProcessId to, sim::PayloadPtr message) {
  if (to != self()) probe_.count_send(message, 1);
  const std::uint32_t span = probe_.open(SpanName::kNetSend);
  inner_.send(to, std::move(message));
  probe_.close(span);
}

void TimedTransport::broadcast(ProcessSet targets,
                               const sim::PayloadPtr& message) {
  const int remote = targets.size() - (targets.contains(self()) ? 1 : 0);
  probe_.count_send(message, static_cast<std::size_t>(remote));
  const std::uint32_t span = probe_.open(SpanName::kNetSend);
  inner_.broadcast(std::move(targets), message);
  probe_.close(span);
}

}  // namespace perfbench
