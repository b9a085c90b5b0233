#include "metrics/message_stats.hpp"

#include <numeric>

#include "common/assert.hpp"

namespace qsel::metrics {

MessageStats::MessageStats(ProcessId n)
    : n_(n), by_link_(static_cast<std::size_t>(n) * n, 0) {}

void MessageStats::record_send(ProcessId from, ProcessId to,
                               std::string_view type, std::size_t bytes) {
  QSEL_REQUIRE(from < n_ && to < n_);
  ++total_messages_;
  total_bytes_ += bytes;
  auto it = by_type_.find(type);
  if (it == by_type_.end())
    it = by_type_.emplace(std::string(type), Count{}).first;
  ++it->second.messages;
  it->second.bytes += bytes;
  ++by_link_[static_cast<std::size_t>(from) * n_ + to];
}

const MessageStats::Count* MessageStats::find(std::string_view type) const {
  const auto it = by_type_.find(type);
  return it == by_type_.end() ? nullptr : &it->second;
}

std::uint64_t MessageStats::by_type(std::string_view type) const {
  const Count* count = find(type);
  return count == nullptr ? 0 : count->messages;
}

std::uint64_t MessageStats::bytes_by_type(std::string_view type) const {
  const Count* count = find(type);
  return count == nullptr ? 0 : count->bytes;
}

std::uint64_t MessageStats::by_link(ProcessId from, ProcessId to) const {
  QSEL_REQUIRE(from < n_ && to < n_);
  return by_link_[static_cast<std::size_t>(from) * n_ + to];
}

std::uint64_t MessageStats::by_sender(ProcessId from) const {
  QSEL_REQUIRE(from < n_);
  const auto row = by_link_.begin() + static_cast<std::ptrdiff_t>(from) * n_;
  return std::accumulate(row, row + n_, std::uint64_t{0});
}

void MessageStats::reset() { *this = MessageStats(n_); }

}  // namespace qsel::metrics
