// ExecutedLog stores a replica's history delta-encoded: every entry must
// read back exactly, whatever the values, and a typical history must
// cost well under a plain ExecutedEntry's 56 bytes per op.
#include "smr/executed_log.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace qsel::smr {
namespace {

ExecutedEntry entry(SeqNum slot, std::uint32_t client, std::uint64_t seq,
                    Rng& rng) {
  ExecutedEntry e{slot, client, seq, {}};
  for (auto& byte : e.op_digest.bytes) byte = static_cast<std::uint8_t>(rng());
  return e;
}

void expect_reads_back(const ExecutedLog& log,
                       const std::vector<ExecutedEntry>& expect) {
  ASSERT_EQ(log.size(), expect.size());
  ASSERT_EQ(log.empty(), expect.empty());
  std::size_t i = 0;
  for (const ExecutedEntry& e : log) {
    ASSERT_LT(i, expect.size());
    EXPECT_EQ(e, expect[i]) << "entry " << i;
    ++i;
  }
  EXPECT_EQ(i, expect.size());
  if (!expect.empty()) {
    EXPECT_EQ(log.front(), expect.front());
    EXPECT_EQ(log.back(), expect.back());
  }
}

TEST(ExecutedLogTest, EveryValueReadsBackExactly) {
  // Extremes and backward steps take the long varint forms.
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  Rng rng(56);
  std::vector<ExecutedEntry> expect = {
      entry(1, 4, 1, rng),
      entry(1, 5, 1, rng),
      entry(kMax, std::numeric_limits<std::uint32_t>::max(), kMax, rng),
      entry(0, 0, 0, rng),
      entry(kMax / 2, 7, 1ULL << 63, rng),
      entry(3, 4, 2, rng),
  };
  // Then random values, and random steps in both directions.
  for (int i = 0; i < 2000; ++i)
    expect.push_back(entry(rng(), static_cast<std::uint32_t>(rng()), rng(),
                           rng));
  for (int i = 0; i < 2000; ++i) {
    const ExecutedEntry& prev = expect.back();
    expect.push_back(entry(prev.slot + rng.below(5) - 2,
                           static_cast<std::uint32_t>(rng.below(300)),
                           prev.client_seq + rng.below(1000) - 500, rng));
  }
  ExecutedLog log;
  expect_reads_back(log, {});
  for (const ExecutedEntry& e : expect) log.push_back(e);
  expect_reads_back(log, expect);

  // clear() resets the encoding base too.
  log.clear();
  expect_reads_back(log, {});
  const std::vector<ExecutedEntry> again(expect.begin() + 3,
                                         expect.begin() + 300);
  for (const ExecutedEntry& e : again) log.push_back(e);
  expect_reads_back(log, again);
}

TEST(ExecutedLogTest, ReplicaHistoryIsCompact) {
  // Eight clients, batches of up to 8 per slot, each client's seqs
  // ascending: about 36 bytes per op against 56 for plain entries.
  Rng rng(128);
  ExecutedLog log;
  std::vector<ExecutedEntry> expect;
  std::vector<std::uint64_t> next_seq(8, 1);
  SeqNum slot = 0;
  while (expect.size() < 20'000) {
    ++slot;
    const std::uint64_t batch = 1 + rng.below(8);
    for (std::uint64_t i = 0; i < batch; ++i) {
      const auto client = static_cast<std::uint32_t>(rng.below(8));
      expect.push_back(entry(slot, 4 + client, next_seq[client]++, rng));
      log.push_back(expect.back());
    }
  }
  expect_reads_back(log, expect);
  EXPECT_LE(static_cast<double>(log.bytes()) /
                static_cast<double>(log.size()),
            40.0);
}

}  // namespace
}  // namespace qsel::smr
