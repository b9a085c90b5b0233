#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "metrics/message_stats.hpp"
#include "metrics/table.hpp"

namespace qsel::metrics {
namespace {

TEST(MessageStatsTest, CountsByTypeLinkSender) {
  MessageStats stats(3);
  stats.record_send(0, 1, "a", 10);
  stats.record_send(0, 1, "a", 10);
  stats.record_send(1, 0, "b", 5);
  EXPECT_EQ(stats.total_messages(), 3u);
  EXPECT_EQ(stats.total_bytes(), 25u);
  EXPECT_EQ(stats.by_type("a"), 2u);
  EXPECT_EQ(stats.by_type("b"), 1u);
  EXPECT_EQ(stats.by_type("missing"), 0u);
  EXPECT_EQ(stats.by_link(0, 1), 2u);
  EXPECT_EQ(stats.by_link(1, 0), 1u);
  EXPECT_EQ(stats.by_link(0, 2), 0u);
  EXPECT_EQ(stats.by_sender(0), 2u);
  stats.reset();
  EXPECT_EQ(stats.total_messages(), 0u);
  EXPECT_EQ(stats.by_type("a"), 0u);
}

TEST(TableTest, AlignsColumns) {
  Table table({"id", "name"});
  table.row(1, "long-value");
  table.row(100, "x");
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| id  | name       |"), std::string::npos) << out;
  EXPECT_NE(out.find("| 1   | long-value |"), std::string::npos) << out;
  EXPECT_NE(out.find("| 100 | x          |"), std::string::npos) << out;
}

TEST(TableTest, RowArityChecked) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

}  // namespace
}  // namespace qsel::metrics
