// ClusterConfig parser tests: the happy path with comments and odd
// whitespace, group sections, and one test per rejection — each checking
// that the error names the offending line, since "fix line 7" is the
// whole point of a validating parser for a hand-edited file.
#include "net/cluster_config.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>

namespace qsel::net {
namespace {

constexpr SimDuration kMs = 1'000'000;

const char* kValid = R"(# 4-node cluster, one fault
n = 4
f = 1
auth_key = 00ff10ab        # hex key
seed = 7
heartbeat_ms = 5
fd_initial_ms = 20
fd_max_ms = 500
reconnect_base_ms = 2
reconnect_cap_ms = 100
store_dir = /tmp/qsel-state
node 0 = 10.0.0.1:47600
node 1 = 10.0.0.2:47600
node 2 = 10.0.0.3:47601
node 3 = 127.0.0.1:47602
)";

TEST(ClusterConfigTest, ParsesCommentsKeysAndNodeLines) {
  const ClusterConfig config = ClusterConfig::parse(kValid);
  EXPECT_EQ(config.n, 4u);
  EXPECT_EQ(config.f, 1);
  EXPECT_EQ(config.auth_key,
            (std::vector<std::uint8_t>{0x00, 0xff, 0x10, 0xab}));
  EXPECT_EQ(config.seed, 7u);
  EXPECT_EQ(config.heartbeat_period, 5 * kMs);
  EXPECT_EQ(config.fd_initial_timeout, 20 * kMs);
  EXPECT_EQ(config.fd_max_timeout, 500 * kMs);
  EXPECT_EQ(config.reconnect_base, 2 * kMs);
  EXPECT_EQ(config.reconnect_cap, 100 * kMs);
  EXPECT_EQ(config.store_dir, "/tmp/qsel-state");
  ASSERT_EQ(config.nodes.size(), 4u);
  EXPECT_EQ(config.nodes[0], (NodeAddress{"10.0.0.1", 47600}));
  EXPECT_EQ(config.nodes[3], (NodeAddress{"127.0.0.1", 47602}));
}

TEST(ClusterConfigTest, LoadReadsAFileAndRejectsAMissingOne) {
  const std::string path = testing::TempDir() + "qsel_cluster_config.txt";
  std::ofstream(path) << kValid;
  EXPECT_EQ(ClusterConfig::load(path), ClusterConfig::parse(kValid));
  EXPECT_THROW(ClusterConfig::load(path + ".nope"), std::runtime_error);
}

const char* kSharded = R"(n = 8
f = 1
seed = 3
node 0 = 127.0.0.1:48000
node 1 = 127.0.0.1:48001
node 2 = 127.0.0.1:48002
node 3 = 127.0.0.1:48003
node 4 = 127.0.0.1:48004
node 5 = 127.0.0.1:48005
node 6 = 127.0.0.1:48006
node 7 = 127.0.0.1:48007

[group 0]
kind = config
members = 0,1,2,3
clients = 6,7
store_subdir = cfg

[group 1]
members = 0,1,2,3   # same machines as the config group
clients = 6
range = ..m

[group 2]
f = 1
members = 4,5,6,7
range = m..
)";

TEST(ClusterConfigGroupTest, ParsesGroupSections) {
  const ClusterConfig config = ClusterConfig::parse(kSharded);
  ASSERT_EQ(config.groups.size(), 3u);

  const GroupConfig* cfg = config.config_group();
  ASSERT_NE(cfg, nullptr);
  EXPECT_EQ(cfg->id, 0u);
  EXPECT_TRUE(cfg->is_config);
  EXPECT_EQ(cfg->members, (std::vector<ProcessId>{0, 1, 2, 3}));
  EXPECT_EQ(cfg->clients, (std::vector<ProcessId>{6, 7}));
  EXPECT_EQ(cfg->store_subdir, "cfg");
  EXPECT_TRUE(cfg->ranges.empty());

  const GroupConfig* low = config.group(1);
  ASSERT_NE(low, nullptr);
  EXPECT_FALSE(low->is_config);
  ASSERT_EQ(low->ranges.size(), 1u);
  EXPECT_EQ(low->ranges[0], (GroupRange{"", "m"}));

  const GroupConfig* high = config.group(2);
  ASSERT_NE(high, nullptr);
  EXPECT_EQ(high->f, 1);
  EXPECT_EQ(high->members, (std::vector<ProcessId>{4, 5, 6, 7}));
  ASSERT_EQ(high->ranges.size(), 1u);
  EXPECT_EQ(high->ranges[0], (GroupRange{"m", ""}));

  EXPECT_EQ(config.group(9), nullptr);
}

TEST(ClusterConfigGroupTest, SingleGroupFilesStayValid) {
  const ClusterConfig config = ClusterConfig::parse(kValid);
  EXPECT_TRUE(config.groups.empty());
  EXPECT_EQ(config.config_group(), nullptr);
}

// Rejection helper: parse must throw, and the message must carry the
// expected line number plus a recognizable fragment.
void expect_rejects(const std::string& text, const std::string& line_tag,
                    const std::string& fragment) {
  try {
    ClusterConfig::parse(text);
    FAIL() << "accepted invalid config (wanted: " << fragment << ")";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(line_tag), std::string::npos) << what;
    EXPECT_NE(what.find(fragment), std::string::npos) << what;
  }
}

TEST(ClusterConfigRejectTest, MissingNOrF) {
  expect_rejects("f = 1\n", "line 1", "missing n");
  expect_rejects("n = 4\nnode 0 = a:1\nnode 1 = a:1\nnode 2 = a:1\n"
                 "node 3 = a:1\n",
                 "line 5", "missing f");
}

TEST(ClusterConfigRejectTest, QuorumArithmetic) {
  expect_rejects("n = 4\nf = 0\n", "line 2", "f must be >= 1");
  // n = 4 cannot tolerate f = 2: needs n >= 3f + 1 = 7.
  expect_rejects("n = 4\nf = 2\nnode 0 = a:1\nnode 1 = a:1\nnode 2 = a:1\n"
                 "node 3 = a:1\n",
                 "line 6", "n must be >= 3f + 1");
}

TEST(ClusterConfigRejectTest, NodeLines) {
  expect_rejects("node 0 = a:1\nn = 4\nf = 1\n", "line 1",
                 "node lines must come after n");
  expect_rejects("n = 4\nf = 1\nnode 4 = a:1\n", "line 3",
                 "node id out of range");
  expect_rejects("n = 4\nf = 1\nnode 0 = a:1\nnode 0 = a:2\n", "line 4",
                 "duplicate node id");
  expect_rejects("n = 4\nf = 1\nnode 0 = a:1\n", "line 3", "missing node 1");
  expect_rejects("n = 4\nf = 1\nnode 0 = nocolon\n", "line 3",
                 "host:port");
  expect_rejects("n = 4\nf = 1\nnode 0 = a:0\n", "line 3",
                 "port out of range");
  expect_rejects("n = 4\nf = 1\nnode 0 = a:70000\n", "line 3",
                 "port out of range");
}

TEST(ClusterConfigRejectTest, MalformedValues) {
  expect_rejects("n = four\n", "line 1", "not a number");
  expect_rejects("n = 4\nf = 1\nwhat is this\n", "line 3",
                 "expected key = value");
  expect_rejects("n = 4\nf = 1\ncolour = blue\n", "line 3", "unknown key");
  expect_rejects("n = 4\nf = 1\nround_ms = 20\n", "line 3", "unknown key");
  expect_rejects("n = 4\nf = 1\nauth_key = abc\n", "line 3",
                 "odd-length hex");
  expect_rejects("n = 4\nf = 1\nauth_key = zz\n", "line 3", "invalid hex");
  expect_rejects("n = 9999\n", "line 1", "n out of range");
}

TEST(ClusterConfigRejectTest, TimingConstraints) {
  const std::string nodes =
      "node 0 = a:1\nnode 1 = a:1\nnode 2 = a:1\nnode 3 = a:1\n";
  expect_rejects("n = 4\nf = 1\nheartbeat_ms = 0\n" + nodes, "line 7",
                 "heartbeat_ms must be > 0");
  expect_rejects("n = 4\nf = 1\nfd_initial_ms = 100\nfd_max_ms = 50\n" +
                     nodes,
                 "line 8", "fd timeouts");
  expect_rejects("n = 4\nf = 1\nreconnect_base_ms = 100\n"
                 "reconnect_cap_ms = 50\n" +
                     nodes,
                 "line 8", "reconnect backoff");
}

TEST(ClusterConfigRejectTest, GroupSections) {
  const std::string base =
      "n = 4\nf = 1\nnode 0 = a:1\nnode 1 = a:1\nnode 2 = a:1\n"
      "node 3 = a:1\n";  // 6 lines
  expect_rejects(base + "[group 0\n", "line 7", "unterminated section");
  expect_rejects(base + "[shard 0]\n", "line 7", "unknown section");
  expect_rejects(base + "[group 0]\n[group 0]\n", "line 8",
                 "duplicate group id");
  expect_rejects(base + "[group 0]\ncolour = blue\n", "line 8",
                 "unknown group key");
  expect_rejects(base + "[group 0]\nrange = no-separator\n", "line 8",
                 "range must be lo..hi");
  expect_rejects(base + "[group 0]\nrange = m..a\n", "line 8",
                 "hi must be empty or greater");
  expect_rejects(base + "[group 0]\nmembers = 0,,2\n", "line 8",
                 "empty id in list");
  const std::string cfg =
      "[group 0]\nkind = config\nmembers = 0,1,2,3\n";
  // Group validation failures are reported against the end of the file.
  expect_rejects(base + cfg + "[group 1]\nmembers = 0,1,2,4\n", "",
                 "id out of range");
  expect_rejects(base + cfg + "[group 1]\nmembers = 0,1,2,2\n", "",
                 "must be distinct");
  expect_rejects(base + cfg + "[group 1]\nmembers = 0,1,2,3\nclients = 3\n",
                 "", "must be distinct");
  expect_rejects(base + cfg + "[group 1]\nmembers = 0,1,2\n", "",
                 "members must be >= 3f + 1");
  expect_rejects(base + cfg + "[group 1]\n", "", "missing members");
  expect_rejects(base + "[group 1]\nmembers = 0,1,2,3\n", "",
                 "exactly one kind = config");
  expect_rejects(base + cfg + "range = a..b\n", "",
                 "config group cannot serve ranges");
  expect_rejects(base + cfg +
                     "[group 1]\nmembers = 0,1,2,3\nrange = a..m\n"
                     "[group 2]\nmembers = 0,1,2,3\nrange = g..z\n",
                 "", "ranges overlap");
  expect_rejects(base + cfg +
                     "[group 1]\nmembers = 0,1,2,3\nrange = a..\n"
                     "[group 2]\nmembers = 0,1,2,3\nrange = g..z\n",
                 "", "ranges overlap");
}

}  // namespace
}  // namespace qsel::net
