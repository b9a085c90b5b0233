#include "net/cluster_config.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace qsel::net {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return s;
}

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::runtime_error("cluster config line " + std::to_string(line) +
                           ": " + what);
}

std::uint64_t parse_u64(std::string_view value, int line,
                        const std::string& key) {
  if (value.empty()) fail(line, key + ": empty value");
  std::uint64_t out = 0;
  for (char c : value) {
    if (c < '0' || c > '9') fail(line, key + ": not a number: '" +
                                           std::string(value) + "'");
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (out > (~std::uint64_t{0} - digit) / 10)
      fail(line, key + ": number overflows");
    out = out * 10 + digit;
  }
  return out;
}

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::vector<std::uint8_t> parse_hex(std::string_view value, int line) {
  if (value.size() % 2 != 0) fail(line, "auth_key: odd-length hex");
  std::vector<std::uint8_t> out;
  out.reserve(value.size() / 2);
  for (std::size_t i = 0; i < value.size(); i += 2) {
    const int hi = hex_nibble(value[i]);
    const int lo = hex_nibble(value[i + 1]);
    if (hi < 0 || lo < 0) fail(line, "auth_key: invalid hex");
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

std::vector<ProcessId> parse_id_list(std::string_view value, int line,
                                     const std::string& key) {
  std::vector<ProcessId> out;
  while (!value.empty()) {
    const std::size_t comma = value.find(',');
    const std::string_view item = trim(value.substr(0, comma));
    if (item.empty()) fail(line, key + ": empty id in list");
    const std::uint64_t id = parse_u64(item, line, key);
    if (id >= kMaxProcesses)
      fail(line, key + ": id out of range (max " +
                     std::to_string(kMaxProcesses - 1) + ")");
    out.push_back(static_cast<ProcessId>(id));
    if (comma == std::string_view::npos) break;
    value = value.substr(comma + 1);
  }
  if (out.empty()) fail(line, key + ": empty list");
  return out;
}

GroupRange parse_range(std::string_view value, int line) {
  const std::size_t sep = value.find("..");
  if (sep == std::string_view::npos)
    fail(line, "range must be lo..hi (either side may be empty)");
  GroupRange range;
  range.lo = std::string(trim(value.substr(0, sep)));
  range.hi = std::string(trim(value.substr(sep + 2)));
  if (!range.hi.empty() && range.hi <= range.lo)
    fail(line, "range: hi must be empty or greater than lo");
  return range;
}

NodeAddress parse_address(std::string_view value, int line) {
  const std::size_t colon = value.rfind(':');
  if (colon == std::string_view::npos || colon == 0)
    fail(line, "node address must be host:port");
  NodeAddress addr;
  addr.host = std::string(trim(value.substr(0, colon)));
  const std::uint64_t port =
      parse_u64(trim(value.substr(colon + 1)), line, "port");
  if (port == 0 || port > 65535) fail(line, "port out of range");
  addr.port = static_cast<std::uint16_t>(port);
  return addr;
}

}  // namespace

ClusterConfig ClusterConfig::parse(std::string_view text) {
  ClusterConfig config;
  bool saw_n = false;
  bool saw_f = false;
  bool in_group = false;
  std::vector<bool> node_seen;

  std::istringstream in{std::string(text)};
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string_view line(raw);
    // Strip trailing comments, then whitespace.
    if (const auto hash = line.find('#'); hash != std::string_view::npos)
      line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') fail(line_no, "unterminated section header");
      const std::string_view header = trim(line.substr(1, line.size() - 2));
      if (!header.starts_with("group"))
        fail(line_no, "unknown section '" + std::string(header) + "'");
      const std::uint64_t id =
          parse_u64(trim(header.substr(5)), line_no, "group id");
      for (const GroupConfig& g : config.groups)
        if (g.id == id) fail(line_no, "duplicate group id");
      GroupConfig group;
      group.id = static_cast<std::uint32_t>(id);
      config.groups.push_back(std::move(group));
      in_group = true;
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) fail(line_no, "expected key = value");
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));

    if (in_group) {
      GroupConfig& group = config.groups.back();
      if (key == "kind") {
        if (value == "config")
          group.is_config = true;
        else if (value != "data")
          fail(line_no, "kind must be 'config' or 'data'");
      } else if (key == "f") {
        group.f = static_cast<int>(parse_u64(value, line_no, "group f"));
        if (group.f < 1) fail(line_no, "group f must be >= 1");
      } else if (key == "members") {
        group.members = parse_id_list(value, line_no, "members");
      } else if (key == "clients") {
        group.clients = parse_id_list(value, line_no, "clients");
      } else if (key == "range") {
        group.ranges.push_back(parse_range(value, line_no));
      } else if (key == "store_subdir") {
        group.store_subdir = std::string(value);
      } else {
        fail(line_no, "unknown group key '" + std::string(key) + "'");
      }
      continue;
    }

    if (key.starts_with("node")) {
      const std::uint64_t id =
          parse_u64(trim(key.substr(4)), line_no, "node id");
      if (!saw_n) fail(line_no, "node lines must come after n");
      if (id >= config.n) fail(line_no, "node id out of range");
      if (node_seen[id]) fail(line_no, "duplicate node id");
      node_seen[id] = true;
      config.nodes[id] = parse_address(value, line_no);
      continue;
    }

    if (key == "n") {
      const std::uint64_t n = parse_u64(value, line_no, "n");
      if (n < 1 || n > kMaxProcesses)
        fail(line_no, "n out of range (1.." +
                          std::to_string(kMaxProcesses) + ")");
      config.n = static_cast<ProcessId>(n);
      config.nodes.assign(config.n, {});
      node_seen.assign(config.n, false);
      saw_n = true;
    } else if (key == "f") {
      config.f = static_cast<int>(parse_u64(value, line_no, "f"));
      saw_f = true;
    } else if (key == "auth_key") {
      config.auth_key = parse_hex(value, line_no);
    } else if (key == "seed") {
      config.seed = parse_u64(value, line_no, "seed");
    } else if (key == "store_dir") {
      config.store_dir = std::string(value);
    } else if (key == "heartbeat_ms") {
      config.heartbeat_period =
          parse_u64(value, line_no, "heartbeat_ms") * 1'000'000;
    } else if (key == "fd_initial_ms") {
      config.fd_initial_timeout =
          parse_u64(value, line_no, "fd_initial_ms") * 1'000'000;
    } else if (key == "fd_max_ms") {
      config.fd_max_timeout =
          parse_u64(value, line_no, "fd_max_ms") * 1'000'000;
    } else if (key == "reconnect_base_ms") {
      config.reconnect_base =
          parse_u64(value, line_no, "reconnect_base_ms") * 1'000'000;
    } else if (key == "reconnect_cap_ms") {
      config.reconnect_cap =
          parse_u64(value, line_no, "reconnect_cap_ms") * 1'000'000;
    } else {
      fail(line_no, "unknown key '" + std::string(key) + "'");
    }
  }

  if (!saw_n) fail(line_no, "missing n");
  if (!saw_f) fail(line_no, "missing f");
  if (config.f < 1) fail(line_no, "f must be >= 1");
  if (config.n < static_cast<ProcessId>(3 * config.f + 1))
    fail(line_no, "n must be >= 3f + 1");
  for (ProcessId id = 0; id < config.n; ++id)
    if (!node_seen[id])
      fail(line_no, "missing node " + std::to_string(id));
  if (config.heartbeat_period == 0) fail(line_no, "heartbeat_ms must be > 0");
  if (config.fd_initial_timeout == 0 ||
      config.fd_max_timeout < config.fd_initial_timeout)
    fail(line_no, "fd timeouts must satisfy 0 < initial <= max");
  if (config.reconnect_base == 0 ||
      config.reconnect_cap < config.reconnect_base)
    fail(line_no, "reconnect backoff must satisfy 0 < base <= cap");

  if (!config.groups.empty()) {
    std::sort(config.groups.begin(), config.groups.end(),
              [](const GroupConfig& a, const GroupConfig& b) {
                return a.id < b.id;
              });
    int config_groups = 0;
    std::vector<std::pair<GroupRange, std::uint32_t>> all_ranges;
    for (const GroupConfig& group : config.groups) {
      const std::string where = "group " + std::to_string(group.id);
      if (group.members.empty()) fail(line_no, where + ": missing members");
      std::vector<ProcessId> ids = group.members;
      ids.insert(ids.end(), group.clients.begin(), group.clients.end());
      std::sort(ids.begin(), ids.end());
      if (std::adjacent_find(ids.begin(), ids.end()) != ids.end())
        fail(line_no, where + ": members/clients must be distinct");
      for (ProcessId id : ids)
        if (id >= config.n) fail(line_no, where + ": id out of range");
      const int eff_f = group.f > 0 ? group.f : config.f;
      if (group.members.size() < static_cast<std::size_t>(3 * eff_f + 1))
        fail(line_no, where + ": members must be >= 3f + 1");
      if (group.is_config) {
        ++config_groups;
        if (!group.ranges.empty())
          fail(line_no, where + ": config group cannot serve ranges");
      }
      for (const GroupRange& range : group.ranges)
        all_ranges.emplace_back(range, group.id);
    }
    if (config_groups != 1)
      fail(line_no, "sharded config needs exactly one kind = config group");
    std::sort(all_ranges.begin(), all_ranges.end(),
              [](const auto& a, const auto& b) {
                return a.first.lo < b.first.lo;
              });
    for (std::size_t i = 1; i < all_ranges.size(); ++i) {
      const GroupRange& prev = all_ranges[i - 1].first;
      const GroupRange& next = all_ranges[i].first;
      if (prev.hi.empty() || next.lo < prev.hi)
        fail(line_no, "group ranges overlap at '" + next.lo + "'");
    }
  }
  return config;
}

const GroupConfig* ClusterConfig::group(std::uint32_t id) const {
  for (const GroupConfig& g : groups)
    if (g.id == id) return &g;
  return nullptr;
}

const GroupConfig* ClusterConfig::config_group() const {
  for (const GroupConfig& g : groups)
    if (g.is_config) return &g;
  return nullptr;
}

ClusterConfig ClusterConfig::load(const std::string& path) {
  std::ifstream file(path);
  if (!file)
    throw std::runtime_error("cluster config: cannot open " + path);
  std::ostringstream text;
  text << file.rdbuf();
  return parse(text.str());
}

}  // namespace qsel::net
