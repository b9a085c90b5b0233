#include "scenario/schedule.hpp"

#include <array>
#include <cctype>
#include <set>
#include <sstream>
#include <utility>

namespace qsel::scenario {

namespace {

struct KindName {
  FaultKind kind;
  std::string_view name;
};

constexpr KindName kKindNames[] = {
    {FaultKind::kCrash, "crash"},
    {FaultKind::kLinkDown, "link_down"},
    {FaultKind::kLinkUp, "link_up"},
    {FaultKind::kLinkDelay, "link_delay"},
    {FaultKind::kPartition, "partition"},
    {FaultKind::kHeal, "heal"},
    {FaultKind::kInjectSuspicion, "inject_suspicion"},
    {FaultKind::kRestart, "restart"},
};

// Flat-field JSON extraction, same discipline as trace/jsonl.cpp: keys are
// fixed identifiers, values are unsigned integers or short quoted names.
std::size_t value_offset(std::string_view text, std::string_view key) {
  std::string needle = "\"";
  needle.append(key).append("\":");
  const std::size_t at = text.find(needle);
  if (at == std::string_view::npos) return std::string_view::npos;
  std::size_t offset = at + needle.size();
  while (offset < text.size() &&
         std::isspace(static_cast<unsigned char>(text[offset])))
    ++offset;
  return offset;
}

std::optional<std::uint64_t> parse_u64_field(std::string_view text,
                                             std::string_view key) {
  std::size_t at = value_offset(text, key);
  if (at == std::string_view::npos) return std::nullopt;
  std::uint64_t value = 0;
  bool any = false;
  while (at < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[at]))) {
    value = value * 10 + static_cast<std::uint64_t>(text[at] - '0');
    ++at;
    any = true;
  }
  if (!any) return std::nullopt;
  return value;
}

std::optional<std::string> parse_str_field(std::string_view text,
                                           std::string_view key) {
  std::size_t at = value_offset(text, key);
  if (at == std::string_view::npos || at >= text.size() || text[at] != '"')
    return std::nullopt;
  ++at;
  const std::size_t end = text.find('"', at);
  if (end == std::string_view::npos) return std::nullopt;
  return std::string(text.substr(at, end - at));
}

// Compact lowercase hex of the multi-word bitset value, e.g. "0x1a003...".
std::string set_hex(ProcessSet s) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::size_t top = ProcessSet::kWords - 1;
  while (top > 0 && s.word(top) == 0) --top;
  std::string out = "0x";
  bool leading = true;
  for (std::size_t w = top + 1; w-- > 0;) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      const int nibble = static_cast<int>((s.word(w) >> shift) & 0xf);
      if (leading && nibble == 0 && !(w == 0 && shift == 0)) continue;
      leading = false;
      out.push_back(kDigits[nibble]);
    }
    leading = false;  // lower words print full-width
  }
  return out;
}

std::optional<ProcessSet> set_from_hex(std::string_view text) {
  if (text.starts_with("0x") || text.starts_with("0X"))
    text.remove_prefix(2);
  if (text.empty() || text.size() > ProcessSet::kWords * 16)
    return std::nullopt;
  std::array<std::uint64_t, ProcessSet::kWords> words{};
  std::size_t nibbles = 0;
  for (std::size_t i = text.size(); i-- > 0; ++nibbles) {
    const char c = text[i];
    int v = -1;
    if (c >= '0' && c <= '9') v = c - '0';
    else if (c >= 'a' && c <= 'f') v = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') v = c - 'A' + 10;
    if (v < 0) return std::nullopt;
    words[nibbles / 16] |= static_cast<std::uint64_t>(v)
                           << (4 * (nibbles % 16));
  }
  return ProcessSet::from_words(words);
}

std::optional<FaultAction> parse_action(std::string_view chunk) {
  const auto at = parse_u64_field(chunk, "at");
  const auto kind_name = parse_str_field(chunk, "kind");
  if (!at || !kind_name) return std::nullopt;
  const auto kind = fault_kind_from_name(*kind_name);
  if (!kind) return std::nullopt;
  FaultAction action;
  action.at = *at;
  action.kind = *kind;
  if (const auto a = parse_u64_field(chunk, "a"))
    action.a = static_cast<ProcessId>(*a);
  if (const auto b = parse_u64_field(chunk, "b"))
    action.b = static_cast<ProcessId>(*b);
  action.value = parse_u64_field(chunk, "value").value_or(0);
  if (action.kind == FaultKind::kPartition) {
    // Canonical form keeps the side in `side` and value at 0. Legacy
    // reproducers carry the side as a "value" bitmask; wide sides use the
    // hex "side" field.
    if (const auto side = parse_str_field(chunk, "side")) {
      const auto parsed = set_from_hex(*side);
      if (!parsed) return std::nullopt;
      action.side = *parsed;
    } else {
      action.side = ProcessSet(action.value);
    }
    action.value = 0;
  }
  return action;
}

}  // namespace

std::string_view protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kQuorumSelection:
      return "qs";
    case Protocol::kFollowerSelection:
      return "fs";
    case Protocol::kXPaxos:
      return "xpaxos";
    case Protocol::kBChain:
      return "bchain";
    case Protocol::kPbft:
      return "pbft";
  }
  return "?";
}

std::optional<Protocol> protocol_from_name(std::string_view name) {
  if (name == "qs") return Protocol::kQuorumSelection;
  if (name == "fs") return Protocol::kFollowerSelection;
  if (name == "xpaxos") return Protocol::kXPaxos;
  if (name == "bchain") return Protocol::kBChain;
  if (name == "pbft") return Protocol::kPbft;
  return std::nullopt;
}

bool protocol_is_smr(Protocol p) {
  return p == Protocol::kXPaxos || p == Protocol::kBChain ||
         p == Protocol::kPbft;
}

std::string_view fault_kind_name(FaultKind kind) {
  for (const auto& [k, name] : kKindNames)
    if (k == kind) return name;
  return "?";
}

std::optional<FaultKind> fault_kind_from_name(std::string_view name) {
  for (const auto& [kind, kind_name] : kKindNames)
    if (kind_name == name) return kind;
  return std::nullopt;
}

std::string FaultAction::to_string() const {
  std::ostringstream os;
  os << "[" << static_cast<double>(at) / 1e6 << "ms] " << fault_kind_name(kind);
  switch (kind) {
    case FaultKind::kCrash:
      os << " p" << a;
      break;
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
      os << " p" << a << "->p" << b;
      break;
    case FaultKind::kLinkDelay:
      os << " p" << a << "->p" << b << " +"
         << static_cast<double>(value) / 1e6 << "ms";
      break;
    case FaultKind::kPartition:
      os << " sideA=" << side.to_string();
      break;
    case FaultKind::kHeal:
      break;
    case FaultKind::kInjectSuspicion:
      os << " p" << a << " suspects p" << b;
      break;
    case FaultKind::kRestart:
      os << " p" << a;
      break;
  }
  return os.str();
}

ProcessSet Schedule::culprits() const {
  ProcessSet set = byzantine;
  for (const FaultAction& action : actions) {
    switch (action.kind) {
      case FaultKind::kCrash:
      case FaultKind::kLinkDown:
      case FaultKind::kLinkDelay:
        set.insert(action.a);
        break;
      default:
        break;
    }
  }
  return set;
}

bool Schedule::has_partition() const {
  for (const FaultAction& action : actions)
    if (action.kind == FaultKind::kPartition) return true;
  return false;
}

bool Schedule::attributable() const {
  return !has_partition() && pre_gst_extra == 0 &&
         culprits().size() <= f;
}

std::optional<std::string> Schedule::validate() const {
  const auto err = [](const std::string& what) {
    return std::optional<std::string>(what);
  };
  if (n < 2 || n > kMaxProcesses)
    return err("n out of range (2.." + std::to_string(kMaxProcesses) + ")");
  if (f < 1) return err("f must be >= 1");
  if (static_cast<int>(n) - f <= f) return err("need n - f > f");
  if (protocol == Protocol::kFollowerSelection && static_cast<int>(n) <= 3 * f)
    return err("follower selection needs n > 3f");
  if ((protocol == Protocol::kBChain || protocol == Protocol::kPbft) &&
      static_cast<int>(n) < 3 * f + 1)
    return err("bchain/pbft need n >= 3f + 1");
  if (!byzantine.is_subset_of(ProcessSet::full(n)))
    return err("byzantine id out of range");
  if (byzantine.size() > f) return err("more than f byzantine processes");
  if (protocol_is_smr(protocol) && !byzantine.empty())
    return err("smr schedules drive no byzantine adversary");
  if (protocol_is_smr(protocol) && requests == 0)
    return err("smr schedules need requests >= 1");
  if (quiet_window == 0) return err("empty quiet window");
  if (mux_clients != 0 && protocol != Protocol::kQuorumSelection)
    return err("mux_clients needs a quorum-selection schedule");
  if (static_cast<int>(n) + static_cast<int>(mux_clients) >
      static_cast<int>(kMaxProcesses))
    return err("n + mux_clients out of range");
  if (min_final_epoch != 0 && protocol != Protocol::kQuorumSelection &&
      protocol != Protocol::kFollowerSelection)
    return err("min_final_epoch needs a selection schedule");
  // The synchronous family claims the network is synchronous from the
  // start; a pre-GST asynchronous period contradicts that claim.
  if (synchronous && (gst != 0 || pre_gst_extra != 0))
    return err("synchronous schedule cannot have a pre-GST period");

  SimTime prev = 0;
  bool partition_open = false;
  std::set<std::pair<ProcessId, ProcessId>> links_down;
  ProcessSet down;  // crashed and not (yet) restarted
  for (std::size_t i = 0; i < actions.size(); ++i) {
    const FaultAction& action = actions[i];
    const std::string where = "action " + std::to_string(i) + ": ";
    if (action.at < prev) return err(where + "actions not time-ordered");
    prev = action.at;
    if (action.at >= quiet_start)
      return err(where + "action after quiet_start");
    switch (action.kind) {
      case FaultKind::kCrash:
        if (action.a >= n) return err(where + "crash victim out of range");
        if (down.contains(action.a))
          return err(where + "victim already crashed");
        down.insert(action.a);
        break;
      case FaultKind::kRestart:
        // Crash-recovery is only modelled for the durable NodeProcess
        // stack; the other clusters have no recovery path to exercise.
        if (protocol != Protocol::kQuorumSelection)
          return err(where + "restart needs a quorum-selection schedule");
        // The mux-wrapped cluster models no recovery path (one durable
        // stack per substrate is enough; the wedge surface is framing).
        if (mux_clients != 0)
          return err(where + "restart not modelled behind a group mux");
        if (action.a >= n) return err(where + "restart victim out of range");
        // Byzantine processes are never instantiated (the adversary
        // speaks for them at the network layer), so there is no process
        // to rebuild — QuorumCluster::restart() would abort.
        if (byzantine.contains(action.a))
          return err(where + "restart victim is byzantine");
        if (!down.contains(action.a))
          return err(where + "restart without a prior crash");
        down.erase(action.a);
        break;
      case FaultKind::kLinkDown:
      case FaultKind::kLinkUp:
      case FaultKind::kLinkDelay:
        if (action.a >= n || action.b >= n || action.a == action.b)
          return err(where + "bad link endpoints");
        if (action.kind == FaultKind::kLinkDown)
          links_down.insert({action.a, action.b});
        else if (action.kind == FaultKind::kLinkUp)
          links_down.erase({action.a, action.b});
        break;
      case FaultKind::kPartition: {
        const ProcessSet& side = action.side;
        if (side.empty() || !side.is_subset_of(ProcessSet::full(n)) ||
            side == ProcessSet::full(n))
          return err(where + "partition side not a proper nonempty subset");
        if (action.value != 0)
          return err(where + "partition value must be 0 (side carries it)");
        partition_open = true;
        break;
      }
      case FaultKind::kHeal:
        partition_open = false;
        break;
      case FaultKind::kInjectSuspicion:
        if (!byzantine.contains(action.a))
          return err(where + "suspicion author not byzantine");
        if (action.b >= n || action.b == action.a)
          return err(where + "bad suspicion victim");
        break;
    }
  }
  if (partition_open) return err("partition never healed");
  // Messages lost inside a partition are legitimately never re-sent by
  // forward-on-change gossip alone; post-heal repair runs through the
  // anti-entropy resync, which is driven by heartbeat ticks. A partitioned
  // schedule with heartbeats disabled therefore is not owed CRDT
  // convergence (or any eventual property) — reject it here so the
  // convergence oracle can stay unconditional.
  if (has_partition() && heartbeat_period == 0)
    return err("partitioned schedule needs a heartbeat period");
  // Same model boundary as the partition rule: a link between two
  // processes that stays dead through the quiet window means GST never
  // arrives for that pair (one CORRECT endpoint would falsely suspect a
  // live process forever), so the eventual properties are not owed.
  if (!links_down.empty()) return err("link never restored");
  if (culprits().size() > f)
    return err("faults attributed to more than f processes");
  return std::nullopt;
}

std::string Schedule::summary() const {
  std::ostringstream os;
  os << protocol_name(protocol) << " n=" << n << " f=" << f
     << " seed=" << seed << " actions=" << actions.size();
  if (!byzantine.empty()) os << " byz=" << byzantine.to_string();
  if (has_partition()) os << " partition";
  if (pre_gst_extra > 0)
    os << " gst=" << static_cast<double>(gst) / 1e6 << "ms";
  if (mux_clients > 0) os << " mux+" << static_cast<int>(mux_clients);
  if (min_final_epoch > 0) os << " min_epoch=" << min_final_epoch;
  if (synchronous) os << " sync";
  return os.str();
}

std::string Schedule::to_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"protocol\": \"" << protocol_name(protocol) << "\",\n";
  os << "  \"n\": " << n << ",\n";
  os << "  \"f\": " << f << ",\n";
  os << "  \"seed\": " << seed << ",\n";
  os << "  \"gst\": " << gst << ",\n";
  os << "  \"pre_gst_extra\": " << pre_gst_extra << ",\n";
  os << "  \"heartbeat_period\": " << heartbeat_period << ",\n";
  // Numeric bitmask while the set fits 64 bits (pre-existing reproducers
  // stay byte-identical); wide sets fall back to the hex string form.
  if (byzantine.fits_in_u64())
    os << "  \"byzantine\": " << byzantine.low64() << ",\n";
  else
    os << "  \"byzantine\": \"" << set_hex(byzantine) << "\",\n";
  os << "  \"requests\": " << requests << ",\n";
  os << "  \"quiet_start\": " << quiet_start << ",\n";
  os << "  \"quiet_window\": " << quiet_window << ",\n";
  // Optional fields are emitted only when set, so reproducers from before
  // they existed stay byte-identical and parse with the same defaults.
  if (mux_clients != 0)
    os << "  \"mux_clients\": " << static_cast<int>(mux_clients) << ",\n";
  if (min_final_epoch != 0)
    os << "  \"min_final_epoch\": " << min_final_epoch << ",\n";
  if (synchronous) os << "  \"synchronous\": 1,\n";
  os << "  \"actions\": [";
  for (std::size_t i = 0; i < actions.size(); ++i) {
    const FaultAction& action = actions[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"at\":" << action.at << ",\"kind\":\""
       << fault_kind_name(action.kind) << "\"";
    if (action.a != kNoProcess) os << ",\"a\":" << action.a;
    if (action.b != kNoProcess) os << ",\"b\":" << action.b;
    if (action.value != 0) os << ",\"value\":" << action.value;
    if (action.kind == FaultKind::kPartition) {
      if (action.side.fits_in_u64())
        os << ",\"value\":" << action.side.low64();
      else
        os << ",\"side\":\"" << set_hex(action.side) << "\"";
    }
    os << "}";
  }
  os << (actions.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
  return os.str();
}

std::optional<Schedule> Schedule::from_json(std::string_view text) {
  const std::size_t actions_at = text.find("\"actions\"");
  if (actions_at == std::string_view::npos) return std::nullopt;
  const std::string_view header = text.substr(0, actions_at);

  Schedule schedule;
  const auto proto_name = parse_str_field(header, "protocol");
  if (!proto_name) return std::nullopt;
  const auto protocol = protocol_from_name(*proto_name);
  if (!protocol) return std::nullopt;
  schedule.protocol = *protocol;
  const auto n = parse_u64_field(header, "n");
  const auto f = parse_u64_field(header, "f");
  const auto seed = parse_u64_field(header, "seed");
  const auto quiet_start = parse_u64_field(header, "quiet_start");
  const auto quiet_window = parse_u64_field(header, "quiet_window");
  if (!n || !f || !seed || !quiet_start || !quiet_window) return std::nullopt;
  schedule.n = static_cast<ProcessId>(*n);
  schedule.f = static_cast<int>(*f);
  schedule.seed = *seed;
  schedule.gst = parse_u64_field(header, "gst").value_or(0);
  schedule.pre_gst_extra = parse_u64_field(header, "pre_gst_extra").value_or(0);
  schedule.heartbeat_period =
      parse_u64_field(header, "heartbeat_period").value_or(5'000'000);
  if (const auto byz_hex = parse_str_field(header, "byzantine")) {
    const auto parsed = set_from_hex(*byz_hex);
    if (!parsed) return std::nullopt;
    schedule.byzantine = *parsed;
  } else {
    schedule.byzantine =
        ProcessSet(parse_u64_field(header, "byzantine").value_or(0));
  }
  schedule.requests = parse_u64_field(header, "requests").value_or(0);
  schedule.quiet_start = *quiet_start;
  schedule.quiet_window = *quiet_window;
  schedule.mux_clients = static_cast<ProcessId>(
      parse_u64_field(header, "mux_clients").value_or(0));
  schedule.min_final_epoch =
      static_cast<Epoch>(parse_u64_field(header, "min_final_epoch").value_or(0));
  schedule.synchronous =
      parse_u64_field(header, "synchronous").value_or(0) != 0;

  // Actions: every {...} chunk after "actions" (no nesting in the schema).
  std::size_t cursor = actions_at;
  while (true) {
    const std::size_t open = text.find('{', cursor);
    if (open == std::string_view::npos) break;
    const std::size_t close = text.find('}', open);
    if (close == std::string_view::npos) return std::nullopt;
    const auto action = parse_action(text.substr(open, close - open + 1));
    if (!action) return std::nullopt;
    schedule.actions.push_back(*action);
    cursor = close + 1;
  }
  return schedule;
}

}  // namespace qsel::scenario
