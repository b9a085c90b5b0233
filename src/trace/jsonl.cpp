#include "trace/jsonl.hpp"

#include <cctype>
#include <istream>
#include <ostream>
#include <string>

namespace qsel::trace {

namespace {

void write_escaped(std::ostream& out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
}

/// Locates `"key":` at object level and returns the offset just past the
/// colon, or npos. Keys are searched literally; event tags are short
/// protocol identifiers, so collisions with quoted values do not arise in
/// traces this library writes.
std::size_t value_offset(std::string_view line, std::string_view key) {
  std::string needle = "\"";
  needle.append(key).append("\":");
  const std::size_t at = line.find(needle);
  return at == std::string_view::npos ? std::string_view::npos
                                      : at + needle.size();
}

std::optional<std::uint64_t> parse_u64_field(std::string_view line,
                                             std::string_view key) {
  std::size_t at = value_offset(line, key);
  if (at == std::string_view::npos) return std::nullopt;
  std::uint64_t value = 0;
  bool any = false;
  while (at < line.size() && std::isdigit(static_cast<unsigned char>(line[at]))) {
    value = value * 10 + static_cast<std::uint64_t>(line[at] - '0');
    ++at;
    any = true;
  }
  if (!any) return std::nullopt;
  return value;
}

std::optional<std::string> parse_str_field(std::string_view line,
                                           std::string_view key) {
  std::size_t at = value_offset(line, key);
  if (at == std::string_view::npos || at >= line.size() || line[at] != '"')
    return std::nullopt;
  ++at;
  std::string value;
  while (at < line.size() && line[at] != '"') {
    if (line[at] == '\\') {
      if (++at >= line.size()) return std::nullopt;  // dangling escape
    }
    value.push_back(line[at]);
    ++at;
  }
  if (at >= line.size()) return std::nullopt;  // unterminated string
  return value;
}

}  // namespace

void write_jsonl_line(std::ostream& out, const Event& event,
                      std::uint64_t index) {
  out << "{\"i\":" << index << ",\"t\":" << event.time << ",\"e\":\""
      << event_type_name(event.type) << "\",\"p\":" << event.actor;
  if (event.peer != kNoProcess) out << ",\"q\":" << event.peer;
  out << ",\"a0\":" << event.arg0 << ",\"a1\":" << event.arg1;
  if (!event.tag.empty()) {
    out << ",\"tag\":\"";
    write_escaped(out, event.tag);
    out << "\"";
  }
  out << "}\n";
}

std::optional<Event> parse_jsonl_line(std::string_view line) {
  const auto time = parse_u64_field(line, "t");
  const auto name = parse_str_field(line, "e");
  const auto actor = parse_u64_field(line, "p");
  const auto arg0 = parse_u64_field(line, "a0");
  const auto arg1 = parse_u64_field(line, "a1");
  if (!time || !name || !actor || !arg0 || !arg1) return std::nullopt;
  const auto type = event_type_from_name(*name);
  if (!type) return std::nullopt;

  Event event;
  event.time = *time;
  event.type = *type;
  event.actor = static_cast<ProcessId>(*actor);
  const auto peer = parse_u64_field(line, "q");
  event.peer = peer ? static_cast<ProcessId>(*peer) : kNoProcess;
  event.arg0 = *arg0;
  event.arg1 = *arg1;
  event.tag = parse_str_field(line, "tag").value_or("");
  return event;
}

std::vector<Event> read_jsonl(std::istream& in, std::uint64_t* malformed) {
  std::vector<Event> events;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (auto event = parse_jsonl_line(line)) {
      events.push_back(std::move(*event));
    } else if (malformed) {
      ++*malformed;
    }
  }
  return events;
}

}  // namespace qsel::trace
