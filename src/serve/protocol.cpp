#include "serve/protocol.hpp"

#include <cstring>
#include <map>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace crs::serve {

namespace {

/// Parses `key=value` lines from the front of `payload` until `stop_after`
/// keys (or the whole payload when 0); returns the map and the offset one
/// past the last consumed newline.
std::map<std::string, std::string> parse_kv(std::string_view payload,
                                            std::size_t* end_offset = nullptr,
                                            std::size_t stop_after = 0) {
  std::map<std::string, std::string> out;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    const std::size_t nl = payload.find('\n', pos);
    if (nl == std::string_view::npos) {
      throw Error("frame payload: unterminated line");
    }
    const std::string_view line = payload.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw Error("frame payload: malformed line '" + std::string(line) +
                  "'");
    }
    out.emplace(std::string(line.substr(0, eq)),
                std::string(line.substr(eq + 1)));
    if (stop_after != 0 && out.size() == stop_after) break;
  }
  if (end_offset != nullptr) *end_offset = pos;
  return out;
}

const std::string& want(const std::map<std::string, std::string>& kv,
                        const std::string& key) {
  const auto it = kv.find(key);
  if (it == kv.end()) throw Error("frame payload: missing " + key);
  return it->second;
}

std::uint64_t want_u64(const std::map<std::string, std::string>& kv,
                       const std::string& key) {
  return parse_number<std::uint64_t>("frame payload: " + key, want(kv, key));
}

}  // namespace

std::string frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::kSubmit:
      return "submit";
    case FrameType::kAccepted:
      return "accepted";
    case FrameType::kRejected:
      return "rejected";
    case FrameType::kProgress:
      return "progress";
    case FrameType::kResult:
      return "result";
    case FrameType::kCancel:
      return "cancel";
    case FrameType::kShutdown:
      return "shutdown";
    case FrameType::kPing:
      return "ping";
    case FrameType::kPong:
      return "pong";
    case FrameType::kError:
      return "error";
  }
  return "unknown";
}

bool frame_type_valid(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(FrameType::kSubmit) &&
         raw <= static_cast<std::uint8_t>(FrameType::kError);
}

std::string encode_frame(FrameType type, std::string_view payload) {
  CRS_ENSURE(payload.size() <= kMaxFramePayload,
             "frame payload exceeds " + std::to_string(kMaxFramePayload) +
                 " bytes");
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  out.append(kFrameMagic, sizeof kFrameMagic);
  out.push_back(static_cast<char>(type));
  out.append(3, '\0');
  const auto len = static_cast<std::uint32_t>(payload.size());
  out.push_back(static_cast<char>(len & 0xFF));
  out.push_back(static_cast<char>((len >> 8) & 0xFF));
  out.push_back(static_cast<char>((len >> 16) & 0xFF));
  out.push_back(static_cast<char>((len >> 24) & 0xFF));
  out.append(payload);
  return out;
}

void FrameDecoder::feed(const void* data, std::size_t len) {
  buf_.append(static_cast<const char*>(data), len);
}

std::optional<Frame> FrameDecoder::next() {
  if (buf_.size() < kFrameHeaderSize) return std::nullopt;
  if (std::memcmp(buf_.data(), kFrameMagic, sizeof kFrameMagic) != 0) {
    throw Error("frame decoder: bad magic");
  }
  const auto raw_type = static_cast<std::uint8_t>(buf_[4]);
  if (!frame_type_valid(raw_type)) {
    throw Error("frame decoder: unknown frame type " +
                std::to_string(raw_type));
  }
  if (buf_[5] != 0 || buf_[6] != 0 || buf_[7] != 0) {
    throw Error("frame decoder: nonzero reserved bytes");
  }
  const auto b = [&](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<std::uint8_t>(buf_[i]));
  };
  const std::uint32_t len = b(8) | (b(9) << 8) | (b(10) << 16) | (b(11) << 24);
  if (len > kMaxFramePayload) {
    throw Error("frame decoder: payload length " + std::to_string(len) +
                " exceeds cap");
  }
  if (buf_.size() < kFrameHeaderSize + len) return std::nullopt;

  Frame frame;
  frame.type = static_cast<FrameType>(raw_type);
  frame.payload = buf_.substr(kFrameHeaderSize, len);
  buf_.erase(0, kFrameHeaderSize + len);
  return frame;
}

// --- Typed payloads -------------------------------------------------------

std::string encode_accepted(const AcceptedPayload& p) {
  return "id=" + std::to_string(p.id) + "\n";
}

std::string encode_rejected(const RejectedPayload& p) {
  std::string out = "id=" + std::to_string(p.id) + "\n";
  out += "reason=" + p.reason + "\n";
  if (!p.detail.empty()) {
    // Detail is free text off an error message; keep it one line.
    std::string one_line = p.detail;
    for (char& c : one_line) {
      if (c == '\n') c = ' ';
    }
    out += "detail=" + one_line + "\n";
  }
  return out;
}

std::string encode_progress(const ProgressPayload& p) {
  std::string out = "id=" + std::to_string(p.id) + "\n";
  out += "done=" + std::to_string(p.progress.done) + "\n";
  out += "total=" + std::to_string(p.progress.total) + "\n";
  out += "leaks=" + std::to_string(p.progress.leaks) + "\n";
  out += "sim_cycles=" + std::to_string(p.progress.sim_cycles) + "\n";
  return out;
}

std::string encode_result(const ResultPayload& p) {
  std::string out = "id=" + std::to_string(p.id) + "\n";
  out += "status=" + p.status + "\n";
  out += "bytes=" + std::to_string(p.payload.size()) + "\n";
  out += p.payload;
  return out;
}

AcceptedPayload parse_accepted(std::string_view payload) {
  const auto kv = parse_kv(payload);
  return {.id = want_u64(kv, "id")};
}

RejectedPayload parse_rejected(std::string_view payload) {
  const auto kv = parse_kv(payload);
  RejectedPayload p;
  p.id = want_u64(kv, "id");
  p.reason = want(kv, "reason");
  if (const auto it = kv.find("detail"); it != kv.end()) p.detail = it->second;
  return p;
}

ProgressPayload parse_progress(std::string_view payload) {
  const auto kv = parse_kv(payload);
  ProgressPayload p;
  p.id = want_u64(kv, "id");
  p.progress.done = want_u64(kv, "done");
  p.progress.total = want_u64(kv, "total");
  p.progress.leaks = want_u64(kv, "leaks");
  p.progress.sim_cycles = want_u64(kv, "sim_cycles");
  return p;
}

ResultPayload parse_result(std::string_view payload) {
  std::size_t body = 0;
  const auto kv = parse_kv(payload, &body, 3);
  ResultPayload p;
  p.id = want_u64(kv, "id");
  p.status = want(kv, "status");
  if (p.status != "ok" && p.status != "cancelled" && p.status != "failed") {
    throw Error("result frame: unknown status '" + p.status + "'");
  }
  const std::uint64_t bytes = want_u64(kv, "bytes");
  if (payload.size() - body != bytes) {
    throw Error("result frame: bytes=" + std::to_string(bytes) + " but " +
                std::to_string(payload.size() - body) + " remain");
  }
  p.payload = std::string(payload.substr(body));
  return p;
}

}  // namespace crs::serve
