#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace crs::obs {

namespace {

// Thread-local registration: a raw buffer pointer plus the sink generation
// it was registered under. clear() bumps the generation, which forces every
// thread to re-register before its next emit instead of writing through a
// dangling pointer.
thread_local TraceSink::Buffer* tl_buffer = nullptr;
thread_local std::uint64_t tl_generation = 0;

char kind_letter(TraceKind kind) {
  switch (kind) {
    case TraceKind::kSpanBegin:
      return 'B';
    case TraceKind::kSpanEnd:
      return 'E';
    case TraceKind::kInstant:
      return 'i';
    case TraceKind::kCounter:
      return 'C';
  }
  return '?';
}

// Shared deterministic number rendering (integers print without a
// fractional part, everything else as %.17g).
std::string format_number(double v) { return format_metric_number(v); }

bool event_less(const TraceEvent& a, const TraceEvent& b) {
  if (a.cycle != b.cycle) return a.cycle < b.cycle;
  if (a.lane != b.lane) return a.lane < b.lane;
  if (a.seq != b.seq) return a.seq < b.seq;
  // Identical (cycle, lane, seq) can only come from distinct buffers that
  // violated the lane-uniqueness contract; fall back to content so the
  // output order is still independent of buffer registration order.
  if (const int c = std::strcmp(a.name, b.name); c != 0) return c < 0;
  if (a.kind != b.kind) return a.kind < b.kind;
  return a.value < b.value;
}

}  // namespace

TraceSink& TraceSink::instance() {
  static TraceSink sink;
  return sink;
}

TraceSink::Buffer* TraceSink::local_buffer() {
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.push_back(std::make_unique<Buffer>());
  tl_buffer = buffers_.back().get();
  tl_generation = generation_.load(std::memory_order_relaxed);
  return tl_buffer;
}

void TraceSink::emit(TraceKind kind, const char* name, std::uint64_t cycle,
                     double value) {
  Buffer* buf = tl_buffer;
  if (buf == nullptr ||
      tl_generation != generation_.load(std::memory_order_acquire)) {
    buf = local_buffer();
  }
  TraceEvent ev;
  ev.cycle = cycle;
  ev.seq = buf->next_seq++;
  ev.lane = current_lane();
  ev.kind = kind;
  ev.name = name;
  ev.value = value;
  buf->events.push_back(ev);
}

std::vector<TraceEvent> TraceSink::merged() const {
  std::vector<TraceEvent> all;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t total = 0;
    for (const auto& b : buffers_) total += b->events.size();
    all.reserve(total);
    for (const auto& b : buffers_) {
      all.insert(all.end(), b->events.begin(), b->events.end());
    }
  }
  std::stable_sort(all.begin(), all.end(), event_less);
  return all;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string TraceSink::chrome_json() const {
  const auto events = merged();
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& ev : events) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"name\":\"" << json_escape(ev.name)
        << "\",\"cat\":\"crs\",\"ph\":\"" << kind_letter(ev.kind)
        << "\",\"ts\":" << ev.cycle << ",\"pid\":1,\"tid\":" << ev.lane;
    if (ev.kind == TraceKind::kInstant) {
      out << ",\"s\":\"t\",\"args\":{\"value\":" << format_number(ev.value)
          << "}";
    } else if (ev.kind == TraceKind::kCounter) {
      out << ",\"args\":{\"value\":" << format_number(ev.value) << "}";
    }
    out << "}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out.str();
}

std::string TraceSink::csv() const {
  const auto events = merged();
  std::ostringstream out;
  out << "cycle,lane,kind,name,value\n";
  for (const auto& ev : events) {
    out << ev.cycle << ',' << ev.lane << ',' << kind_letter(ev.kind) << ','
        << ev.name << ',' << format_number(ev.value) << '\n';
  }
  return out.str();
}

std::size_t TraceSink::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& b : buffers_) total += b->events.size();
  return total;
}

void TraceSink::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.clear();
  generation_.fetch_add(1, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Chrome trace validation: a small self-contained JSON parser plus the
// structural checks about:tracing relies on. No external dependencies.

namespace {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    const JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("json parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      JsonValue v;
      v.type = JsonValue::Type::kString;
      v.str = parse_string();
      return v;
    }
    if (c == 't' || c == 'f') return parse_bool();
    if (c == 'n') {
      parse_literal("null");
      return JsonValue{};
    }
    return parse_number();
  }

  void parse_literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) fail("bad literal");
      ++pos_;
    }
  }

  JsonValue parse_bool() {
    JsonValue v;
    v.type = JsonValue::Type::kBool;
    if (peek() == 't') {
      parse_literal("true");
      v.boolean = true;
    } else {
      parse_literal("false");
      v.boolean = false;
    }
    return v;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        digits = digits || (c >= '0' && c <= '9');
        ++pos_;
      } else {
        break;
      }
    }
    if (!digits) fail("invalid number");
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = std::strtod(text_.c_str() + start, nullptr);
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("short \\u escape");
            // Decoded only far enough for validation; non-ASCII collapses
            // to '?' which is fine for name comparison purposes.
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("bad hex digit in \\u escape");
              }
            }
            out += code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default:
            fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return v;
      }
      fail("expected ',' or ']' in array");
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object[std::move(key)] = parse_value();
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return v;
      }
      fail("expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

const JsonValue* find_member(const JsonValue& obj, const std::string& key) {
  const auto it = obj.object.find(key);
  return it == obj.object.end() ? nullptr : &it->second;
}

}  // namespace

std::string validate_chrome_trace(const std::string& json) {
  JsonValue doc;
  try {
    doc = JsonParser(json).parse();
  } catch (const std::exception& e) {
    return e.what();
  }

  const JsonValue* events = nullptr;
  if (doc.type == JsonValue::Type::kObject) {
    events = find_member(doc, "traceEvents");
    if (events == nullptr) return "top-level object lacks \"traceEvents\"";
  } else if (doc.type == JsonValue::Type::kArray) {
    events = &doc;  // the bare-array flavour Chrome also accepts
  } else {
    return "document is neither an object nor an array";
  }
  if (events->type != JsonValue::Type::kArray) {
    return "\"traceEvents\" is not an array";
  }

  // Per-(pid, tid) open-span stack for B/E nesting.
  std::map<std::pair<double, double>, std::vector<std::string>> open;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const auto where = "event " + std::to_string(i);
    const JsonValue& ev = events->array[i];
    if (ev.type != JsonValue::Type::kObject) return where + ": not an object";

    const JsonValue* name = find_member(ev, "name");
    if (name == nullptr || name->type != JsonValue::Type::kString) {
      return where + ": missing string \"name\"";
    }
    const JsonValue* ph = find_member(ev, "ph");
    if (ph == nullptr || ph->type != JsonValue::Type::kString ||
        ph->str.size() != 1) {
      return where + ": missing one-char \"ph\"";
    }
    const char phase = ph->str[0];
    if (phase == 'M') continue;  // metadata events carry no timestamp

    static const std::string kKnown = "BEiICXbensO";
    if (kKnown.find(phase) == std::string::npos) {
      return where + ": unknown phase '" + ph->str + "'";
    }
    const JsonValue* ts = find_member(ev, "ts");
    if (ts == nullptr || ts->type != JsonValue::Type::kNumber) {
      return where + ": missing numeric \"ts\"";
    }
    if (ts->number < 0) return where + ": negative \"ts\"";
    const JsonValue* pid = find_member(ev, "pid");
    const JsonValue* tid = find_member(ev, "tid");
    if (pid == nullptr || pid->type != JsonValue::Type::kNumber) {
      return where + ": missing numeric \"pid\"";
    }
    if (tid == nullptr || tid->type != JsonValue::Type::kNumber) {
      return where + ": missing numeric \"tid\"";
    }

    auto& stack = open[{pid->number, tid->number}];
    if (phase == 'B') {
      stack.push_back(name->str);
    } else if (phase == 'E') {
      if (stack.empty()) {
        return where + ": span end \"" + name->str + "\" with no open span";
      }
      if (stack.back() != name->str) {
        return where + ": span end \"" + name->str +
               "\" does not match open span \"" + stack.back() + "\"";
      }
      stack.pop_back();
    } else if (phase == 'C') {
      const JsonValue* args = find_member(ev, "args");
      if (args == nullptr || args->type != JsonValue::Type::kObject ||
          args->object.empty()) {
        return where + ": counter event lacks non-empty \"args\"";
      }
    }
  }
  for (const auto& [key, stack] : open) {
    if (!stack.empty()) {
      return "unclosed span \"" + stack.back() + "\" on tid " +
             format_number(key.second);
    }
  }
  return {};
}

}  // namespace crs::obs
