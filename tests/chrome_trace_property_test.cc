// Property test for the Chrome-trace / flight-recorder JSON export:
// arbitrary bytes — control characters, quotes, backslashes, truncated
// and overlong UTF-8 — in span names, attribute keys/values, questions,
// and SPARQL text must always render as strictly valid JSON lines made
// only of valid UTF-8.
//
// The binary has its own main: `--seed=N` (or the KGQAN_PROPERTY_SEED
// environment variable) reseeds the generator, so CI can rotate seeds and
// a failure is reproducible locally with the printed flag.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/chrome_trace.h"
#include "obs/flight_recorder.h"
#include "obs/json_util.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace kgqan::obs {

// Set from --seed / KGQAN_PROPERTY_SEED in main() before RUN_ALL_TESTS.
uint64_t g_property_seed = 0xC0FFEEu;

namespace {

// Strict RFC 8259 JSON value parser (subset: no extensions, raw control
// characters in strings are rejected, escapes fully validated).
class StrictJson {
 public:
  explicit StrictJson(std::string_view text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    switch (Peek()) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') { ++pos_; return true; }
      if (c < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        char e = text_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + i >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    size_t digits = pos_;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (pos_ == digits) return false;
    if (Peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  std::string_view text_;
  size_t pos_ = 0;
};

// Byte-exact RFC 3629 UTF-8 validation (surrogates and > U+10FFFF
// rejected).
bool IsValidUtf8(std::string_view text) {
  size_t i = 0;
  while (i < text.size()) {
    unsigned char c = static_cast<unsigned char>(text[i]);
    size_t len;
    unsigned char lo = 0x80, hi = 0xBF;
    if (c <= 0x7F) { i += 1; continue; }
    else if (c >= 0xC2 && c <= 0xDF) len = 2;
    else if (c == 0xE0) { len = 3; lo = 0xA0; }
    else if (c >= 0xE1 && c <= 0xEC) len = 3;
    else if (c == 0xED) { len = 3; hi = 0x9F; }
    else if (c >= 0xEE && c <= 0xEF) len = 3;
    else if (c == 0xF0) { len = 4; lo = 0x90; }
    else if (c >= 0xF1 && c <= 0xF3) len = 4;
    else if (c == 0xF4) { len = 4; hi = 0x8F; }
    else return false;
    if (i + len > text.size()) return false;
    unsigned char c1 = static_cast<unsigned char>(text[i + 1]);
    if (c1 < lo || c1 > hi) return false;
    for (size_t k = 2; k < len; ++k) {
      unsigned char ck = static_cast<unsigned char>(text[i + k]);
      if (ck < 0x80 || ck > 0xBF) return false;
    }
    i += len;
  }
  return true;
}

// Adversarial byte strings: random lengths mixing ASCII, quotes,
// backslashes, control characters, valid multibyte UTF-8, lone
// continuation bytes, truncated sequences, overlong encodings, surrogate
// halves, and 0xFE/0xFF.
std::string RandomBytes(util::Rng& rng) {
  using namespace std::string_literals;
  // `s` literals keep explicit lengths, so the NUL piece survives instead
  // of truncating at the first byte.
  static const std::string kNasty[] = {
      "\x00"s, "\x01"s, "\x1f"s, "\""s, "\\"s, "\n"s, "\r"s, "\t"s,
      "\x7f"s,
      "\xc0\xaf"s,          // Overlong '/'.
      "\xed\xa0\x80"s,      // UTF-8-encoded surrogate half.
      "\xf4\x90\x80\x80"s,  // > U+10FFFF.
      "\xc3"s,              // Truncated 2-byte sequence.
      "\xe2\x82"s,          // Truncated 3-byte sequence.
      "\x80"s, "\xbf"s,     // Lone continuation bytes.
      "\xfe"s, "\xff"s,     // Never valid in UTF-8.
      "\xc3\xa9"s, "\xe2\x82\xac"s, "\xf0\x9f\x92\xa9"s,  // Valid multibyte.
  };
  constexpr size_t kNastyCount = sizeof(kNasty) / sizeof(kNasty[0]);
  std::string out;
  size_t pieces = static_cast<size_t>(rng.UniformInt(0, 12));
  for (size_t i = 0; i < pieces; ++i) {
    if (rng.UniformInt(0, 1) == 0) {
      out += static_cast<char>('a' + rng.UniformInt(0, 25));
    } else {
      const std::string& nasty = kNasty[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(kNastyCount) - 1))];
      out.append(nasty.data(), nasty.size());
    }
  }
  return out;
}

void ExpectStrictJsonl(const std::string& jsonl, const char* what) {
  std::istringstream in(jsonl);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_TRUE(IsValidUtf8(line))
        << what << ": non-UTF-8 bytes leaked into output";
    StrictJson parser(line);
    EXPECT_TRUE(parser.Valid()) << what << ": invalid JSON line: " << line;
  }
  EXPECT_GT(lines, 0u) << what;
}

TEST(ChromeTracePropertyTest, AppendJsonStringAlwaysProducesValidJson) {
  util::Rng rng(g_property_seed);
  for (int round = 0; round < 2'000; ++round) {
    std::string input = RandomBytes(rng);
    std::string quoted = JsonString(input);
    SCOPED_TRACE("round " + std::to_string(round));
    EXPECT_TRUE(IsValidUtf8(quoted));
    StrictJson parser(quoted);
    EXPECT_TRUE(parser.Valid()) << quoted;
  }
}

TEST(ChromeTracePropertyTest, TraceExportSurvivesArbitraryBytes) {
  util::Rng rng(g_property_seed ^ 0x5eed);
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    TraceCollector collector;
    size_t traces = static_cast<size_t>(rng.UniformInt(1, 3));
    for (size_t t = 0; t < traces; ++t) {
      Trace* trace = collector.StartTrace(RandomBytes(rng));
      size_t spans = static_cast<size_t>(rng.UniformInt(1, 6));
      std::vector<size_t> open;
      open.push_back(trace->BeginSpan(RandomBytes(rng), kNoSpan));
      for (size_t s = 1; s < spans; ++s) {
        size_t parent =
            open[static_cast<size_t>(rng.UniformInt(
                0, static_cast<int>(open.size()) - 1))];
        size_t span = trace->BeginSpan(RandomBytes(rng), parent);
        size_t attrs = static_cast<size_t>(rng.UniformInt(0, 3));
        for (size_t a = 0; a < attrs; ++a) {
          trace->AddAttribute(span, RandomBytes(rng), RandomBytes(rng));
        }
        trace->EndSpan(span, rng.UniformInt(0, 1'000'000));
        open.push_back(span);
      }
      trace->EndSpan(open.front(), rng.UniformInt(0, 1'000'000));
    }
    ExpectStrictJsonl(ChromeTraceJsonl(collector), "collector export");
  }
}

TEST(ChromeTracePropertyTest, FlightDumpSurvivesArbitraryBytes) {
  util::Rng rng(g_property_seed ^ 0xf11e);
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    FlightRecorderOptions options;
    options.capacity = 4;
    options.slow_threshold_ms = 0.0;
    FlightRecorder recorder(options);
    size_t records = static_cast<size_t>(rng.UniformInt(1, 6));
    for (size_t r = 0; r < records; ++r) {
      auto record = std::make_shared<FlightRecord>();
      record->trace_id = rng.Next();
      record->question = RandomBytes(rng);
      record->status = RandomBytes(rng);
      record->top_sparql = RandomBytes(rng);
      record->total_ms = static_cast<double>(rng.UniformInt(0, 10'000));
      if (rng.UniformInt(0, 1) == 0) {
        Trace trace(Trace::Mode::kFull);
        size_t root = trace.BeginSpan(RandomBytes(rng), kNoSpan);
        trace.AddAttribute(root, RandomBytes(rng), RandomBytes(rng));
        trace.EndSpan(root, rng.UniformInt(0, 1'000'000));
        record->spans = trace.spans();
      }
      recorder.Record(std::move(record));
    }
    ExpectStrictJsonl(recorder.ChromeJsonl(), "flight dump");
  }
}

}  // namespace
}  // namespace kgqan::obs

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  uint64_t seed = kgqan::obs::g_property_seed;
  if (const char* env = std::getenv("KGQAN_PROPERTY_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    }
  }
  kgqan::obs::g_property_seed = seed;
  std::printf("[property] seed=%llu  (repro: chrome_trace_property_test "
              "--seed=%llu)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed));
  return RUN_ALL_TESTS();
}
