#include "util/string_util.h"

#include <cctype>
#include <cstdio>

namespace kgqan::util {

namespace {

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)); }
char LowerChar(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

}  // namespace

std::string ToLower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) out.push_back(LowerChar(c));
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && IsSpace(s[b])) ++b;
  while (e > b && IsSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> Split(std::string_view s, char sep, bool skip_empty) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      if (i > start || !skip_empty) out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t hit = s.find(from, pos);
    if (hit == std::string_view::npos) {
      out.append(s.substr(pos));
      break;
    }
    out.append(s.substr(pos, hit - pos));
    out.append(to);
    pos = hit + from.size();
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::vector<std::string> SplitIdentifierWords(std::string_view ident) {
  std::vector<std::string> words;
  std::string cur;
  auto flush = [&]() {
    if (!cur.empty()) {
      words.push_back(cur);
      cur.clear();
    }
  };
  for (size_t i = 0; i < ident.size(); ++i) {
    char c = ident[i];
    if (c == '_' || c == '-' || c == ' ' || c == '/' || c == '.') {
      flush();
      continue;
    }
    bool is_digit = std::isdigit(static_cast<unsigned char>(c));
    bool is_upper = std::isupper(static_cast<unsigned char>(c));
    if (!cur.empty()) {
      bool prev_digit = std::isdigit(static_cast<unsigned char>(cur.back()));
      if (is_upper || (is_digit != prev_digit)) flush();
    }
    cur.push_back(LowerChar(c));
  }
  flush();
  return words;
}

std::string FormatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

}  // namespace kgqan::util
