#include "perf_report.h"

#include <cstdio>
#include <fstream>
#include <iostream>

namespace loom {
namespace bench {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void JsonObject::Add(const std::string& key, const std::string& value) {
  fields.push_back("\"" + JsonEscape(key) + "\": \"" + JsonEscape(value) +
                   "\"");
}
void JsonObject::Add(const std::string& key, double value) {
  fields.push_back("\"" + JsonEscape(key) + "\": " + JsonNumber(value));
}
void JsonObject::Add(const std::string& key, uint64_t value) {
  fields.push_back("\"" + JsonEscape(key) + "\": " + std::to_string(value));
}
void JsonObject::AddRaw(const std::string& key, const std::string& raw) {
  fields.push_back("\"" + JsonEscape(key) + "\": " + raw);
}

std::string JsonObject::Render(int indent) const {
  const std::string pad(indent, ' ');
  std::string out = "{\n";
  for (size_t i = 0; i < fields.size(); ++i) {
    out += pad + "  " + fields[i];
    if (i + 1 < fields.size()) out += ",";
    out += "\n";
  }
  out += pad + "}";
  return out;
}

std::string RenderArray(const std::vector<JsonObject>& items, int indent) {
  const std::string pad(indent, ' ');
  std::string out = "[\n";
  for (size_t i = 0; i < items.size(); ++i) {
    out += pad + "  " + items[i].Render(indent + 2);
    if (i + 1 < items.size()) out += ",";
    out += "\n";
  }
  out += pad + "]";
  return out;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    std::cerr << "perf_report: cannot open " << path << " for writing\n";
    return false;
  }
  f << content << "\n";
  return f.good();
}

}  // namespace bench
}  // namespace loom
