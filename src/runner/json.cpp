// ncdn-lint: allow-file(float-metrics): see json.hpp — fixed number
// formatting makes equal doubles emit equal bytes.
#include "runner/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ncdn::json {

void escape_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out.push_back('"');
}

std::string format_number(double d) {
  // JSON has no Inf/NaN; degrade to null so the document stays parseable
  // (a divide-by-zero ratio should not poison a whole sweep file).
  if (!std::isfinite(d)) return "null";
  // Integral values within the exactly-representable range print as
  // integers; this covers every counter the runner emits and keeps files
  // byte-stable across libc printf implementations.
  if (std::nearbyint(d) == d && std::fabs(d) <= 9007199254740992.0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
    return buf;
  }
  // Shortest representation that round-trips: try increasing precision.
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  return buf;
}

void value::write(std::string& out, int indent, int depth) const {
  const bool pretty = indent > 0;
  const auto newline_pad = [&](int d) {
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (kind_) {
    case kind::null: out += "null"; break;
    case kind::boolean: out += bool_ ? "true" : "false"; break;
    case kind::number: out += format_number(num_); break;
    case kind::string: escape_string(str_, out); break;
    case kind::array:
      out.push_back('[');
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i != 0) out.push_back(',');
        if (pretty) newline_pad(depth + 1);
        arr_[i].write(out, indent, depth + 1);
      }
      if (pretty && !arr_.empty()) newline_pad(depth);
      out.push_back(']');
      break;
    case kind::object:
      out.push_back('{');
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i != 0) out.push_back(',');
        if (pretty) newline_pad(depth + 1);
        escape_string(obj_[i].first, out);
        out.push_back(':');
        if (pretty) out.push_back(' ');
        obj_[i].second.write(out, indent, depth + 1);
      }
      if (pretty && !obj_.empty()) newline_pad(depth);
      out.push_back('}');
      break;
  }
}

std::string value::dump() const {
  std::string out;
  write(out, 0, 0);
  return out;
}

std::string value::dump_pretty() const {
  std::string out;
  write(out, 2, 0);
  out.push_back('\n');
  return out;
}

}  // namespace ncdn::json
