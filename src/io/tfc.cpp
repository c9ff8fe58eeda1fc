#include "io/tfc.hpp"

#include <bit>
#include <cctype>
#include <charconv>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace rmrls {

namespace {

void append_number(std::string& out, int value) {
  char buf[12];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

/// Appends line `v`'s name: a, b, c, ... up to 26 lines, else x0, x1, ...
void append_line_name(std::string& out, int v, int num_lines) {
  if (num_lines <= 26) {
    out.push_back(static_cast<char>('a' + v));
    return;
  }
  out.push_back('x');
  append_number(out, v);
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char ch : s) {
    if (ch == ',') {
      out.push_back(cur);
      cur.clear();
    } else if (!std::isspace(static_cast<unsigned char>(ch))) {
      cur.push_back(ch);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

}  // namespace

std::string write_tfc(const Circuit& c) {
  const int n = c.num_lines();
  std::string names;
  for (int v = 0; v < n; ++v) {
    if (v != 0) names.push_back(',');
    append_line_name(names, v, n);
  }
  std::string out;
  out.reserve(3 * names.size() + 24 + 16 * c.gates().size());
  for (const char* section : {".v ", ".i ", ".o "}) {
    out += section;
    out += names;
    out.push_back('\n');
  }
  out += "BEGIN\n";
  for (const Gate& g : c.gates()) {
    out.push_back('t');
    append_number(out, g.size());
    out.push_back(' ');
    for (Cube rest = g.controls; rest != 0; rest &= rest - 1) {
      append_line_name(out, std::countr_zero(rest), n);
      out.push_back(',');
    }
    append_line_name(out, g.target, n);
    out.push_back('\n');
  }
  out += "END\n";
  return out;
}

Result<Circuit> read_tfc_checked(const std::string& text,
                                 const std::string& filename) {
  const auto fail = [&](int line_no, const std::string& what) {
    return Status::parse_error(filename, line_no, what);
  };
  std::istringstream is(text);
  std::string line;
  std::map<std::string, int> line_index;
  bool in_body = false;
  bool done = false;
  std::vector<Gate> gates;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto comment = line.find('#');
    if (comment != std::string::npos) line.resize(comment);
    std::istringstream ls(line);
    std::string head;
    if (!(ls >> head)) continue;  // blank line
    if (done) return fail(line_no, "content after END");
    if (head == ".v") {
      std::string rest;
      std::getline(ls, rest);
      for (const std::string& name : split_commas(rest)) {
        if (line_index.count(name)) {
          return fail(line_no, "duplicate line " + name);
        }
        const int idx = static_cast<int>(line_index.size());
        if (idx >= kMaxVariables) {
          return fail(line_no, "more than " + std::to_string(kMaxVariables) +
                                   " lines");
        }
        line_index[name] = idx;
      }
      continue;
    }
    if (head == ".i" || head == ".o" || head == ".c" || head == ".ol") {
      continue;  // metadata we do not need
    }
    if (head == "BEGIN") {
      if (line_index.empty()) return fail(line_no, "BEGIN before .v");
      in_body = true;
      continue;
    }
    if (head == "END") {
      if (!in_body) return fail(line_no, "END before BEGIN");
      done = true;
      continue;
    }
    if (!in_body) return fail(line_no, "gate outside BEGIN/END");
    if (head.size() < 2 || head[0] != 't') {
      return fail(line_no, "unsupported gate '" + head + "' (Toffoli only)");
    }
    int arity = 0;
    const char* const first = head.data() + 1;
    const char* const last = head.data() + head.size();
    const auto [ptr, ec] = std::from_chars(first, last, arity);
    if (ec != std::errc{} || ptr != last || arity < 1) {
      return fail(line_no, "bad gate arity in '" + head + "'");
    }
    std::string rest;
    std::getline(ls, rest);
    const std::vector<std::string> operands = split_commas(rest);
    if (static_cast<int>(operands.size()) != arity) {
      return fail(line_no, "expected " + std::to_string(arity) + " operands");
    }
    Cube controls = kConstOne;
    int target = -1;
    for (std::size_t i = 0; i < operands.size(); ++i) {
      const auto it = line_index.find(operands[i]);
      if (it == line_index.end()) {
        return fail(line_no, "unknown line '" + operands[i] + "'");
      }
      if (i + 1 == operands.size()) {
        target = it->second;
      } else {
        controls |= cube_of_var(it->second);
      }
    }
    if (cube_has_var(controls, target)) {
      return fail(line_no, "target repeated as control");
    }
    gates.emplace_back(controls, target);
  }
  if (!done) return fail(line_no, "missing END");
  return Circuit(static_cast<int>(line_index.size()), std::move(gates));
}

Circuit read_tfc(const std::string& text) {
  Result<Circuit> r = read_tfc_checked(text, "tfc");
  if (!r.ok()) throw std::invalid_argument(r.status().to_string());
  return std::move(r).value();
}

}  // namespace rmrls
