// Frozen classify outputs.  Each classified window renders to one text line
// carrying every field of a core::Disassembly: group, class, operands,
// verdict, and the exact bit patterns of both headrooms and of every
// log-posterior entry.  Files under tests/golden/ hold those lines per named
// case ("<case> <window> <fields>"); a test re-renders its results and
// compares them line for line, so any drift in any bit of any field fails.
#pragma once

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/hierarchical.hpp"

namespace sidis::golden {

inline std::string bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, u);
  return buf;
}

inline std::string render(const core::Disassembly& d) {
  std::string s = "g=" + std::to_string(d.group) + " c=" + std::to_string(d.class_idx) +
                  " rd=" + (d.rd ? std::to_string(*d.rd) : "-") +
                  " rr=" + (d.rr ? std::to_string(*d.rr) : "-") +
                  " v=" + std::to_string(static_cast<int>(d.verdict)) +
                  " m=" + bits(d.margin_headroom) + " s=" + bits(d.score_headroom) + " p=";
  if (d.log_posterior.empty()) return s + "-";
  for (std::size_t i = 0; i < d.log_posterior.size(); ++i) {
    if (i > 0) s += ',';
    s += bits(d.log_posterior[i]);
  }
  return s;
}

/// Lines of `file` (under tests/golden/) grouped by case name; '#' lines
/// are comments.
inline std::map<std::string, std::vector<std::string>> load(const std::string& file) {
  std::ifstream in(std::string(SIDIS_GOLDEN_DIR) + "/" + file);
  EXPECT_TRUE(in.good()) << "missing golden file " << file;
  std::map<std::string, std::vector<std::string>> cases;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    const std::size_t sp = line.find(' ');
    const std::size_t sp2 = line.find(' ', sp + 1);
    if (sp == std::string::npos || sp2 == std::string::npos) continue;
    cases[line.substr(0, sp)].push_back(line.substr(sp2 + 1));
  }
  return cases;
}

/// Expects `got` to match case `name` of `file` field for field, bit for bit.
inline void expect_case(const std::string& file, const std::string& name,
                        const std::vector<core::Disassembly>& got) {
  const std::map<std::string, std::vector<std::string>> cases = load(file);
  const auto it = cases.find(name);
  ASSERT_NE(it, cases.end()) << file << " has no case " << name;
  const std::vector<std::string>& want = it->second;
  ASSERT_EQ(got.size(), want.size()) << file << " case " << name;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(render(got[i]), want[i]) << file << " case " << name << " window " << i;
  }
}

}  // namespace sidis::golden
