// Aligned plain-text table printer used by the bench harness to emit the
// per-experiment tables (README, Bench binaries).
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace ncdn {

/// Collects rows of string cells and prints them with aligned columns.
class text_table {
 public:
  explicit text_table(std::vector<std::string> header);

  /// Appends one row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Convenience: formats arithmetic cells with %g-style formatting.
  static std::string num(double v);
  static std::string num(std::size_t v);
  static std::string fixed(double v, int decimals);

  /// Renders to a string / stream; columns padded to widest cell.
  std::string to_string() const;
  void print(std::FILE* out = stdout) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ncdn
