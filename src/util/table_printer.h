// Aligned text tables for the benchmark harness, so every bench binary
// prints the same rows/series the paper's figures plot.
#ifndef BATON_UTIL_TABLE_PRINTER_H_
#define BATON_UTIL_TABLE_PRINTER_H_

#include <string>
#include <vector>

namespace baton {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);

  /// Convenience: format doubles with fixed precision.
  static std::string Num(double v, int precision = 2);
  static std::string Int(int64_t v);

  /// Render as an aligned text table.
  std::string ToText() const;

  /// Raw cells, for alternative renderers (e.g. the bench harness's JSON
  /// mirror).
  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace baton

#endif  // BATON_UTIL_TABLE_PRINTER_H_
