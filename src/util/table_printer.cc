#include "util/table_printer.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/check.h"

namespace baton {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  BATON_CHECK_EQ(cells.size(), headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string TablePrinter::Int(int64_t v) { return std::to_string(v); }

std::string TablePrinter::ToText() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      out << row[i];
      if (i + 1 < row.size()) {
        out << std::string(widths[i] - row[i].size() + 2, ' ');
      }
    }
    out << "\n";
  };
  emit_row(headers_);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  out << std::string(total > 2 ? total - 2 : total, '-') << "\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

}  // namespace baton
