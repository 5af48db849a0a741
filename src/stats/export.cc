#include "stats/export.h"

#include <cstdio>
#include <ostream>

namespace aeq::stats {

void write_quantiles_csv(std::ostream& out, const PercentileTracker& tracker,
                         const std::vector<double>& percentiles) {
  out << "percentile,value\n";
  for (double pct : percentiles) {
    out << pct << "," << tracker.percentile(pct) << "\n";
  }
}

namespace {

std::string full_precision(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

void write_csv_escaped(std::ostream& out, const std::string& text) {
  if (text.find_first_of(",\"\n") == std::string::npos) {
    out << text;
    return;
  }
  out << '"';
  for (char c : text) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

void write_json_string(std::ostream& out, const std::string& text) {
  out << '"';
  for (char c : text) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default: out << c;
    }
  }
  out << '"';
}

}  // namespace

void write_csv(std::ostream& out, const Table& table) {
  const auto& columns = table.columns();
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (c) out << ',';
    write_csv_escaped(out, columns[c].name);
  }
  out << '\n';
  for (const Row& row : table.rows()) {
    for (std::size_t c = 0; c < columns.size(); ++c) {
      if (c) out << ',';
      if (c >= row.size()) continue;
      const Cell& cell = row[c];
      if (cell.kind == Cell::Kind::kNumber) {
        out << full_precision(cell.value);
      } else if (cell.kind == Cell::Kind::kText) {
        write_csv_escaped(out, cell.text);
      }
    }
    out << '\n';
  }
}

void write_json(std::ostream& out, const Table& table) {
  const auto& columns = table.columns();
  out << "[";
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    const Row& row = table.rows()[r];
    out << (r ? ",\n " : "\n ") << "{";
    for (std::size_t c = 0; c < columns.size(); ++c) {
      if (c) out << ", ";
      write_json_string(out, columns[c].name);
      out << ": ";
      if (c >= row.size() || row[c].kind == Cell::Kind::kEmpty) {
        out << "null";
      } else if (row[c].kind == Cell::Kind::kNumber) {
        out << full_precision(row[c].value);
      } else {
        write_json_string(out, row[c].text);
      }
    }
    out << "}";
  }
  out << "\n]\n";
}

}  // namespace aeq::stats
