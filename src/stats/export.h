// CSV export helpers so experiment output can be piped into plotting tools
// (the paper's figures are line/bar charts over exactly these series).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "stats/percentile.h"
#include "stats/table.h"

namespace aeq::stats {

// Writes "quantile,value" rows for the given quantiles (percent units).
void write_quantiles_csv(std::ostream& out, const PercentileTracker& tracker,
                         const std::vector<double>& percentiles = {
                             1, 5, 10, 25, 50, 75, 90, 95, 99, 99.9});

// Writes a result table as CSV: one header row of column names, numeric
// cells at full precision (%.12g), text cells quoted when they contain a
// comma or quote.
void write_csv(std::ostream& out, const Table& table);

// Writes a result table as a JSON array of row objects keyed by column
// name ([{"col": 1.5, ...}, ...]). Numbers stay numbers; empty cells are
// null.
void write_json(std::ostream& out, const Table& table);

}  // namespace aeq::stats
