#ifndef TRMMA_EVAL_REPORT_HTML_H_
#define TRMMA_EVAL_REPORT_HTML_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/json_parse.h"

namespace trmma {

/// One parsed BENCH_*.json run report, reduced to what the quality
/// dashboard consumes. `quality` and `memory` are null-typed JsonValues
/// when the run predates those report sections.
struct BenchRunSummary {
  std::string file;  ///< basename of the source report
  std::string name;  ///< report "name" ("table3_recovery_quality", ...)
  std::int64_t created_unix = 0;
  double wall_seconds = 0.0;
  obs::JsonValue quality;
  obs::JsonValue memory;  ///< rss_bytes / rss_peak_bytes / subsystems[]
};

/// Re-serializes a parsed JsonValue with JsonWriter's deterministic number
/// formatting. Object keys come out sorted (JsonValue stores a std::map),
/// so output is stable regardless of input key order.
std::string WriteJsonValue(const obs::JsonValue& value);

/// Parses one BENCH_*.json report. Errors on unreadable files, malformed
/// JSON, or a document without a "name" member.
StatusOr<BenchRunSummary> LoadBenchReport(const std::string& path);

/// Loads every BENCH_*.json directly inside `dir`, sorted by
/// (created_unix, name, file) so older runs come first. Errors when the
/// directory cannot be read, a report is malformed, or no report is found.
StatusOr<std::vector<BenchRunSummary>> LoadBenchReports(const std::string& dir);

/// The dashboard's embedded data payload: {"runs":[...]} with one entry per
/// summary, in input order, quality sections included verbatim (re-encoded
/// deterministically). This exact string is what the golden test pins.
std::string BuildDashboardPayload(const std::vector<BenchRunSummary>& runs);

/// Renders the self-contained HTML quality dashboard (inline CSS/JS, no
/// external resources): accuracy-vs-ε curves, run-over-run history,
/// reliability diagrams, slice tables, and the drift table, all driven by
/// the embedded payload.
std::string RenderQualityDashboard(const std::vector<BenchRunSummary>& runs);

}  // namespace trmma

#endif  // TRMMA_EVAL_REPORT_HTML_H_
