/**
 * @file
 * Paper-style report formatting for the experiment registry's runs.
 *
 * Renders the Figure 2(c)/4(c)/5-style tables: one row per workload,
 * one column per design, cells as percentages of the baseline, with a
 * harmonic-mean footer row.
 */

#ifndef WSC_CORE_REPORT_HH
#define WSC_CORE_REPORT_HH

#include <string>
#include <vector>

#include "core/evaluator.hh"
#include "util/table.hh"

namespace wsc {
namespace core {

/** Which metric a table reports. */
enum class Metric {
    Perf,
    PerfPerWatt,
    PerfPerInfDollar,
    PerfPerPcDollar,
    PerfPerTcoDollar
};

std::string to_string(Metric m);

/** Extract one metric from a RelativeMetrics record. */
double metricValue(const RelativeMetrics &m, Metric metric);

/**
 * Build the paper-style relative table: rows = workloads (+ HMean),
 * columns = designs, all relative to @p baseline.
 */
Table relativeTable(DesignEvaluator &evaluator,
                    const std::vector<DesignConfig> &designs,
                    const DesignConfig &baseline, Metric metric);

} // namespace core
} // namespace wsc

#endif // WSC_CORE_REPORT_HH
