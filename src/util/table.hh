/**
 * @file
 * ASCII table formatting for the reproduction's and the tools' output.
 *
 * wsc_reproduce regenerates the paper's tables; this writer renders
 * rows with aligned columns so the output reads like the published
 * tables. It also supports CSV emission for downstream plotting.
 */

#ifndef WSC_UTIL_TABLE_HH
#define WSC_UTIL_TABLE_HH

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace wsc {

/**
 * A simple column-aligned text table.
 *
 * Usage:
 * @code
 *   Table t({"System", "Watt", "Inf-$"});
 *   t.addRow({"srvr1", "340", "3294"});
 *   t.print(std::cout);
 * @endcode
 */
class Table
{
  public:
    /** Construct with the header row. */
    explicit Table(std::vector<std::string> header);

    /** Append a data row; must match the header's column count. */
    void addRow(std::vector<std::string> row);

    /** Append a horizontal separator line. */
    void addSeparator();

    /** Number of data rows added so far (separators excluded). */
    std::size_t rowCount() const;

    /** Render with aligned columns to the given stream. */
    void print(std::ostream &os) const;

    /** Render as CSV (separators omitted). */
    void printCsv(std::ostream &os) const;

    /** Render to a string (aligned form). */
    std::string str() const;

  private:
    std::vector<std::string> header_;
    /** Rows; an empty vector encodes a separator. */
    std::vector<std::vector<std::string>> rows;
};

/** Format a double with the given number of decimals. */
std::string fmtF(double v, int decimals = 1);

/** Format a ratio as a percentage string, e.g. 1.33 -> "133%". */
std::string fmtPct(double ratio, int decimals = 0);

/** Format a dollar amount, e.g. 5758.4 -> "$5,758". */
std::string fmtDollars(double v);

} // namespace wsc

#endif // WSC_UTIL_TABLE_HH
