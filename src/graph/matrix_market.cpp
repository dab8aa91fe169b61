#include "graph/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "support/error.hpp"

namespace spc {
namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

// True when the stream has nothing but whitespace left — guards against
// trailing garbage after the expected fields of a line.
bool only_blanks_left(std::istream& is) {
  char c;
  while (is.get(c)) {
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

// Entry fields are parsed straight from the line buffer, accepting exactly
// what `istream >>` accepts in the C locale (std::isspace blanks, fields may
// run together as in "2-1"), without building a stream per line.
const char* skip_blanks(const char* p, const char* end) {
  while (p != end && std::isspace(static_cast<unsigned char>(*p))) ++p;
  return p;
}

// Where from_chars should start on the token at p, or nullptr when it is no
// number: from_chars takes no '+' but would take "inf"/"nan", while `>>`
// takes a sign only before a digit or '.'.
const char* number_start(const char* p, const char* end) {
  const char* q = p;
  if (q != end && (*q == '+' || *q == '-')) ++q;
  if (q == end || !(std::isdigit(static_cast<unsigned char>(*q)) || *q == '.')) {
    return nullptr;
  }
  return *p == '+' ? q : p;
}

// Each parser skips leading blanks, reads one field and advances p past it;
// false on a missing, malformed or overflowing field.
bool parse_field(const char*& p, const char* end, long long& out) {
  const char* first = number_start(skip_blanks(p, end), end);
  if (first == nullptr) return false;
  const auto [next, ec] = std::from_chars(first, end, out);
  if (ec != std::errc()) return false;
  p = next;
  return true;
}

bool parse_field(const char*& p, const char* end, double& out) {
  const char* first = number_start(skip_blanks(p, end), end);
  if (first == nullptr) return false;
  const auto [next, ec] = std::from_chars(first, end, out);
  if (ec == std::errc::result_out_of_range) {
    // `>>` keeps strtod's value on underflow (0 or a subnormal) and rejects
    // only overflow.
    out = std::strtod(std::string(first, next).c_str(), nullptr);
    if (std::isinf(out)) return false;
  } else if (ec != std::errc()) {
    return false;
  }
  p = next;
  return true;
}

}  // namespace

SymSparse read_matrix_market(std::istream& in, bool* boosted, bool spdize) {
  std::string line;
  std::int64_t lineno = 0;
  SPC_CHECK_INPUT(static_cast<bool>(std::getline(in, line)),
                  "MatrixMarket: empty stream", 0);
  ++lineno;
  std::istringstream header(lower(line));
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  SPC_CHECK_INPUT(banner == "%%matrixmarket", "MatrixMarket: missing banner",
                  lineno);
  SPC_CHECK_INPUT(object == "matrix" && format == "coordinate",
                  "MatrixMarket: only coordinate matrices are supported", lineno);
  SPC_CHECK_INPUT(field == "real" || field == "pattern" || field == "integer",
                  "MatrixMarket: unsupported field type", lineno);
  SPC_CHECK_INPUT(symmetry == "symmetric",
                  "MatrixMarket: only symmetric matrices are supported", lineno);
  const bool is_pattern = field == "pattern";

  // Skip comments.
  bool have_size = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line[0] != '%') {
      have_size = true;
      break;
    }
  }
  SPC_CHECK_INPUT(have_size, "MatrixMarket: missing size line", lineno);
  std::istringstream size_line(line);
  long long rows = 0, cols = 0, nnz = 0;
  size_line >> rows >> cols >> nnz;
  SPC_CHECK_INPUT(!size_line.fail() && only_blanks_left(size_line),
                  "MatrixMarket: unparseable size line", lineno);
  SPC_CHECK_INPUT(rows > 0 && rows == cols, "MatrixMarket: matrix must be square",
                  lineno);
  SPC_CHECK_INPUT(rows <= std::numeric_limits<idx>::max(),
                  "MatrixMarket: dimension overflows the index type", lineno);
  SPC_CHECK_INPUT(nnz >= 0, "MatrixMarket: negative entry count", lineno);

  const idx n = static_cast<idx>(rows);
  std::vector<double> diag(static_cast<std::size_t>(n), 0.0);
  std::vector<bool> has_diag(static_cast<std::size_t>(n), false);
  std::vector<std::pair<idx, idx>> pos;
  std::vector<double> val;
  std::vector<double> offdiag_abs_sum(static_cast<std::size_t>(n), 0.0);

  for (long long k = 0; k < nnz; ++k) {
    // One entry per line (blank lines tolerated), so every diagnostic can
    // name the offending line.
    bool have_entry = false;
    while (std::getline(in, line)) {
      ++lineno;
      if (line.find_first_not_of(" \t\r") != std::string::npos) {
        have_entry = true;
        break;
      }
    }
    SPC_CHECK_INPUT(have_entry, "MatrixMarket: truncated entry list", lineno);
    const char* p = line.data();
    const char* const end = p + line.size();
    long long i = 0, j = 0;
    double v = 1.0;
    const bool parsed = parse_field(p, end, i) && parse_field(p, end, j) &&
                        (is_pattern || parse_field(p, end, v));
    SPC_CHECK_INPUT(parsed && skip_blanks(p, end) == end,
                    "MatrixMarket: unparseable entry", lineno);
    SPC_CHECK_INPUT(i >= 1 && i <= rows && j >= 1 && j <= cols,
                    "MatrixMarket: entry out of range", lineno);
    SPC_CHECK_INPUT(std::isfinite(v), "MatrixMarket: non-finite value", lineno);
    const idx r = static_cast<idx>(i - 1);
    const idx c = static_cast<idx>(j - 1);
    if (r == c) {
      diag[static_cast<std::size_t>(r)] += is_pattern ? 0.0 : v;
      has_diag[static_cast<std::size_t>(r)] = true;
    } else {
      pos.emplace_back(r, c);
      val.push_back(is_pattern ? -1.0 : v);
      offdiag_abs_sum[static_cast<std::size_t>(r)] += std::abs(val.back());
      offdiag_abs_sum[static_cast<std::size_t>(c)] += std::abs(val.back());
    }
  }

  // Ensure SPD by diagonal dominance where needed (unless the caller asked
  // for the raw values, e.g. to exercise breakdown handling).
  bool any_boost = false;
  for (idx v2 = 0; v2 < n; ++v2) {
    if (!spdize) break;
    const double needed = offdiag_abs_sum[static_cast<std::size_t>(v2)] + 1.0;
    if (is_pattern || !has_diag[static_cast<std::size_t>(v2)] ||
        diag[static_cast<std::size_t>(v2)] < needed) {
      if (!is_pattern && diag[static_cast<std::size_t>(v2)] < needed) any_boost = true;
      diag[static_cast<std::size_t>(v2)] =
          std::max(diag[static_cast<std::size_t>(v2)], needed);
    }
  }
  if (boosted != nullptr) *boosted = any_boost;
  return SymSparse::from_entries(n, diag, pos, val);
}

SymSparse read_matrix_market_file(const std::string& path, bool* boosted,
                                  bool spdize) {
  std::ifstream in(path);
  SPC_CHECK_INPUT(in.good(), "MatrixMarket: cannot open file " + path, 0);
  return read_matrix_market(in, boosted, spdize);
}

void write_matrix_market(std::ostream& out, const SymSparse& m) {
  out << "%%MatrixMarket matrix coordinate real symmetric\n";
  out << m.num_rows() << " " << m.num_rows() << " " << m.nnz_lower() << "\n";
  const auto& ptr = m.col_ptr();
  const auto& row = m.row_idx();
  const auto& val = m.values();
  for (idx c = 0; c < m.num_rows(); ++c) {
    for (i64 k = ptr[static_cast<std::size_t>(c)]; k < ptr[static_cast<std::size_t>(c) + 1];
         ++k) {
      out << row[static_cast<std::size_t>(k)] + 1 << " " << c + 1 << " "
          << val[static_cast<std::size_t>(k)] << "\n";
    }
  }
}

void write_matrix_market_file(const std::string& path, const SymSparse& m) {
  std::ofstream out(path);
  SPC_CHECK(out.good(), "MatrixMarket: cannot open file for writing " + path);
  write_matrix_market(out, m);
}

}  // namespace spc
