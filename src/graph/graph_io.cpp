#include "graph/graph_io.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace sp::graph::io {

namespace {
[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("graph_io: " + what);
}

std::ifstream open_or_fail(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open " + path);
  return in;
}

/// Next non-comment line; comment char '%' (METIS and MM agree). Blank
/// lines are skipped too unless `keep_blank`: inside a METIS body a blank
/// line is a vertex without neighbours.
bool next_line(std::istream& in, std::string* line, bool keep_blank = false) {
  while (std::getline(in, *line)) {
    std::size_t pos = line->find_first_not_of(" \t\r");
    if (pos == std::string::npos) {
      if (keep_blank) return true;
      continue;
    }
    if ((*line)[pos] == '%' || (*line)[pos] == '#') continue;
    return true;
  }
  return false;
}

/// The whitespace-separated integers of one line, parsed in place: a METIS
/// body row is read without building a stream for it.
class RowTokens {
 public:
  explicit RowTokens(const std::string& line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  /// Reads the next integer into `out`; false at the end of the line. A
  /// token that is not an integer in range of T is an error.
  template <typename T>
  bool next(T* out) {
    while (p_ < end_ && is_space(*p_)) ++p_;
    if (p_ == end_) return false;
    auto [ptr, ec] = std::from_chars(p_, end_, *out);
    if (ec != std::errc() || (ptr < end_ && !is_space(*ptr))) {
      fail("bad number in METIS row");
    }
    p_ = ptr;
    return true;
  }

 private:
  static bool is_space(char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
  }

  const char* p_;
  const char* end_;
};
}  // namespace

CsrGraph read_metis(std::istream& in) {
  std::string line;
  if (!next_line(in, &line)) fail("empty METIS file");
  std::istringstream header(line);
  std::uint64_t n = 0, m = 0;
  std::string fmt = "0";
  header >> n >> m;
  if (header.fail()) fail("bad METIS header");
  header >> fmt;  // optional
  bool has_eweights = fmt.size() >= 1 && fmt[fmt.size() - 1] == '1';
  bool has_vweights = fmt.size() >= 2 && fmt[fmt.size() - 2] == '1';

  if (n >= kInvalidVertex) fail("too many vertices");
  GraphBuilder builder(static_cast<VertexId>(n));
  builder.reserve_edges(m);
  for (std::uint64_t v = 0; v < n; ++v) {
    if (!next_line(in, &line, /*keep_blank=*/true)) {
      fail("truncated METIS file");
    }
    RowTokens row(line);
    if (has_vweights) {
      Weight w = 0;
      if (!row.next(&w)) fail("missing vertex weight");
      builder.set_vertex_weight(static_cast<VertexId>(v), w);
    }
    std::uint64_t nbr = 0;
    while (row.next(&nbr)) {
      if (nbr == 0 || nbr > n) fail("neighbor index out of range");
      Weight w = 1;
      if (has_eweights && !row.next(&w)) fail("missing edge weight");
      // METIS is 1-based and lists each edge from both sides; add once.
      auto u = static_cast<VertexId>(v);
      auto x = static_cast<VertexId>(nbr - 1);
      if (u < x) builder.add_edge(u, x, w);
    }
  }
  CsrGraph g = builder.build();
  if (g.num_edges() != m) {
    // Tolerate files that disagree slightly (some exporters count loops);
    // still a structural red flag worth surfacing.
    // Not fatal: proceed with the parsed edges.
  }
  return g;
}

CsrGraph read_metis_file(const std::string& path) {
  auto in = open_or_fail(path);
  return read_metis(in);
}

void write_metis(const CsrGraph& g, std::ostream& out) {
  bool weighted_edges = false;
  for (Weight w : g.edge_weights()) {
    if (w != 1) {
      weighted_edges = true;
      break;
    }
  }
  bool weighted_vertices = false;
  for (Weight w : g.vertex_weights()) {
    if (w != 1) {
      weighted_vertices = true;
      break;
    }
  }
  out << g.num_vertices() << ' ' << g.num_edges();
  if (weighted_edges || weighted_vertices) {
    out << ' ' << (weighted_vertices ? "1" : "0") << (weighted_edges ? "1" : "0");
  }
  out << '\n';
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    bool first = true;
    if (weighted_vertices) {
      out << g.vertex_weight(v);
      first = false;
    }
    auto nbrs = g.neighbors(v);
    auto ws = g.edge_weights_of(v);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      if (!first) out << ' ';
      first = false;
      out << (nbrs[k] + 1);
      if (weighted_edges) out << ' ' << ws[k];
    }
    out << '\n';
  }
}

void write_metis_file(const CsrGraph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) fail("cannot write " + path);
  write_metis(g, out);
}

CsrGraph read_matrix_market(std::istream& in) {
  std::string line;
  // Header line starts with %%MatrixMarket; we accept any coordinate
  // pattern/real/integer general/symmetric matrix.
  if (!std::getline(in, line)) fail("empty MatrixMarket file");
  if (line.rfind("%%MatrixMarket", 0) != 0) fail("missing MatrixMarket banner");
  if (line.find("coordinate") == std::string::npos) {
    fail("only coordinate MatrixMarket supported");
  }
  if (!next_line(in, &line)) fail("missing MM size line");
  std::istringstream size_line(line);
  std::uint64_t rows = 0, cols = 0, nnz = 0;
  size_line >> rows >> cols >> nnz;
  if (size_line.fail()) fail("bad MM size line");
  if (rows != cols) fail("matrix must be square to form a graph");
  if (rows >= kInvalidVertex) fail("too many vertices");

  GraphBuilder builder(static_cast<VertexId>(rows));
  builder.reserve_edges(nnz);
  for (std::uint64_t k = 0; k < nnz; ++k) {
    if (!next_line(in, &line)) fail("truncated MM file");
    std::istringstream entry(line);
    std::uint64_t i = 0, j = 0;
    entry >> i >> j;  // any trailing value ignored
    if (entry.fail() || i == 0 || j == 0 || i > rows || j > cols) {
      fail("bad MM entry");
    }
    if (i == j) continue;
    auto u = static_cast<VertexId>(i - 1);
    auto v = static_cast<VertexId>(j - 1);
    if (u > v) std::swap(u, v);
    builder.add_edge(u, v, 1);
  }
  // Duplicates (from general storage listing both (i,j) and (j,i)) were
  // merged by the builder with summed weight; normalise weights back to 1.
  CsrGraph merged = builder.build();
  std::vector<Weight> unit(merged.num_arcs(), 1);
  return CsrGraph(std::vector<EdgeIndex>(merged.xadj()),
                  std::vector<VertexId>(merged.adjncy()),
                  std::vector<Weight>(merged.vertex_weights()), std::move(unit));
}

CsrGraph read_matrix_market_file(const std::string& path) {
  auto in = open_or_fail(path);
  return read_matrix_market(in);
}

void write_coords(const std::vector<geom::Vec2>& coords, std::ostream& out) {
  for (const auto& p : coords) out << p[0] << ' ' << p[1] << '\n';
}

std::vector<geom::Vec2> read_coords(std::istream& in) {
  std::vector<geom::Vec2> coords;
  double x, y;
  while (in >> x >> y) coords.push_back(geom::vec2(x, y));
  return coords;
}

}  // namespace sp::graph::io
