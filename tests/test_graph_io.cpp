// Tests for METIS / MatrixMarket / coordinate I/O.
#include <gtest/gtest.h>

#include <sstream>

#include "graph/generators.hpp"
#include "graph/graph_io.hpp"

namespace sp::graph::io {
namespace {

TEST(GraphIo, MetisRoundTripUnweighted) {
  auto g = gen::delaunay(200, 1).graph;
  std::stringstream ss;
  write_metis(g, ss);
  CsrGraph back = read_metis(ss);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.num_edges(), g.num_edges());
  EXPECT_EQ(back.adjncy(), g.adjncy());
}

TEST(GraphIo, MetisRoundTripWeighted) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 3);
  b.add_edge(1, 2, 5);
  b.add_edge(2, 3, 1);
  b.set_vertex_weight(0, 2);
  b.set_vertex_weight(3, 9);
  CsrGraph g = b.build();
  std::stringstream ss;
  write_metis(g, ss);
  CsrGraph back = read_metis(ss);
  EXPECT_EQ(back.vertex_weight(0), 2);
  EXPECT_EQ(back.vertex_weight(3), 9);
  EXPECT_EQ(back.edge_weights(), g.edge_weights());
}

TEST(GraphIo, MetisParsesCommentsAndHeader) {
  std::stringstream ss("% a comment\n3 2\n2 3\n1\n1\n");
  CsrGraph g = read_metis(ss);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.neighbors(0)[0], 1u);
}

// write_metis writes a vertex without neighbours as a blank line; it must
// read back as that vertex, wherever it sits in the body.
TEST(GraphIo, MetisRoundTripIsolatedVertices) {
  for (Weight w : {Weight{1}, Weight{3}}) {  // unweighted, edge-weighted
    GraphBuilder b(7);  // vertices 0, 3 and 6 are isolated
    b.add_edge(1, 2, w);
    b.add_edge(2, 4, 1);
    b.add_edge(4, 5, 1);
    b.add_edge(1, 5, 1);
    CsrGraph g = b.build();
    std::stringstream ss;
    write_metis(g, ss);
    CsrGraph back = read_metis(ss);
    EXPECT_EQ(back.num_vertices(), 7u);
    EXPECT_EQ(back.xadj(), g.xadj());
    EXPECT_EQ(back.adjncy(), g.adjncy());
    EXPECT_EQ(back.edge_weights(), g.edge_weights());
  }
  // Comment lines between rows are still skipped, and blank lines after
  // the last row are ignored.
  std::stringstream ss("3 1\n% c\n\n% c\n3\n2\n\n\n");
  CsrGraph g = read_metis(ss);
  ASSERT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.neighbors(0).empty());
  EXPECT_EQ(g.neighbors(1)[0], 2u);
}

TEST(GraphIo, MetisRejectsGarbage) {
  std::stringstream empty("");
  EXPECT_THROW(read_metis(empty), std::runtime_error);
  std::stringstream bad_header("x y\n");
  EXPECT_THROW(read_metis(bad_header), std::runtime_error);
  std::stringstream out_of_range("2 1\n5\n1\n");
  EXPECT_THROW(read_metis(out_of_range), std::runtime_error);
  // A row token that is not a whole integer is an error, not the row's end.
  for (const char* row : {"2 1\n2x\n1\n", "2 1\n2 %\n1\n", "2 1\n-2\n1\n"}) {
    std::stringstream bad_token(row);
    EXPECT_THROW(read_metis(bad_token), std::runtime_error) << row;
  }
  std::stringstream missing_weight("2 1 1\n2\n1 1\n");
  EXPECT_THROW(read_metis(missing_weight), std::runtime_error);
}

TEST(GraphIo, MatrixMarketSymmetricPattern) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "4 4 4\n"
      "2 1\n"
      "3 2\n"
      "4 3\n"
      "1 1\n");  // diagonal dropped
  CsrGraph g = read_matrix_market(ss);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);  // path 0-1-2-3
  for (Weight w : g.edge_weights()) EXPECT_EQ(w, 1);
}

TEST(GraphIo, MatrixMarketGeneralDuplicatesCollapse) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 4\n"
      "1 2 0.5\n"
      "2 1 0.5\n"
      "2 3 1.0\n"
      "3 2 1.0\n");
  CsrGraph g = read_matrix_market(ss);
  EXPECT_EQ(g.num_edges(), 2u);
  for (Weight w : g.edge_weights()) EXPECT_EQ(w, 1);  // unit-normalised
}

TEST(GraphIo, MatrixMarketRejectsNonSquareAndBadBanner) {
  std::stringstream rect(
      "%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 2\n");
  EXPECT_THROW(read_matrix_market(rect), std::runtime_error);
  std::stringstream nobanner("2 2 1\n1 2\n");
  EXPECT_THROW(read_matrix_market(nobanner), std::runtime_error);
}

TEST(GraphIo, CoordsRoundTrip) {
  std::vector<geom::Vec2> coords = {geom::vec2(0.5, -1.25),
                                    geom::vec2(3.0, 4.0)};
  std::stringstream ss;
  write_coords(coords, ss);
  auto back = read_coords(ss);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_DOUBLE_EQ(back[0][1], -1.25);
  EXPECT_DOUBLE_EQ(back[1][0], 3.0);
}

}  // namespace
}  // namespace sp::graph::io
