// The golden-embedding cases: three graphs of different character
// (regular grid, Delaunay mesh, Erdos-Renyi expander), each embedded by
// lattice_embed with hierarchy coarsest_size=64, rounds_per_level=2,
// seed=3; embed defaults with seed=17; P=4 on the fiber backend.
// tests/test_embed_golden.cpp checks them against golden_embed_coords.hpp,
// and tools/dump_golden_coords writes that header from this same code.
#pragma once

#include <vector>

#include "coarsen/hierarchy.hpp"
#include "comm/engine.hpp"
#include "embed/lattice_parallel.hpp"
#include "graph/generators.hpp"

namespace sp::golden {

inline std::vector<geom::Vec2> embed_p4(const graph::CsrGraph& g) {
  coarsen::HierarchyOptions hopt;
  hopt.coarsest_size = 64;
  hopt.rounds_per_level = 2;
  hopt.seed = 3;
  auto hierarchy = coarsen::Hierarchy::build(g, hopt);
  embed::EmbedWorkspace workspace(hierarchy);
  embed::LatticeEmbedOptions eopt;
  eopt.seed = 17;
  std::vector<geom::Vec2> coords;
  comm::BspEngine::Options bopt;
  bopt.nranks = 4;
  comm::BspEngine engine(bopt);
  engine.run([&](comm::Comm& world) {
    world.set_stage("embed");
    auto emb = embed::lattice_embed(world, workspace, eopt);
    auto gathered = embed::gather_embedding(world, emb, g.num_vertices());
    if (world.rank() == 0) coords = std::move(gathered);
    world.barrier();
  });
  return coords;
}

inline graph::CsrGraph grid12x9() { return graph::gen::grid2d(12, 9).graph; }
inline graph::CsrGraph delaunay300() {
  return graph::gen::delaunay(300, 7).graph;
}
inline graph::CsrGraph erdos_renyi150() {
  return graph::gen::erdos_renyi(150, 450, 11).graph;
}

}  // namespace sp::golden
