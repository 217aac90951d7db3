// A tour of the simulated mesh-connected computer itself: watch the
// physical cycle engine execute the machine model of the paper — shearsort,
// snake prefix scan, greedy routing, and the sort-based concurrent-read
// random access read — and compare measured step counts against the
// counting engine's charged costs.
//
//   $ ./example_mesh_machine [side]
#include <cstdlib>
#include <iostream>

#include "mesh/cost.hpp"
#include "mesh/cycle_ops.hpp"
#include "mesh/grid.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

#include "example_main.hpp"

// GCC 12 fires a spurious -Wmaybe-uninitialized inside std::variant's
// copy-assignment when Table cells are appended in a loop the optimizer
// unrolls; no cell is ever read uninitialized.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

using namespace meshsearch;
using mesh::Grid;
using mesh::MeshShape;

namespace {

void dump_small_grid(const Grid<std::int64_t>& g, const std::string& title) {
  if (g.side() > 8) return;
  std::cout << title << ":\n";
  for (std::uint32_t r = 0; r < g.side(); ++r) {
    for (std::uint32_t c = 0; c < g.side(); ++c)
      std::cout << (c ? " " : "  ") << g.at(r, c);
    std::cout << "\n";
  }
}

}  // namespace

int run(int argc, char** argv) {
  const std::uint32_t side =
      argc > 1 ? static_cast<std::uint32_t>(std::strtoul(argv[1], nullptr, 10))
               : 8u;
  const MeshShape shape(side);
  util::Rng rng(4);
  std::vector<std::int64_t> vals(shape.size());
  for (auto& v : vals) v = rng.uniform_range(0, 99);

  std::cout << "mesh-connected computer: " << side << " x " << side << " = "
            << shape.size() << " processors\n"
            << "machine model: per step, O(1) local work + one word to a "
               "grid neighbour\n\n";

  auto g = Grid<std::int64_t>::from_snake(shape, vals);
  dump_small_grid(g, "initial contents (row-major view)");
  const auto sort_steps = g.shearsort();
  dump_small_grid(g, "after shearsort (sorted along the snake)");

  auto g2 = Grid<std::int64_t>::from_snake(shape, g.to_snake());
  const auto scan_steps = g2.snake_scan(std::plus<std::int64_t>{});

  const auto perm = util::random_permutation(shape.size(), rng);
  const std::vector<std::uint32_t> dest(perm.begin(), perm.end());
  auto g3 = Grid<std::int64_t>::from_snake(shape, vals);
  const auto route_steps = g3.route_permutation(dest);

  // Random access read: every processor fetches the record of a random
  // other processor; duplicates are allowed (concurrent read).
  std::vector<std::int64_t> addr(shape.size());
  for (auto& a : addr) a = static_cast<std::int64_t>(rng.uniform(shape.size()));
  const auto rar = mesh::cycle_random_access_read(shape, vals, addr);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < shape.size(); ++i)
    correct += rar.out[i] == vals[static_cast<std::size_t>(addr[i])];

  const mesh::CostModel charged;
  mesh::CostModel phys;
  phys.physical_sort = true;
  const double p = static_cast<double>(shape.size());
  util::Table t({"operation", "measured steps", "charged (optimal sort)",
                 "charged (shearsort)"});
  t.add_row({std::string("shearsort"), static_cast<double>(sort_steps),
             charged.sort(p).steps, phys.sort(p).steps});
  t.add_row({std::string("snake prefix scan"), static_cast<double>(scan_steps),
             charged.scan(p).steps, phys.scan(p).steps});
  t.add_row({std::string("permutation routing"),
             static_cast<double>(route_steps), charged.route(p).steps,
             phys.route(p).steps});
  t.add_row({std::string("random access read"),
             static_cast<double>(rar.steps), charged.rar(p).steps,
             phys.rar(p).steps});
  std::cout << "\n";
  t.print(std::cout);
  std::cout << "\nRAR answers verified: " << correct << "/" << shape.size()
            << "\n";
  return correct == shape.size() ? 0 : 1;
}

MESHSEARCH_EXAMPLE_MAIN(run)
