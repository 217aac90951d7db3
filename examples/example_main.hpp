// Shared entry-point wrapper for the examples.
//
// Every example defines `int run(int argc, char** argv)` and closes with
// MESHSEARCH_EXAMPLE_MAIN(run). The wrapper catches the typed error
// taxonomy (util/error.hpp) at the top level and prints the structured
// context — which class of failure, which engine/phase/site, and for
// fault-driven errors the seed and occurrence needed to replay it — then
// exits 1. Demonstrates the intended error-handling contract: user code
// catches meshsearch::Error (or a subclass), not raw std::logic_error.
#pragma once

#include <exception>
#include <iostream>

#include "util/error.hpp"

namespace meshsearch::examples {

inline const char* error_kind(const meshsearch::Error& e) {
  if (dynamic_cast<const meshsearch::InvalidInputError*>(&e) != nullptr)
    return "invalid input";
  if (dynamic_cast<const meshsearch::CapacityError*>(&e) != nullptr)
    return "capacity exceeded";
  if (dynamic_cast<const meshsearch::IntegrityError*>(&e) != nullptr)
    return "integrity violation";
  if (dynamic_cast<const meshsearch::CheckFailedError*>(&e) != nullptr)
    return "internal invariant failure";
  return "error";
}

inline int guarded_main(int (*run)(int, char**), int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const meshsearch::Error& e) {
    const auto& ctx = e.context();
    std::cerr << "error (" << error_kind(e) << "): " << e.message() << "\n";
    if (!ctx.engine.empty()) std::cerr << "  engine:     " << ctx.engine << "\n";
    if (!ctx.phase.empty()) std::cerr << "  phase:      " << ctx.phase << "\n";
    if (!ctx.site.empty()) std::cerr << "  site:       " << ctx.site << "\n";
    if (ctx.band >= 0) std::cerr << "  band:       " << ctx.band << "\n";
    if (ctx.has_seed)
      std::cerr << "  replay:     seed=" << ctx.seed
                << " occurrence=" << ctx.occurrence << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace meshsearch::examples

#define MESHSEARCH_EXAMPLE_MAIN(run_fn)                                   \
  int main(int argc, char** argv) {                                       \
    return ::meshsearch::examples::guarded_main(run_fn, argc, argv);      \
  }
