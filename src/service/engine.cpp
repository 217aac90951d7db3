#include "service/engine.hpp"

#include "multisearch/validate.hpp"

namespace meshsearch::service {

std::string engine_key_name(const EngineKey& key) {
  std::string out = key.dataset;
  out += '/';
  out += msearch::engine_kind_name(key.kind);
  return out;
}

Engine& EngineRegistry::add(EngineKey key, std::unique_ptr<Engine> engine) {
  if (engine == nullptr)
    msearch::invalid_input("EngineRegistry::add requires a non-null engine",
                           "EngineRegistry");
  // Stamp the dataset name so a later StaleEngineError can say WHICH
  // structure the engine went stale against.
  engine->set_dataset(key.dataset);
  auto [it, inserted] = engines_.emplace(std::move(key), std::move(engine));
  if (!inserted)
    msearch::invalid_input(
        "engine already registered for key " + engine_key_name(it->first),
        "EngineRegistry");
  return *it->second;
}

Engine* EngineRegistry::find(const EngineKey& key) {
  const auto it = engines_.find(key);
  return it == engines_.end() ? nullptr : it->second.get();
}

Engine& EngineRegistry::at(const EngineKey& key) {
  Engine* e = find(key);
  if (e == nullptr)
    msearch::invalid_input("no engine registered for key " +
                               engine_key_name(key),
                           "EngineRegistry");
  return *e;
}

std::vector<EngineKey> EngineRegistry::keys() const {
  std::vector<EngineKey> out;
  out.reserve(engines_.size());
  for (const auto& [key, engine] : engines_) out.push_back(key);
  return out;
}

}  // namespace meshsearch::service
