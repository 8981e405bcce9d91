#include "src/plan/registry.h"

namespace impeller {
namespace plan {

UdfRegistry& UdfRegistry::RegisterPredicate(std::string name,
                                            FilterOperator::Predicate fn) {
  predicates_[std::move(name)] = std::move(fn);
  return *this;
}

UdfRegistry& UdfRegistry::RegisterMap(std::string name,
                                      MapOperator::MapFn fn) {
  maps_[std::move(name)] = std::move(fn);
  return *this;
}

UdfRegistry& UdfRegistry::RegisterFlatMap(std::string name,
                                          FlatMapOperator::FlatMapFn fn) {
  flat_maps_[std::move(name)] = std::move(fn);
  return *this;
}

UdfRegistry& UdfRegistry::RegisterKey(std::string name, KeyFn fn) {
  keys_[std::move(name)] = std::move(fn);
  return *this;
}

UdfRegistry& UdfRegistry::RegisterAggregate(std::string name, AggregateFn fn) {
  aggregates_[std::move(name)] = std::move(fn);
  return *this;
}

UdfRegistry& UdfRegistry::RegisterJoin(std::string name, JoinFn fn) {
  joins_[std::move(name)] = std::move(fn);
  return *this;
}

namespace {

template <typename M>
const typename M::mapped_type* Lookup(const M& map, std::string_view name) {
  auto it = map.find(name);
  return it == map.end() ? nullptr : &it->second;
}

}  // namespace

const FilterOperator::Predicate* UdfRegistry::Predicate(
    std::string_view name) const {
  return Lookup(predicates_, name);
}

const MapOperator::MapFn* UdfRegistry::Map(std::string_view name) const {
  return Lookup(maps_, name);
}

const FlatMapOperator::FlatMapFn* UdfRegistry::FlatMap(
    std::string_view name) const {
  return Lookup(flat_maps_, name);
}

const KeyFn* UdfRegistry::Key(std::string_view name) const {
  return Lookup(keys_, name);
}

const AggregateFn* UdfRegistry::Aggregate(std::string_view name) const {
  return Lookup(aggregates_, name);
}

const JoinFn* UdfRegistry::Join(std::string_view name) const {
  return Lookup(joins_, name);
}

}  // namespace plan
}  // namespace impeller
