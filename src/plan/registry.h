// UdfRegistry: named code handles for the plan IR. A LogicalPlan carries
// only names; the registry maps each name to the actual std::function, and
// lowering resolves every handle against it. Handles carry no dataflow
// metadata: fusion, the only optimizer step, decides from operator kinds
// alone.
#ifndef IMPELLER_SRC_PLAN_REGISTRY_H_
#define IMPELLER_SRC_PLAN_REGISTRY_H_

#include <map>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/core/aggregate.h"
#include "src/core/operators.h"

namespace impeller {
namespace plan {

// All join flavours share the (left, right) -> value signature.
using JoinFn = std::function<std::string(std::string_view, std::string_view)>;
// Key extraction shared by key_by, group_key, and row_key handles.
using KeyFn = std::function<std::string(const StreamRecord&)>;

class UdfRegistry {
 public:
  UdfRegistry& RegisterPredicate(std::string name,
                                 FilterOperator::Predicate fn);
  UdfRegistry& RegisterMap(std::string name, MapOperator::MapFn fn);
  UdfRegistry& RegisterFlatMap(std::string name,
                               FlatMapOperator::FlatMapFn fn);
  UdfRegistry& RegisterKey(std::string name, KeyFn fn);
  UdfRegistry& RegisterAggregate(std::string name, AggregateFn fn);
  UdfRegistry& RegisterJoin(std::string name, JoinFn fn);

  // Lookups return nullptr when unregistered; lowering turns that into an
  // actionable error naming the handle and the register call to make.
  const FilterOperator::Predicate* Predicate(std::string_view name) const;
  const MapOperator::MapFn* Map(std::string_view name) const;
  const FlatMapOperator::FlatMapFn* FlatMap(std::string_view name) const;
  const KeyFn* Key(std::string_view name) const;
  const AggregateFn* Aggregate(std::string_view name) const;
  const JoinFn* Join(std::string_view name) const;

 private:
  std::map<std::string, FilterOperator::Predicate, std::less<>> predicates_;
  std::map<std::string, MapOperator::MapFn, std::less<>> maps_;
  std::map<std::string, FlatMapOperator::FlatMapFn, std::less<>> flat_maps_;
  std::map<std::string, KeyFn, std::less<>> keys_;
  std::map<std::string, AggregateFn, std::less<>> aggregates_;
  std::map<std::string, JoinFn, std::less<>> joins_;
};

}  // namespace plan
}  // namespace impeller

#endif  // IMPELLER_SRC_PLAN_REGISTRY_H_
