#include "src/oracle.h"

#include <algorithm>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>

#include "src/common/serde.h"
#include "src/nexmark/udfs.h"

namespace perfbench {

namespace {

// Which record fields a multiset comparison looks at besides the key.
enum class Fields { kValueAndTime, kValue, kTime };

uint64_t RecordHash(const CommittedRecord& r, Fields fields) {
  std::string flat = r.key;
  flat += '\x1f';
  if (fields != Fields::kTime) {
    flat += r.value;
  }
  flat += '\x1f';
  if (fields != Fields::kValue) {
    flat += std::to_string(r.event_time);
  }
  return std::hash<std::string>{}(flat);
}

Mismatch CompareMultisets(const Committed& live, const Committed& reference,
                          Fields fields) {
  std::unordered_map<uint64_t, int64_t> balance;
  for (const auto& r : reference) {
    ++balance[RecordHash(r, fields)];
  }
  for (const auto& r : live) {
    --balance[RecordHash(r, fields)];
  }
  Mismatch m;
  m.reference = reference.size();
  for (const auto& [hash, n] : balance) {
    if (n > 0) {
      m.missing += static_cast<uint64_t>(n);
    } else {
      m.extra += static_cast<uint64_t>(-n);
    }
  }
  return m;
}

// Q5 sink value: (window start, auction, bid count).
uint64_t Q5Count(const std::string& value) {
  impeller::BinaryReader reader(value);
  auto start = reader.ReadVarI64();
  auto auction = reader.ReadStringView();
  auto count = reader.ReadVarU64();
  return start.ok() && auction.ok() && count.ok() ? *count : 0;
}

struct WindowFinals {
  std::map<std::string, uint64_t> count;  // window start -> final max count
  uint64_t regressions = 0;  // updates below their window's previous value
};

WindowFinals Q5Finals(const Committed& records) {
  std::map<std::pair<uint32_t, std::string>, uint64_t> last;
  WindowFinals out;
  for (const auto& r : records) {
    uint64_t count = Q5Count(r.value);
    auto [it, inserted] = last.try_emplace({r.substream, r.key}, count);
    if (!inserted) {
      out.regressions += count < it->second ? 1 : 0;
      it->second = count;
    }
  }
  for (const auto& [where, count] : last) {
    out.count[where.second] = count;
  }
  return out;
}

Mismatch CompareWindowFinals(const Committed& live,
                             const Committed& reference) {
  WindowFinals got = Q5Finals(live);
  WindowFinals want = Q5Finals(reference);
  Mismatch m;
  m.reference = want.count.size();
  m.extra = got.regressions;
  for (const auto& [window, count] : want.count) {
    auto it = got.count.find(window);
    m.missing += it == got.count.end() || it->second != count ? 1 : 0;
  }
  for (const auto& [window, count] : got.count) {
    m.extra += want.count.count(window) == 0 ? 1 : 0;
  }
  return m;
}

}  // namespace

Committed ConvertedBids(const std::vector<InputEvent>& sent) {
  Committed out;
  out.reserve(sent.size());
  for (const auto& e : sent) {
    impeller::StreamRecord r{e.key, e.value, e.due};
    if (e.stream != "bids" || !impeller::nexmark::NonEmptyValue(r)) {
      continue;
    }
    r = impeller::nexmark::ConvertUsdToEur(std::move(r));
    out.push_back({0, std::move(r.key), std::move(r.value), r.event_time});
  }
  return out;
}

Mismatch Compare(int query, const Committed& live,
                 const Committed& reference) {
  if (query == 5) {
    return CompareWindowFinals(live, reference);
  }
  if (query != 8) {
    return CompareMultisets(live, reference, Fields::kValueAndTime);
  }
  Mismatch counts = CompareMultisets(live, reference, Fields::kValue);
  Mismatch times = CompareMultisets(live, reference, Fields::kTime);
  counts.missing = std::max(counts.missing, times.missing);
  counts.extra = std::max(counts.extra, times.extra);
  return counts;
}

std::string SelfTest(int query, const Committed& live) {
  if (live.size() < 2) {
    return "too little committed output to mutate";
  }
  Committed dropped = live;
  Committed duplicated = live;
  if (query == 5) {
    // A window's final count may be committed several times, so the drop
    // removes its final update together with those repeats, and the
    // duplicate re-commits the last lower update after them.
    std::map<std::pair<uint32_t, std::string>, std::vector<size_t>> updates;
    for (size_t i = 0; i < live.size(); ++i) {
      updates[{live[i].substream, live[i].key}].push_back(i);
    }
    bool found = false;
    for (const auto& [where, idx] : updates) {
      uint64_t final_count = Q5Count(live[idx.back()].value);
      auto lower = std::find_if(idx.rbegin(), idx.rend(), [&](size_t i) {
        return Q5Count(live[i].value) < final_count;
      });
      if (lower == idx.rend()) {
        continue;
      }
      std::vector<bool> keep(live.size(), true);
      for (auto it = idx.rbegin(); it != lower; ++it) {
        keep[*it] = false;
      }
      dropped.clear();
      for (size_t i = 0; i < live.size(); ++i) {
        if (keep[i]) {
          dropped.push_back(live[i]);
        }
      }
      duplicated.insert(
          duplicated.begin() + static_cast<ptrdiff_t>(idx.back()) + 1,
          live[*lower]);
      found = true;
      break;
    }
    if (!found) {
      return "no window whose count rose to mutate";
    }
  } else {
    dropped.erase(dropped.begin() + static_cast<ptrdiff_t>(live.size() / 2));
    duplicated.push_back(live[live.size() / 3]);
  }
  if (Compare(query, live, live).errors() != 0) {
    return "output does not match itself";
  }
  if (Compare(query, dropped, live).errors() == 0) {
    return "dropped record not flagged";
  }
  if (Compare(query, duplicated, live).errors() == 0) {
    return "duplicate record not flagged";
  }
  return "";
}

}  // namespace perfbench
