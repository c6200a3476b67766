#include "serve/task_mirror.h"

#include <cassert>

#include "util/math.h"

namespace pfair::serve {

namespace {

/// splitmix64 finalizer — full avalanche over 64 bits.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t mirror_mix_lo(std::int64_t execution, std::int64_t period) noexcept {
  return mix64(mix64(static_cast<std::uint64_t>(execution)) ^
               mix64(static_cast<std::uint64_t>(period) ^ 0xD6E8FEB86659FD93ull));
}

std::uint64_t mirror_mix_hi(std::int64_t execution, std::int64_t period) noexcept {
  return mix64(mix64(static_cast<std::uint64_t>(execution) ^ 0xA24BAED4963EE407ull) ^
               mix64(static_cast<std::uint64_t>(period) ^ 0x9FB21C651E98DF25ull));
}

const UniTask* TaskMirror::find(TaskId id) const noexcept {
  if (id >= tasks_.size() || tasks_[id].period == 0) return nullptr;
  return &tasks_[id];
}

void TaskMirror::add_aggregates(const UniTask& t) {
  total_.add(t.execution, t.period);
  fp_lo_ += mirror_mix_lo(t.execution, t.period);
  fp_hi_ += mirror_mix_hi(t.execution, t.period);
  ++classes_[{t.period, t.execution}];
}

void TaskMirror::remove_aggregates(const UniTask& t) {
  total_.sub(t.execution, t.period);
  fp_lo_ -= mirror_mix_lo(t.execution, t.period);
  fp_hi_ -= mirror_mix_hi(t.execution, t.period);
  const auto it = classes_.find({t.period, t.execution});
  if (it != classes_.end() && --it->second == 0) classes_.erase(it);
}

void TaskMirror::upsert(TaskId id, const UniTask& t) {
  assert(id != kNoTask && t.period > 0);
  if (id >= tasks_.size()) tasks_.resize(std::size_t{id} + 1, UniTask{0, 0});
  UniTask& slot = tasks_[id];
  if (slot.period != 0) {
    remove_aggregates(slot);
  } else {
    ++size_;
  }
  slot = t;
  add_aggregates(t);
}

bool TaskMirror::erase(TaskId id) {
  if (find(id) == nullptr) return false;
  remove_aggregates(tasks_[id]);
  tasks_[id] = UniTask{0, 0};
  --size_;
  return true;
}

WeightSum::View TaskMirror::total_with(const UniTask& extra, TaskId exclude) const {
  const UniTask* ex = find(exclude);
  return total_.with(extra.valid() ? Weight{extra.execution, extra.period} : Weight{},
                     ex != nullptr ? Weight{ex->execution, ex->period} : Weight{});
}

std::size_t TaskMirror::count_excluding(TaskId exclude) const {
  return find(exclude) == nullptr ? size_ : size_ - 1;
}

UniTask TaskMirror::u_max_with(const UniTask& candidate, TaskId exclude) const {
  const UniTask* ex = find(exclude);
  UniTask best = candidate;
  for (const auto& [key, count] : classes_) {
    // The excluded task hides its class only when it is the sole member.
    if (ex != nullptr && count == 1 && key.first == ex->period && key.second == ex->execution)
      continue;
    if (ratio_less(best.execution, best.period, key.second, key.first))
      best = UniTask{key.second, key.first};
  }
  return best;
}

MirrorFingerprint TaskMirror::fingerprint_with(const UniTask& extra,
                                               TaskId exclude) const {
  MirrorFingerprint fp{fp_lo_, fp_hi_};
  if (extra.valid()) {
    fp.lo += mirror_mix_lo(extra.execution, extra.period);
    fp.hi += mirror_mix_hi(extra.execution, extra.period);
  }
  if (const UniTask* ex = find(exclude)) {
    fp.lo -= mirror_mix_lo(ex->execution, ex->period);
    fp.hi -= mirror_mix_hi(ex->execution, ex->period);
  }
  return fp;
}

std::vector<UniTask> TaskMirror::workload_with(const UniTask& extra,
                                               TaskId exclude) const {
  std::vector<UniTask> out;
  out.reserve(size_ + 1);
  const UniTask* ex = find(exclude);
  const bool has_extra = extra.valid();
  const std::pair<std::int64_t, std::int64_t> xkey{extra.period, extra.execution};
  bool extra_emitted = false;
  for (const auto& [key, count] : classes_) {
    std::int64_t c = count;
    if (ex && key.first == ex->period && key.second == ex->execution) --c;
    if (has_extra && !extra_emitted) {
      if (xkey == key) {
        ++c;
        extra_emitted = true;
      } else if (xkey < key) {
        out.push_back(extra);
        extra_emitted = true;
      }
    }
    for (std::int64_t i = 0; i < c; ++i)
      out.push_back(UniTask{key.second, key.first});
  }
  if (has_extra && !extra_emitted) out.push_back(extra);
  return out;
}

std::vector<UniTask> TaskMirror::by_id_with(const UniTask& extra, TaskId exclude) const {
  std::vector<UniTask> out;
  out.reserve(size_ + 1);
  for (std::size_t id = 0; id < tasks_.size(); ++id)
    if (tasks_[id].period != 0 && id != exclude) out.push_back(tasks_[id]);
  out.push_back(extra);
  return out;
}

}  // namespace pfair::serve
