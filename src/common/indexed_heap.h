// Binary min-heap with decrease-key, addressed by dense integer node ids.
//
// Both the SSPA baseline and the incremental engine run Dijkstra with
// decrease-key; the PUA optimisation (paper Section 3.4.1) additionally
// needs to decrease keys of entries that are still inside the previous
// run's heap, which rules out lazy-deletion heaps.
#ifndef CCA_COMMON_INDEXED_HEAP_H_
#define CCA_COMMON_INDEXED_HEAP_H_

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace cca {

class IndexedHeap {
 public:
  IndexedHeap() = default;
  explicit IndexedHeap(std::size_t n) { Resize(n); }

  // Grows the id space to at least `n` ids (existing content preserved).
  void Resize(std::size_t n) {
    if (pos_.size() < n) {
      pos_.resize(n, -1);
      key_.resize(n, 0.0);
    }
  }

  void Clear() {
    for (int id : heap_) pos_[static_cast<std::size_t>(id)] = -1;
    heap_.clear();
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  // The queued ids, in heap order.
  const std::vector<int>& ids() const { return heap_; }

  bool Contains(int id) const {
    return static_cast<std::size_t>(id) < pos_.size() && pos_[static_cast<std::size_t>(id)] >= 0;
  }

  double KeyOf(int id) const { return key_[static_cast<std::size_t>(id)]; }

  // Inserts `id` or lowers its key; raising an existing key is ignored
  // (Dijkstra relaxations only ever decrease).
  void PushOrDecrease(int id, double key) {
    Resize(static_cast<std::size_t>(id) + 1);
    const auto uid = static_cast<std::size_t>(id);
    if (pos_[uid] < 0) {
      key_[uid] = key;
      pos_[uid] = static_cast<int>(heap_.size());
      heap_.push_back(id);
      SiftUp(static_cast<std::size_t>(pos_[uid]));
    } else if (key < key_[uid]) {
      key_[uid] = key;
      SiftUp(static_cast<std::size_t>(pos_[uid]));
    }
  }

  // Minimum element without removal. Heap must be non-empty.
  std::pair<int, double> Min() const {
    assert(!heap_.empty());
    return {heap_[0], key_[static_cast<std::size_t>(heap_[0])]};
  }

  std::pair<int, double> PopMin() {
    assert(!heap_.empty());
    const int id = heap_[0];
    const double key = key_[static_cast<std::size_t>(id)];
    Remove(id);
    return {id, key};
  }

  // Removes an arbitrary element.
  void Remove(int id) {
    const auto uid = static_cast<std::size_t>(id);
    assert(pos_[uid] >= 0);
    const auto hole = static_cast<std::size_t>(pos_[uid]);
    pos_[uid] = -1;
    const int last = heap_.back();
    heap_.pop_back();
    if (hole < heap_.size()) {
      heap_[hole] = last;
      pos_[static_cast<std::size_t>(last)] = static_cast<int>(hole);
      SiftDown(hole);
      SiftUp(static_cast<std::size_t>(pos_[static_cast<std::size_t>(last)]));
    }
  }

 private:
  void SiftUp(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (Key(parent) <= Key(i)) break;
      Swap(i, parent);
      i = parent;
    }
  }

  void SiftDown(std::size_t i) {
    while (true) {
      const std::size_t l = 2 * i + 1;
      const std::size_t r = 2 * i + 2;
      std::size_t smallest = i;
      if (l < heap_.size() && Key(l) < Key(smallest)) smallest = l;
      if (r < heap_.size() && Key(r) < Key(smallest)) smallest = r;
      if (smallest == i) break;
      Swap(i, smallest);
      i = smallest;
    }
  }

  double Key(std::size_t slot) const { return key_[static_cast<std::size_t>(heap_[slot])]; }

  void Swap(std::size_t a, std::size_t b) {
    std::swap(heap_[a], heap_[b]);
    pos_[static_cast<std::size_t>(heap_[a])] = static_cast<int>(a);
    pos_[static_cast<std::size_t>(heap_[b])] = static_cast<int>(b);
  }

  std::vector<int> heap_;
  std::vector<int> pos_;
  std::vector<double> key_;
};

}  // namespace cca

#endif  // CCA_COMMON_INDEXED_HEAP_H_
