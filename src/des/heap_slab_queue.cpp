#include "des/heap_slab_queue.hpp"

#include <algorithm>

namespace des {

// Cold paths of the preserved PR-4 reference queue (see header).

void HeapSlabQueue::compact() {
  std::erase_if(heap_, [this](const Entry& e) { return !entry_live(e); });
  heap_rebuild();
}

void HeapSlabQueue::heap_rebuild() {
  if (heap_.size() < 2) return;
  for (std::size_t i = (heap_.size() - 2) / kHeapArity + 1; i-- > 0;) {
    sift_down(i);
  }
}

}  // namespace des
