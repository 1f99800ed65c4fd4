#include "rtree/rtree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace cca {
namespace {

// Per-thread page-size I/O buffer: ReadNode must not share scratch space
// across threads (concurrent queries traverse one tree), and a per-call
// heap allocation on the node-access hot path would be pure overhead.
std::vector<std::uint8_t>& TlsScratch(std::uint32_t page_size) {
  thread_local std::vector<std::uint8_t> scratch;
  if (scratch.size() < page_size) scratch.resize(page_size);
  return scratch;
}

// Top of the calling thread's ScopedIoTally stack.
thread_local ScopedIoTally* tls_tally_top = nullptr;

}  // namespace

ScopedIoTally::ScopedIoTally(const RTree* tree, RTreeIoTally* tally)
    : tree_(tree), tally_(tally), parent_(tls_tally_top) {
  if (tree_ != nullptr) tls_tally_top = this;
}

ScopedIoTally::~ScopedIoTally() { Detach(); }

void ScopedIoTally::Detach() {
  if (tree_ == nullptr) return;
  assert(tls_tally_top == this && "ScopedIoTally must detach in LIFO order");
  tls_tally_top = parent_;
  tree_ = nullptr;
}

RTree::RTree() : RTree(Options{}) {}

RTree::RTree(const Options& options)
    : options_(options), file_(options.page_size), buffer_(&file_, options.buffer_pages) {}

RTree::~RTree() = default;

RTreeNode RTree::ReadNode(PageId id) {
  node_accesses_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::uint8_t>& scratch = TlsScratch(options_.page_size);
  bool faulted = false;
  const Status status = buffer_.ReadPage(id, scratch.data(), &faulted);
  if (!status.ok()) {
    // Deep traversal has no recovery path of its own: the pool already
    // exhausted its bounded retry budget (or the id itself is invalid,
    // which is a tree-construction bug), so fail fast rather than
    // deserialize garbage. Injected faults never reach here by
    // construction (max_consecutive_faults < kMaxReadRetries).
    std::fprintf(stderr, "RTree::ReadNode: unrecoverable page read: %s\n",
                 status.ToString().c_str());
    std::abort();
  }
  // Attribute the access (and its fault verdict) to every tally this
  // thread has registered for this tree — nested scopes all see it.
  for (ScopedIoTally* s = tls_tally_top; s != nullptr; s = s->parent_) {
    if (s->tree_ == this) {
      ++s->tally_->node_accesses;
      if (faulted) ++s->tally_->page_faults;
    }
  }
  return RTreeNode::Deserialize(scratch.data(), options_.page_size);
}

void RTree::WriteNode(PageId id, const RTreeNode& node) {
  std::vector<std::uint8_t>& scratch = TlsScratch(options_.page_size);
  node.Serialize(scratch.data(), options_.page_size);
  const Status status = buffer_.WritePage(id, scratch.data());
  if (!status.ok()) {
    // Writes happen only at build time against ids this tree allocated;
    // a failure here is a construction bug, not a runtime condition.
    std::fprintf(stderr, "RTree::WriteNode: %s\n", status.ToString().c_str());
    std::abort();
  }
}

void RTree::SetBufferFraction(double fraction) {
  const auto pages = static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(fraction * static_cast<double>(file_.page_count()))));
  buffer_.SetCapacity(pages);
  buffer_.Clear();
}

void RTree::ResetCounters() {
  node_accesses_.store(0, std::memory_order_relaxed);
  buffer_.ResetStats();
  file_.ResetStats();
}

Rect RTree::bounding_box() {
  if (root_ == kInvalidPage) return Rect{};
  return ReadNode(root_).ComputeMbr();
}

// --- queries -----------------------------------------------------------------

void RTree::RangeSearch(const Point& center, double radius, std::vector<Hit>* out) {
  AnnularRangeSearch(center, -1.0, radius, out);
}

void RTree::AnnularRangeSearch(const Point& center, double lo, double hi,
                               std::vector<Hit>* out) {
  out->clear();
  if (root_ == kInvalidPage || hi < 0) return;
  std::vector<PageId> stack{root_};
  while (!stack.empty()) {
    const PageId page = stack.back();
    stack.pop_back();
    const RTreeNode node = ReadNode(page);
    if (node.is_leaf) {
      for (const auto& e : node.leaf_entries) {
        const double d = Distance(center, e.pos);
        if (d <= hi && d > lo) out->push_back(Hit{e.oid, e.pos, d});
      }
    } else {
      for (const auto& e : node.entries) {
        // Prune subtrees entirely outside (lo, hi]: too far (mindist > hi)
        // or fully inside the inner disk (maxdist <= lo).
        if (MinDist(center, e.mbr) > hi) continue;
        if (lo >= 0 && MaxDist(center, e.mbr) <= lo) continue;
        stack.push_back(e.child);
      }
    }
  }
}

// --- validation ----------------------------------------------------------------

void RTree::RecursiveCheck(PageId page, int depth, const Rect& parent_mbr,
                           std::uint64_t parent_count, bool has_parent, int leaf_depth, bool* ok,
                           std::string* error) {
  if (!*ok) return;
  const RTreeNode node = ReadNode(page);
  const Rect mbr = node.ComputeMbr();
  if (has_parent) {
    if (!(parent_mbr == mbr)) {
      *ok = false;
      *error = "parent MBR is not tight around child node";
      return;
    }
    if (parent_count != node.TotalCount()) {
      *ok = false;
      *error = "aggregate count mismatch";
      return;
    }
  }
  if (node.is_leaf) {
    if (depth != leaf_depth) {
      *ok = false;
      *error = "leaves at different depths";
      return;
    }
    if (node.leaf_entries.size() > RTreeNode::LeafCapacity(options_.page_size)) {
      *ok = false;
      *error = "leaf over capacity";
    }
    return;
  }
  if (node.entries.size() > RTreeNode::InternalCapacity(options_.page_size)) {
    *ok = false;
    *error = "internal node over capacity";
    return;
  }
  if (node.entries.empty()) {
    *ok = false;
    *error = "empty internal node";
    return;
  }
  for (const auto& e : node.entries) {
    RecursiveCheck(e.child, depth + 1, e.mbr, e.count, true, leaf_depth, ok, error);
  }
}

bool RTree::CheckInvariants(std::string* error) {
  if (root_ == kInvalidPage) return true;
  bool ok = true;
  std::string local;
  RecursiveCheck(root_, 1, Rect{}, 0, false, height_, &ok, &local);
  if (!ok && error != nullptr) *error = local;
  // The advertised size must match the aggregate count.
  if (ok) {
    const RTreeNode root_node = ReadNode(root_);
    if (root_node.TotalCount() != size_) {
      ok = false;
      if (error != nullptr) *error = "size() does not match aggregate root count";
    }
  }
  return ok;
}

}  // namespace cca
