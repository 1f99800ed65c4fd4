// Disk-based aggregate R-tree over 2-D points.
//
// This is the spatial access method assumed by the paper for the customer
// set P (Section 2.3): an R-tree stored in fixed-size pages behind an LRU
// buffer. The paper's algorithms only read it, so a tree is built once and
// never written again. Supported operations:
//   * STR bulk loading (bulk_load.cc), the one way to build a tree,
//   * circular range search and annular range search (RIA),
//   * incremental NN iteration (nn_iterator.h) and grouped incremental
//     all-NN search (ann_iterator.h, paper Section 3.4.2),
//   * delta-bounded partition descent for CA (partition_scan.h).
//
// Every node access is counted; physical I/O is modelled by the buffer
// pool (10 ms per fault, paper Section 5.1).
#ifndef CCA_RTREE_RTREE_H_
#define CCA_RTREE_RTREE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "geo/point.h"
#include "geo/rect.h"
#include "rtree/node.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace cca {

class RTree;

// Per-query I/O attribution for concurrent R-tree reads. The legacy
// accounting (IoScope snapshot-diffing the tree's global counters) breaks
// the moment two queries traverse one tree at once: each diff would charge
// the other query's work too. A tally is instead registered on the
// *current thread* for one specific tree; every ReadNode on that thread
// and tree then bumps it (plus its fault verdict), so a query that runs
// entirely on one worker thread — the runtime's execution model — gets
// exactly its own node accesses and page faults, no matter how many other
// threads hammer the same tree. Tallies nest LIFO per thread (outer scopes
// see inner scopes' work, the IoScope contract).
struct RTreeIoTally {
  std::uint64_t node_accesses = 0;
  std::uint64_t page_faults = 0;
};

class ScopedIoTally {
 public:
  // Registers `tally` for reads of `tree` on the calling thread; a null
  // tree makes the scope a no-op. Must be detached/destroyed on the same
  // thread, in LIFO order.
  ScopedIoTally(const RTree* tree, RTreeIoTally* tally);
  ~ScopedIoTally();

  ScopedIoTally(const ScopedIoTally&) = delete;
  ScopedIoTally& operator=(const ScopedIoTally&) = delete;

  // Stops counting early (idempotent).
  void Detach();

 private:
  friend class RTree;
  const RTree* tree_;
  RTreeIoTally* tally_;
  ScopedIoTally* parent_;  // previous top of this thread's tally stack
};

class RTree {
 public:
  struct Options {
    std::uint32_t page_size = kDefaultPageSize;
    // Buffer pool capacity in pages. The experiment harness later resizes
    // this to 1% of the tree via SetBufferFraction().
    std::uint32_t buffer_pages = 128;
    // Target fill factor for STR bulk loading.
    double bulk_fill = 0.85;
  };

  struct Hit {
    std::uint32_t oid;
    Point pos;
    double dist;  // distance to the query point (0 for pure containment scans)
  };

  RTree();
  explicit RTree(const Options& options);
  ~RTree();

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  // --- construction --------------------------------------------------------

  // Builds a tree from `points` via Sort-Tile-Recursive bulk loading;
  // oid of points[i] is i. Defined in bulk_load.cc.
  static std::unique_ptr<RTree> BulkLoad(const std::vector<Point>& points,
                                         const Options& options);
  static std::unique_ptr<RTree> BulkLoad(const std::vector<Point>& points);

  // --- queries -------------------------------------------------------------

  // All points with dist(center, p) <= radius.
  void RangeSearch(const Point& center, double radius, std::vector<Hit>* out);

  // All points with lo < dist(center, p) <= hi; the annular search RIA uses
  // to extend T by theta (paper Algorithm 2 line 14). lo < 0 degenerates to
  // a plain range search.
  void AnnularRangeSearch(const Point& center, double lo, double hi, std::vector<Hit>* out);

  // --- structure -----------------------------------------------------------

  std::size_t size() const { return size_; }
  int height() const { return height_; }
  PageId root() const { return root_; }
  std::uint32_t page_count() const { return file_.page_count(); }
  Rect bounding_box();

  const Options& options() const { return options_; }

  // Reads and deserialises a node (counted as one logical node access).
  // Safe to call from multiple threads concurrently: the buffer pool
  // serializes page reads, the access counter is atomic, the scratch
  // buffer is thread-local, and the fault verdict is attributed to the
  // calling thread's registered tallies (ScopedIoTally above). Bulk
  // loading, the only writer, runs once on one thread.
  RTreeNode ReadNode(PageId id);

  // Sets the buffer pool to max(1, fraction * page_count) pages and clears
  // it, emulating a cold start with the paper's 1% buffer.
  void SetBufferFraction(double fraction);

  BufferPool& buffer() { return buffer_; }
  std::uint64_t node_accesses() const {
    return node_accesses_.load(std::memory_order_relaxed);
  }
  void ResetCounters();

  // Validates structural invariants (MBR containment, aggregate counts,
  // uniform leaf depth, capacity bounds). Returns false and fills `error`
  // on the first violation. Used by tests.
  bool CheckInvariants(std::string* error);

 private:
  // Serialises `node` into page `id`; BulkLoad is its one caller.
  void WriteNode(PageId id, const RTreeNode& node);

  void RecursiveCheck(PageId page, int depth, const Rect& parent_mbr, std::uint64_t parent_count,
                      bool has_parent, int leaf_depth, bool* ok, std::string* error);

  Options options_;
  PageFile file_;
  BufferPool buffer_;
  PageId root_ = kInvalidPage;
  int height_ = 0;  // number of levels; 0 = empty, 1 = root is a leaf
  std::size_t size_ = 0;
  std::atomic<std::uint64_t> node_accesses_{0};
};

}  // namespace cca

#endif  // CCA_RTREE_RTREE_H_
