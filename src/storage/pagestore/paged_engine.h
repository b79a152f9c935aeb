// PagedEngine: the larger-than-memory storage engine.
//
// Layout — a two-tier LSM-flavored design kept deliberately small:
//
//   * A skiplist memtable (`mem_`) holds recently-mutated records; it is
//     the pure-RAM fast path for hot keys. Invariant: when a key is
//     present in mem_, its version is >= any version the page tier holds,
//     so mem_ always wins reads and version checks without IO.
//   * Pages partition the key space by range (page_index_: lower bound ->
//     PageId) and hold encoded record runs on the PageFile. Reads of keys
//     absent from mem_ fault the covering page into the BufferPool
//     (accruing simulated disk-read latency); mutations of such keys fault
//     the page only to version-check, then land in mem_.
//   * When mem_ exceeds memtable_spill_bytes it is merged into the page
//     frames (marking them dirty, splitting pages that outgrow page_bytes)
//     and reset — the only path by which page contents change.
//   * Dirty frames queue FIFO for asynchronous write-back on an EventLoop
//     timer; the WAL is synced before pages are encoded (log-before-data),
//     so a crash between write-back and WAL tail is recovered by replaying
//     the surviving WAL prefix over the surviving pages — the same
//     torn-tail-tolerant ReadWal the RAM engine recovery uses.
//   * Eviction keeps pool residency under buffer_pool_bytes: clean frames
//     go first (clock sweep); when only dirty frames remain one is
//     written back synchronously (a "forced" write-back, accrued as IO).
//
// Counter parity: puts/puts_superseded/deletes/gets/get_misses/multigets/
// scans/scan_rows/wal_appends/wal_batch_syncs match the RAM engine on the
// same op trace; paging adds page_faults, pages_written_back,
// forced_writebacks, page_splits, spills, pool_evictions, budget_overruns,
// bytes_resident.

#ifndef SCADS_STORAGE_PAGESTORE_PAGED_ENGINE_H_
#define SCADS_STORAGE_PAGESTORE_PAGED_ENGINE_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/execution_backend.h"
#include "storage/engine.h"
#include "storage/pagestore/page_store.h"
#include "storage/skiplist.h"

namespace scads {

/// PagedEngine construction knobs. Superset of EngineOptions plus the
/// paged-tier config and an optional external PageFile.
struct PagedEngineOptions {
  uint64_t seed = 1;
  /// Optional write-ahead log, same contract as EngineOptions::wal.
  WalSink* wal = nullptr;
  bool wal_sync_every_write = false;
  PagedStorageConfig config;
  /// When set, pages live in this externally-owned file (which then
  /// survives engine teardown — the durable disk crash tests recover
  /// from). When null the engine owns a private file.
  PageFile* file = nullptr;
};

class PagedEngine : public EngineInterface {
 public:
  PagedEngine(Executor* loop, PagedEngineOptions options);
  ~PagedEngine() override;

  PagedEngine(const PagedEngine&) = delete;
  PagedEngine& operator=(const PagedEngine&) = delete;

  Result<bool> Put(std::string_view key, std::string_view value, Version version) override;
  Result<bool> Delete(std::string_view key, Version version) override;
  Result<Record> Get(std::string_view key) const override;
  std::vector<Result<Record>> MultiGet(const std::vector<std::string>& keys) const override;
  std::optional<Record> GetRaw(std::string_view key) const override;
  Result<std::vector<Record>> Scan(std::string_view start, std::string_view end,
                                   size_t limit) const override;
  std::vector<Record> ScanRaw(std::string_view start, std::string_view end,
                              size_t limit) const override;
  Status Apply(const WalRecord& record) override;
  Status ApplyBatch(const std::vector<WalRecord>& records) override;
  size_t PurgeTombstonesBefore(Time cutoff) override;

  /// Recovery: builds an engine over `options.file` (the surviving pages)
  /// and replays `records` — typically ReadWal of the surviving log, torn
  /// tail already dropped — without re-logging. The version rule makes
  /// replay idempotent against records that were already written back.
  static Result<std::unique_ptr<PagedEngine>> Recover(Executor* loop,
                                                      PagedEngineOptions options,
                                                      const std::vector<WalRecord>& records);

  size_t live_count() const override { return live_count_; }
  size_t total_count() const override { return total_count_; }
  size_t memory_usage() const override {
    return mem_->memory_usage() + pool_.resident_bytes();
  }
  /// Buffer-pool frames plus the memtable arena.
  int64_t bytes_resident() const override {
    return static_cast<int64_t>(pool_.resident_bytes() + mem_->memory_usage());
  }
  const MetricRegistry& metrics() const override { return metrics_; }

  Duration TakeAccruedIo() override;
  Duration io_backlog() const override;

  const BufferPool& pool() const { return pool_; }
  PageFile* file() { return file_; }
  size_t dirty_page_count() const { return dirty_pages_; }

 private:
  /// (page, its exclusive upper bound — empty = unbounded).
  struct PageSpan {
    PageId id = 0;
    std::string_view upper;
  };

  PageSpan SpanForKey(std::string_view key) const;
  /// Resident frame for `id`, faulting (decode + read latency) on miss.
  PageFrame* Fault(const PageSpan& span) const;
  /// Speculative load for scan readahead: brings `span`'s page into the
  /// pool without charging request IO (the disk read overlaps the current
  /// page's fault-and-merge). Only clean, unpinned frames may be displaced
  /// to make room — a speculative read must never force a write-back — and
  /// the load is skipped entirely (prefetch_skips) when that fails.
  void Prefetch(const PageSpan& span) const;
  /// Evicts clean, unpinned victims until `incoming` more bytes fit.
  /// Returns false (pool untouched beyond any clean evictions already
  /// made) when only dirty or pinned frames remain.
  bool TryReserveClean(size_t incoming) const;
  /// Index of `key` in frame->records, or npos.
  static size_t FindInFrame(const PageFrame* frame, std::string_view key);

  Result<bool> WriteImpl(std::string_view key, std::string_view value, Version version,
                         bool tombstone);
  Result<bool> ApplyVersioned(std::string_view key, std::string_view value, Version version,
                              bool tombstone);
  /// One key's live read, shared by Get/MultiGet (no counters).
  Result<Record> Lookup(std::string_view key) const;
  /// Ordered merge of the memtable and the page tier over [start, end);
  /// mem_ wins key ties (its versions are newer by invariant).
  std::vector<Record> MergeScan(std::string_view start, std::string_view end, size_t limit,
                                bool include_tombstones) const;

  /// Evicts until resident + incoming fits the budget (forced write-backs
  /// for dirty-only pools); pinned frames can block it (budget_overruns).
  void EnsureBudget(size_t incoming) const;
  void MarkDirty(PageFrame* frame);
  /// Synchronous (forced) write-back: encode, durably write, accrue
  /// write latency as request IO.
  void WriteBackNow(PageFrame* frame) const;
  void WriteBackTick();
  void CompleteWriteBack(PageId id, uint64_t epoch, std::string bytes);
  /// Syncs the WAL so every mutation a page snapshot can contain is
  /// durable before the page is (log-before-data).
  void SyncWalBeforePageWrite() const;

  void SpillMemtable();
  void MergeIntoFrame(PageFrame* frame, Record record);
  void SplitIfOversized(PageId id, PageFrame* frame);
  /// Rebuilds page_index_/bounds_ and live/total counts from durable pages.
  void RebuildFromFile();

  void SyncResidentMetric() const;

  Executor* loop_;
  PagedEngineOptions options_;
  std::unique_ptr<PageFile> owned_file_;
  PageFile* file_;
  // Fault/eviction bookkeeping mutates on logically-const reads; same
  // rationale as the mutable metrics registry.
  mutable BufferPool pool_;
  std::unique_ptr<SkipList> mem_;
  uint64_t next_mem_seed_;

  /// Key-range partition of pages: lower bound -> page. Always contains "".
  std::map<std::string, PageId> page_index_;
  /// Reverse bounds (PageId -> lower bound), kept in lockstep.
  std::map<PageId, std::string> page_bounds_;

  std::deque<PageId> dirty_queue_;
  // Forced write-backs can run under logically-const reads (a fault evicting
  // a dirty-only pool), so their bookkeeping is mutable like the pool.
  mutable size_t dirty_pages_ = 0;
  /// Snapshot epoch of the newest durable image per page: a slow async
  /// completion must never clobber a newer forced write.
  mutable std::map<PageId, uint64_t> durable_epoch_;
  Executor::TaskId write_back_event_ = Executor::kInvalidTask;

  mutable Duration accrued_io_ = 0;
  mutable MetricRegistry metrics_;
  /// Handles resolved once: a by-name lookup is a locked map probe per op.
  struct Counters {
    explicit Counters(MetricRegistry* m);
    Counter *puts, *puts_superseded, *deletes, *deletes_superseded, *gets, *get_misses,
        *multigets, *scans, *scan_rows, *wal_appends, *wal_batch_syncs, *bytes_resident,
        *page_faults, *page_splits, *pages_prefetched, *prefetch_skips, *pages_written_back,
        *forced_writebacks, *pool_evictions, *budget_overruns, *spills;
  } counters_{&metrics_};
  size_t live_count_ = 0;
  size_t total_count_ = 0;
};

}  // namespace scads

#endif  // SCADS_STORAGE_PAGESTORE_PAGED_ENGINE_H_
