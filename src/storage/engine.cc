#include "storage/engine.h"

#include <algorithm>
#include <utility>

namespace scads {

StorageEngine::StorageEngine(EngineOptions options)
    : options_(options), table_(options.seed) {}

StorageEngine::Counters::Counters(MetricRegistry* m)
    : puts(m->GetCounter("puts")),
      puts_superseded(m->GetCounter("puts_superseded")),
      deletes(m->GetCounter("deletes")),
      deletes_superseded(m->GetCounter("deletes_superseded")),
      gets(m->GetCounter("gets")),
      get_misses(m->GetCounter("get_misses")),
      multigets(m->GetCounter("multigets")),
      scans(m->GetCounter("scans")),
      scan_rows(m->GetCounter("scan_rows")),
      wal_appends(m->GetCounter("wal_appends")),
      wal_batch_syncs(m->GetCounter("wal_batch_syncs")),
      bytes_resident(m->GetCounter("bytes_resident")) {}

Result<bool> StorageEngine::Write(std::string_view key, std::string_view value, Version version,
                                  bool tombstone) {
  if (key.empty()) return InvalidArgumentError("empty key");
  // WAL first: a mutation must be logged before it becomes visible.
  if (options_.wal != nullptr) {
    WalRecord record;
    record.type = tombstone ? WalRecord::Type::kDelete : WalRecord::Type::kPut;
    record.key.assign(key);
    if (!tombstone) record.value.assign(value);
    record.version = version;
    WalWriter writer(options_.wal);
    SCADS_RETURN_IF_ERROR(writer.Append(record));
    counters_.wal_appends->Increment();
    if (options_.wal_sync_every_write) SCADS_RETURN_IF_ERROR(writer.Sync());
  }
  return ApplyToTable(key, value, version, tombstone);
}

Result<bool> StorageEngine::ApplyToTable(std::string_view key, std::string_view value,
                                         Version version, bool tombstone) {
  bool created = false;
  SkipList::Payload* payload = table_.FindOrCreate(key, &created);
  if (!created && !(version > payload->version)) {
    (tombstone ? counters_.deletes_superseded : counters_.puts_superseded)->Increment();
    return false;
  }
  bool was_live = !created && !payload->tombstone;
  if (tombstone) {
    table_.AssignValue(payload, "");
    if (was_live) --live_count_;
  } else {
    table_.AssignValue(payload, value);
    if (!was_live) ++live_count_;
  }
  payload->version = version;
  payload->tombstone = tombstone;
  (tombstone ? counters_.deletes : counters_.puts)->Increment();
  SyncResidentMetric();
  return true;
}

void StorageEngine::SyncResidentMetric() const {
  counters_.bytes_resident->Increment(bytes_resident() - counters_.bytes_resident->value());
}

Result<bool> StorageEngine::Put(std::string_view key, std::string_view value, Version version) {
  return Write(key, value, version, /*tombstone=*/false);
}

Result<bool> StorageEngine::Delete(std::string_view key, Version version) {
  return Write(key, "", version, /*tombstone=*/true);
}

Result<Record> StorageEngine::Get(std::string_view key) const {
  counters_.gets->Increment();
  const SkipList::Payload* payload = table_.Find(key);
  if (payload == nullptr || payload->tombstone) {
    counters_.get_misses->Increment();
    return NotFoundError(std::string(key));
  }
  Record record;
  record.key.assign(key);
  record.value.assign(payload->value_data, payload->value_size);
  record.version = payload->version;
  return record;
}

std::vector<Result<Record>> StorageEngine::MultiGet(const std::vector<std::string>& keys) const {
  counters_.multigets->Increment();
  counters_.gets->Increment(static_cast<int64_t>(keys.size()));
  // Probe in sorted order through one iterator so adjacent keys reuse the
  // traversal position; results land back in input slots (duplicates each
  // get a copy).
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&keys](size_t a, size_t b) { return keys[a] < keys[b]; });
  std::vector<Result<Record>> out(keys.size(), Result<Record>(NotFoundError("unprobed")));
  SkipList::Iterator it(&table_);
  for (size_t rank = 0; rank < order.size(); ++rank) {
    size_t slot = order[rank];
    const std::string& key = keys[slot];
    if (rank > 0 && keys[order[rank - 1]] == key) {
      out[slot] = out[order[rank - 1]];
      // Duplicates share the probe but count as logical reads, so the
      // gets/get_misses ratio matches the equivalent Get sequence.
      if (!out[slot].ok()) counters_.get_misses->Increment();
      continue;
    }
    it.SeekForward(key);
    if (!it.Valid() || it.key() != key || it.payload().tombstone) {
      counters_.get_misses->Increment();
      out[slot] = NotFoundError(key);
      continue;
    }
    Record record;
    record.key = key;
    record.value.assign(it.payload().value_data, it.payload().value_size);
    record.version = it.payload().version;
    out[slot] = std::move(record);
  }
  return out;
}

std::optional<Record> StorageEngine::GetRaw(std::string_view key) const {
  const SkipList::Payload* payload = table_.Find(key);
  if (payload == nullptr) return std::nullopt;
  Record record;
  record.key.assign(key);
  record.value.assign(payload->value_data, payload->value_size);
  record.version = payload->version;
  record.tombstone = payload->tombstone;
  return record;
}

Result<std::vector<Record>> StorageEngine::Scan(std::string_view start, std::string_view end,
                                                size_t limit) const {
  if (!end.empty() && start > end) return InvalidArgumentError("scan start > end");
  counters_.scans->Increment();
  std::vector<Record> out;
  SkipList::Iterator it(&table_);
  it.Seek(start);
  while (it.Valid()) {
    if (!end.empty() && it.key() >= end) break;
    const SkipList::Payload& payload = it.payload();
    if (!payload.tombstone) {
      Record record;
      record.key.assign(it.key());
      record.value.assign(payload.value_data, payload.value_size);
      record.version = payload.version;
      out.push_back(std::move(record));
      if (limit != 0 && out.size() >= limit) break;
    }
    it.Next();
  }
  counters_.scan_rows->Increment(static_cast<int64_t>(out.size()));
  return out;
}

std::vector<Record> StorageEngine::ScanRaw(std::string_view start, std::string_view end,
                                           size_t limit) const {
  std::vector<Record> out;
  SkipList::Iterator it(&table_);
  it.Seek(start);
  while (it.Valid()) {
    if (!end.empty() && it.key() >= end) break;
    const SkipList::Payload& payload = it.payload();
    Record record;
    record.key.assign(it.key());
    record.value.assign(payload.value_data, payload.value_size);
    record.version = payload.version;
    record.tombstone = payload.tombstone;
    out.push_back(std::move(record));
    if (limit != 0 && out.size() >= limit) break;
    it.Next();
  }
  return out;
}

Status StorageEngine::Apply(const WalRecord& record) {
  Result<bool> applied =
      Write(record.key, record.value, record.version,
            record.type == WalRecord::Type::kDelete);
  return applied.ok() ? Status::Ok() : applied.status();
}

Status StorageEngine::ApplyBatch(const std::vector<WalRecord>& records) {
  if (records.empty()) return Status::Ok();
  for (const WalRecord& record : records) {
    if (record.key.empty()) return InvalidArgumentError("empty key");
  }
  // Group commit: the whole batch is logged (and made durable) before any
  // of it becomes visible, with a single sync amortized over the batch.
  if (options_.wal != nullptr) {
    WalWriter writer(options_.wal);
    SCADS_RETURN_IF_ERROR(writer.AppendBatch(records));
    counters_.wal_appends->Increment(static_cast<int64_t>(records.size()));
    if (options_.wal_sync_every_write) {
      SCADS_RETURN_IF_ERROR(writer.Sync());
      counters_.wal_batch_syncs->Increment();
    }
  }
  for (const WalRecord& record : records) {
    Result<bool> applied = ApplyToTable(record.key, record.value, record.version,
                                        record.type == WalRecord::Type::kDelete);
    if (!applied.ok()) return applied.status();
  }
  return Status::Ok();
}

Result<std::unique_ptr<StorageEngine>> StorageEngine::Recover(
    EngineOptions options, const std::vector<WalRecord>& records) {
  // Replay must not re-log: recover into a WAL-less engine, then attach.
  WalSink* wal = options.wal;
  options.wal = nullptr;
  auto engine = std::make_unique<StorageEngine>(options);
  for (const WalRecord& record : records) {
    SCADS_RETURN_IF_ERROR(engine->Apply(record));
  }
  engine->options_.wal = wal;
  return engine;
}

size_t StorageEngine::PurgeTombstonesBefore(Time cutoff) {
  size_t purged = 0;
  SkipList::Iterator it(&table_);
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    const SkipList::Payload& payload = it.payload();
    // Already-purged ghosts carry Version{} (no real writer ever stamps
    // kInvalidNode); skip them so repeated purges don't recount.
    if (payload.tombstone && payload.version.timestamp < cutoff &&
        !(payload.version == Version{})) {
      // Reset the version floor so the slot behaves like an absent key.
      SkipList::Payload* mutable_payload = table_.FindMutable(it.key());
      mutable_payload->version = Version{};
      ++purged;
    }
  }
  return purged;
}

}  // namespace scads
