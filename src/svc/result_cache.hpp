// Provenance-keyed on-disk result cache — completed cells, memoized.
//
// Layout: one JSONL record per completed cell, content-addressed by the
// cell's provenance key (exp/cell_task.hpp):
//
//   <root>/<spec_hash>/cell-<index>.json
//
// spec_hash is the shard-invariant content hash of the canonical spec
// text (exp/spec_io.hpp), so every parameter that can change a result —
// protocols, k grid, arrivals, channels, runs, seed, engine, engine
// options — is part of the address, while shard/threads/format are
// normalized out: shards of one sweep fill disjoint cells of the same
// directory, and a re-run at any thread count hits the same keys.
//
// Records carry the result schema (docs/ARCHITECTURE.md "Result schema")
// with doubles in shortest-round-trip notation — a cache hit replays into
// CsvStreamSink/JsonlSink byte-identically to the cold computation
// (pinned by tests/svc/cached_run_test.cpp). Per-run details are NOT
// persisted: a replayed aggregate has empty `details`.
//
// Write discipline: records are written to a dot-prefixed temp file in
// the record's directory and renamed into place, so readers never observe
// a torn record and concurrent writers of the same cell end with one
// winner (both wrote identical bytes anyway — the key pins the content).
// Stale or corrupt records are rejected loudly (ContractViolation naming
// the file), never silently recomputed — like read_aggregate_csv, schema
// drift must fail the consumer, not rot the archive.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "exp/run.hpp"

namespace ucr::svc {

/// Version stamped into every record; load() rejects any other value.
/// Bump it whenever the record schema changes shape or meaning.
inline constexpr std::uint64_t kCacheSchemaVersion = 1;

/// On-disk implementation of exp::CellResultStore. Thread-compatible (the
/// run() driver serializes calls); multiple processes may share a root —
/// the atomic rename makes concurrent stores of the same cell safe.
class ResultCache final : public exp::CellResultStore {
 public:
  /// Creates `root` (and parents) if missing.
  explicit ResultCache(std::string root);

  /// The record of (spec_hash, cell_index), or nullopt when absent.
  /// Throws ContractViolation naming the file on a malformed record, a
  /// schema version other than kCacheSchemaVersion, or a record whose
  /// embedded key disagrees with its address.
  std::optional<AggregateResult> load(const std::string& spec_hash,
                                      std::size_t cell_index) override;

  /// Persists the cell under its provenance key (atomic rename).
  void store(const exp::CellTask& task,
             const AggregateResult& result) override;

  /// Number of cell records currently present for a spec_hash.
  std::size_t cell_count(const std::string& spec_hash) const;

  const std::string& root() const { return root_; }

  /// Path of a cell's record file (exposed for tests and debugging —
  /// the --list-cells output plus this is the whole cache address book).
  std::string record_path(const std::string& spec_hash,
                          std::size_t cell_index) const;

  /// The serialized record, exactly as store() writes it (exposed so
  /// tests can pin the schema and tools can inspect records).
  static std::string encode_record(const exp::CellTask& task,
                                   const AggregateResult& result);

  /// Parses a record produced by encode_record; validates schema version,
  /// the (spec_hash, cell_index) key and the exact member list. `source`
  /// names the origin in errors (file path, "test", ...).
  static AggregateResult decode_record(const std::string& text,
                                       const std::string& spec_hash,
                                       std::size_t cell_index,
                                       const std::string& source);

 private:
  std::string root_;
};

}  // namespace ucr::svc
