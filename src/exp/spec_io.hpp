// Textual spec format — the canonical, versionable experiment API.
//
// A sweep is a text file: a line-oriented `key = value` description that
// parses into the same ExperimentSpec every driver already runs
// (spec -> compile() -> plan -> run() -> sinks), so an experiment can be
// committed next to its archive, diffed, handed to a remote shard driver,
// and replayed bit for bit. The repository ships the paper's canonical
// sweeps under specs/ (see specs/README.md); `ucr_cli --spec=FILE` and the
// bench harnesses (UCR_SPEC) consume them directly.
//
// Format, by example (canonical key order; '#' starts a comment):
//
//   spec_version = 1
//   protocols = One-Fail Adaptive, Exp Back-on/Back-off
//   ks = 10, 100, 1000          # or: kmax = 1000000 (powers of ten)
//   arrival = batch             # repeatable: one line per grid cell
//   arrival = poisson(0.1)
//   arrival = burst(4,64)
//   runs = 10
//   seed = 2011
//   engine = fair               # fair | batched | node | node_batched
//   max_slots = 0               # 0 = engine default cap
//   record_deliveries = false   # per-message records (delivery slots,
//                               # and latencies in delivery order)
//   record_latencies = false    # latency histogram per run (p50/p95/p99)
//   collision_detection = false
//   shard = 0/1                 # i/N block of the flattened grid
//   threads = 0                 # 0 = all hardware threads
//   format = table              # table | csv | jsonl
//
// Every key except spec_version is optional; omitted keys keep the
// ExperimentSpec defaults shown above. Unknown keys, duplicate scalar
// keys, unsupported versions and malformed values all throw
// ContractViolation naming the offending line, with a did-you-mean hint
// (the find_protocol machinery) for misspelled keys and enum values.
//
// Overlays: a spec may instead start from another spec and state only a
// delta —
//
//   spec_version = 1
//   include = fig1.spec          # adopt the base spec wholesale...
//   shard = 2/8                  # ...then override individual keys
//
// resolved at parse time, so the overlay has the same canonical text and
// spec_hash as the flattened spec (see parse_spec(text, loader) below;
// shipped examples live in specs/overlays/).
//
// Round trip: to_text() emits the canonical form (every key, canonical
// order, shortest-round-trip numbers), and `parse_spec(to_text(s)) == s`
// for every spec a file can express — explicit ProtocolFactory entries
// serialize by catalogue name (they parse back as protocol_names), and
// the EngineOptions observer hook plus the derived `batched` flag are
// runtime-only state that is never written. tests/exp/spec_io_test.cpp
// pins the round trip for randomized specs and every shipped specs/*.spec.
#pragma once

#include <functional>
#include <string>

#include "exp/spec.hpp"

namespace ucr::exp {

/// Output rendering selected by a spec file or --format.
enum class OutputFormat { kTable, kCsv, kJsonl };

const char* output_format_name(OutputFormat format);

/// One parsed spec file: the experiment description plus the execution
/// (worker threads) and output (format) knobs a runbook wants pinned in
/// the same document.
struct SpecFile {
  ExperimentSpec spec;
  /// Sweep worker threads; 0 means all hardware threads.
  unsigned threads = 0;
  OutputFormat format = OutputFormat::kTable;

  bool operator==(const SpecFile&) const = default;
};

/// Parses the `key = value` format above. Throws ContractViolation on any
/// malformed input, naming the line: unknown key (with did-you-mean),
/// duplicate scalar key, missing/unsupported spec_version, ks + kmax
/// together, malformed numbers/engine/arrival/shard/format. `include`
/// lines are rejected here — includes need a loader (overload below) or a
/// file context (load_spec_file).
SpecFile parse_spec(const std::string& text);

/// Resolves an `include = <name>` line to the text of the named base
/// spec. Called at parse time; throws ContractViolation when the name
/// cannot be resolved (the parser prefixes the offending line).
using SpecLoader = std::function<std::string(const std::string& name)>;

/// parse_spec with spec *overlays* resolved at parse time: an
/// `include = <base>` line (which must precede every key except
/// spec_version, at most once) loads the named base spec through
/// `loader`, adopts its entire description, and treats the remaining
/// lines as deltas — scalar keys override the base's value, and the
/// first `arrival` / `channel` line replaces the base's whole list (an
/// overlay restates an axis, it never appends to one). The base must be
/// flat: a nested `include` inside it fails with a line-numbered error.
/// Because resolution happens at parse time, an overlay parses to the
/// same SpecFile value — hence the same canonical text and the same
/// spec_hash — as the flattened spec it abbreviates; that equality is
/// what lets a per-worker shard file be a one-line diff of the canonical
/// sweep (docs/ORCHESTRATOR.md).
SpecFile parse_spec(const std::string& text, const SpecLoader& loader);

/// Reads `path` and parse_spec()s its contents — the one spec-loading
/// path every front end (ucr_cli --spec, the bench harnesses' UCR_SPEC,
/// engine_micro's BM_SpecSweep) shares. `include` names resolve relative
/// to the directory containing `path` (absolute names stand alone).
/// Throws ContractViolation naming the path when a file cannot be opened.
SpecFile load_spec_file(const std::string& path);

/// Serializes the canonical form: every key, canonical order, numbers in
/// shortest-round-trip notation, one `arrival` line per cell. The
/// canonical text of a parsed file is stable: parse -> to_text -> parse
/// is a fixed point.
std::string to_text(const SpecFile& file);

/// Canonical text of the experiment description alone (a SpecFile with
/// default threads/format) — what spec_hash digests.
std::string to_text(const ExperimentSpec& spec);

/// Stable 64-bit FNV-1a content hash (16 hex digits) of the canonical
/// spec text with the *execution partition normalized out*: shard,
/// threads and output format do not contribute, so every shard of a
/// sweep — and a CSV and a JSONL archive of the same sweep — carries the
/// same hash. This is the provenance stamp CsvStreamSink/JsonlSink attach
/// to every row, which keeps concatenated shard archives self-describing
/// AND byte-identical to the unsharded run.
std::string spec_hash(const ExperimentSpec& spec);

}  // namespace ucr::exp
