/// \file answer_store.h
/// \brief Durable, content-addressed store of completed why-not answers.
///
/// The persistent sibling of the in-memory AnswerCache (src/cache/): only
/// COMPLETE answers computed at full fidelity are ever stored -- never
/// partial (tripped) results, never brownout-degraded ones -- so a store
/// hit is always byte-identical to an uninterrupted recomputation.
///
/// Keys must survive restarts, so they cannot embed catalog snapshot
/// versions (which reset to 1 every run). MakeDurableAnswerKey instead
/// embeds DatabaseContentFingerprint: a reloaded-but-identical database
/// still hits; any content change misses by construction. The rest of the
/// key mirrors MakeAnswerCacheKey (normalized SQL, question text, budgets,
/// engine option bits).
///
/// Layout: `<dir>/entries/<fnv64-hex>.ans`, each entry a CRC-framed file
/// carrying its full key (hash collisions detected by key comparison, not
/// trusted to the file name) and the encoded AnswerSummary. Entries are
/// written via temp-file + atomic rename, so a crash at any instant leaves
/// either no entry or a complete entry; a torn or bit-flipped entry fails
/// its CRC on read and is deleted, reported as a miss. `<dir>/MANIFEST`
/// (rewritten atomically after each put) pins, for every database that
/// contributed answers, its content fingerprint and per-relation
/// data_versions -- provenance for operators inspecting the store.

#ifndef NED_PERSIST_ANSWER_STORE_H_
#define NED_PERSIST_ANSWER_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/report.h"
#include "persist/crash_point.h"

namespace ned {

/// Restart-stable key for a durable answer. `option_bits` is the service's
/// EngineOptionBits encoding; `question_text` is WhyNotQuestion::ToString().
std::string MakeDurableAnswerKey(const std::string& db_name,
                                 uint64_t content_fingerprint,
                                 const std::string& sql,
                                 const std::string& question_text,
                                 size_t row_budget, size_t memory_budget,
                                 uint64_t option_bits);

struct AnswerStoreOptions {
  std::string dir;
  /// fsync entry files and the manifest (power-loss durability; process
  /// death alone never needs it).
  bool fsync = false;
  CrashInjector* crash = nullptr;
};

/// Provenance recorded in the manifest for one database.
struct StoreManifestEntry {
  std::string db_name;
  uint64_t content_fingerprint = 0;
  /// (relation name, data_version, row count) at the time of the put.
  struct RelationPin {
    std::string name;
    uint64_t data_version = 0;
    uint64_t rows = 0;
    bool operator==(const RelationPin&) const = default;
  };
  std::vector<RelationPin> relations;
  bool operator==(const StoreManifestEntry&) const = default;
};

struct AnswerStoreStats {
  uint64_t puts = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t corrupt_dropped = 0;   ///< entries deleted on failed CRC/decode
  uint64_t entries_on_open = 0;   ///< intact-looking entries found by Open
  uint64_t manifest_writes = 0;   ///< MANIFEST rewrites (one per change)
};

class AnswerStore {
 public:
  /// Opens (creating if needed) the store, indexes existing entries and
  /// sweeps leftover temp files from interrupted writes.
  static Result<std::unique_ptr<AnswerStore>> Open(
      const AnswerStoreOptions& options);

  /// Returns the stored summary for `key`, or kNotFound. A corrupt entry is
  /// deleted and reported as kNotFound -- the store never fabricates.
  Result<AnswerSummary> Lookup(const std::string& key);

  /// Cheap index-only probe (no file read). May return true for an entry
  /// that Lookup subsequently drops as corrupt.
  bool Contains(const std::string& key) const;

  /// Stores `summary` under `key` and records `manifest` provenance.
  /// Idempotent: re-putting an existing key rewrites the same bytes. The
  /// MANIFEST file is rewritten only when the db's entry changes (a new
  /// snapshot), not on every put.
  Status Put(const std::string& key, const AnswerSummary& summary,
             const StoreManifestEntry& manifest);

  AnswerStoreStats stats() const;
  size_t entry_count() const;

  static std::string EntryFileName(const std::string& key);

 private:
  explicit AnswerStore(const AnswerStoreOptions& options);

  Status WriteManifestLocked();
  std::string EntryPath(const std::string& key) const;

  const AnswerStoreOptions options_;

  mutable std::mutex mu_;
  /// Indexed entry file names (no dir) -> put generation. The generation
  /// bumps on every Put of that name; Lookup reads the entry file with mu_
  /// released and refuses to corrupt-drop a name whose generation moved
  /// during the read -- the stale bytes it saw belong to a file a
  /// concurrent Put has since replaced with a fresh valid entry.
  std::unordered_map<std::string, uint64_t> entry_files_;
  std::map<std::string, StoreManifestEntry> manifest_;  ///< by db_name
  /// manifest_ holds changes the MANIFEST file does not have yet (an
  /// earlier rewrite failed or was interrupted).
  bool manifest_dirty_ = false;
  AnswerStoreStats stats_;
};

}  // namespace ned

#endif  // NED_PERSIST_ANSWER_STORE_H_
