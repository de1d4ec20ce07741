// Fingerprint-keyed ahead-of-time compiled-program cache (docs/serving.md).
//
// Compiling a topology is the expensive part of binding a tenant, and the
// result is fully determined by (configuration, topology, strategy) — the
// triple compile::program_cache_key hashes.  The cache keeps an in-memory
// LRU of shared programs and, when given a directory, persists every
// compile as a serialized blob (<key>.rcp) so a restarted server skips
// recompilation entirely.
//
// Rehydrated blobs are never trusted: a disk hit goes through
// CompiledProgram::load (= parse + the mandatory static verifier,
// docs/verification.md), so a tampered or stale blob is rejected with its
// RV-* code, evicted from disk, and transparently recompiled — the caller
// of get_or_compile() only ever sees a valid program.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/thread_safety.hpp"
#include "compile/program.hpp"
#include "core/config.hpp"
#include "snn/topology.hpp"

namespace resparc::serve {

/// Cache sizing and persistence knobs.
struct ProgramCacheConfig {
  /// Blob directory ("" = in-memory only, nothing persisted).  Created on
  /// demand; unwritable directories degrade to in-memory behaviour.
  std::string directory;
  /// In-memory LRU capacity in programs (disk blobs are never evicted by
  /// capacity — disk is the persistence layer, memory the working set).
  std::size_t capacity = 16;
};

/// Monotonic counters of one cache's lifetime (test/bench observability).
struct ProgramCacheStats {
  std::size_t memory_hits = 0;        ///< served from the in-memory LRU
  std::size_t disk_hits = 0;          ///< rehydrated + re-verified from disk
  std::size_t misses = 0;             ///< compiled from scratch
  std::size_t corrupt_evictions = 0;  ///< blobs rejected on rehydrate
};

/// Thread-safe LRU cache of compiled programs keyed by
/// compile::program_cache_key, with optional blob persistence.
class ProgramCache {
 public:
  /// Builds a cache; creates config.directory when persistence is on.
  explicit ProgramCache(ProgramCacheConfig config = {});

  /// The configuration the cache was built with.
  const ProgramCacheConfig& config() const { return config_; }

  /// Returns the cached program for (config, topology, strategy),
  /// rehydrating from disk or compiling on demand.  A corrupt disk blob
  /// is evicted and recompiled transparently (stats().corrupt_evictions
  /// counts it, last_corruption_code() keeps its RV-* code); compile
  /// failures propagate to the caller unchanged.
  std::shared_ptr<const compile::CompiledProgram> get_or_compile(
      const core::ResparcConfig& config, const snn::Topology& topology,
      const std::string& strategy);

  /// Disk-only lookup: rehydrates (and re-verifies) the persisted blob
  /// for the triple without compiling.  Throws ServeError
  /// (RS-CACHE-CORRUPT, wrapping the verifier/parser code) when the blob
  /// exists but fails verification, and ServeError (RS-CACHE-CORRUPT)
  /// when no blob exists.  Primarily a test/tooling seam; servers use
  /// get_or_compile().
  std::shared_ptr<const compile::CompiledProgram> rehydrate(
      const core::ResparcConfig& config, const snn::Topology& topology,
      const std::string& strategy);

  /// Lifetime counters (copied under the lock).
  ProgramCacheStats stats() const;

  /// RV-*/compile code of the most recent corrupt-blob eviction (""
  /// before any corruption was seen).
  std::string last_corruption_code() const;

  /// On-disk blob path for a key ("" when persistence is off).
  std::string blob_path(std::uint64_t key) const;

  /// Drops every in-memory entry (disk blobs stay).
  void clear_memory();

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::shared_ptr<const compile::CompiledProgram> program;
  };

  std::shared_ptr<const compile::CompiledProgram> insert(
      std::uint64_t key, compile::CompiledProgram program)
      RESPARC_REQUIRES(mutex_);
  /// Persists `program` to `path` atomically: the blob is written to a
  /// unique sibling temp file and renamed into place, so a concurrent
  /// rehydrate can only ever open a complete blob (never a torn write).
  /// On success bumps the key's blob generation under the lock.
  void persist(std::uint64_t key, const compile::CompiledProgram& program,
               const std::string& path);
  /// Corrupt-blob eviction with double-count protection: removes the
  /// blob and bumps the counters only when the key's blob generation
  /// still equals `generation` (= nobody replaced or evicted the blob
  /// since this caller read it) — racing callers that all rejected the
  /// same bad blob account exactly one eviction.
  void evict_corrupt(std::uint64_t key, std::uint64_t generation,
                     const std::string& path, const std::string& code);

  ProgramCacheConfig config_;
  bool persist_ = false;  ///< directory usable (created successfully)

  mutable Mutex mutex_;
  /// MRU-first list; the map indexes into it.
  std::list<Entry> lru_ RESPARC_GUARDED_BY(mutex_);
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_
      RESPARC_GUARDED_BY(mutex_);
  /// Per-key on-disk blob generation, bumped on every persist/evict.
  /// Readers snapshot it before an unlocked disk probe; mutations check
  /// it so one physical corruption is only counted/evicted once.
  std::unordered_map<std::uint64_t, std::uint64_t> generation_
      RESPARC_GUARDED_BY(mutex_);
  ProgramCacheStats stats_ RESPARC_GUARDED_BY(mutex_);
  std::string last_corruption_code_ RESPARC_GUARDED_BY(mutex_);
};

}  // namespace resparc::serve
