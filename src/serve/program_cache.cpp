#include "serve/program_cache.hpp"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <utility>

#include "compile/compiler.hpp"
#include "serve/request.hpp"

namespace resparc::serve {

namespace {

std::string hex_key(std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

/// Process-wide tmp-file counter: caches sharing a directory (a restart
/// test, two servers over one cache dir) must never collide on a tmp
/// name, or two unlocked save_file calls could interleave into one torn
/// blob that rename() then publishes.
std::atomic<std::uint64_t>& tmp_counter() {
  static std::atomic<std::uint64_t> counter{0};
  return counter;
}

}  // namespace

ProgramCache::ProgramCache(ProgramCacheConfig config)
    : config_(std::move(config)) {
  if (config_.capacity == 0) config_.capacity = 1;
  if (!config_.directory.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.directory, ec);
    // An unusable directory degrades to in-memory behaviour rather than
    // failing the server over a cache (the cache is an optimisation).
    persist_ = !ec && std::filesystem::is_directory(config_.directory, ec);
  }
}

std::string ProgramCache::blob_path(std::uint64_t key) const {
  if (!persist_) return {};
  return (std::filesystem::path(config_.directory) / (hex_key(key) + ".rcp"))
      .string();
}

void ProgramCache::persist(std::uint64_t key,
                           const compile::CompiledProgram& program,
                           const std::string& path) {
  // Write to a unique temp file first (slow, unlocked), then rename into
  // place under the lock.  rename() replaces atomically, so a concurrent
  // unlocked load_file either sees the old complete blob or the new one —
  // never a torn write that would count as a spurious corruption.
  const std::string tmp =
      path + ".tmp" + std::to_string(tmp_counter().fetch_add(1));
  if (!program.save_file(tmp)) {
    std::cerr << "serve: could not persist program blob " << path << "\n";
    return;
  }
  MutexLock lock(mutex_);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    std::cerr << "serve: could not persist program blob " << path << "\n";
    return;
  }
  ++generation_[key];
}

void ProgramCache::evict_corrupt(std::uint64_t key, std::uint64_t generation,
                                 const std::string& path,
                                 const std::string& code) {
  MutexLock lock(mutex_);
  if (generation_[key] != generation) return;  // already replaced/evicted
  ++generation_[key];
  ++stats_.corrupt_evictions;
  last_corruption_code_ = code;
  // Remove while still holding the lock: an unlocked remove could race a
  // concurrent recompile's rename and delete the fresh blob instead.
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::cerr << "serve: evicted corrupt program blob " << path << " ["
            << (code.empty() ? "no-code" : code) << "]; recompiling\n";
}

std::shared_ptr<const compile::CompiledProgram> ProgramCache::insert(
    std::uint64_t key, compile::CompiledProgram program) {
  auto shared =
      std::make_shared<const compile::CompiledProgram>(std::move(program));
  lru_.push_front(Entry{key, shared});
  index_[key] = lru_.begin();
  while (lru_.size() > config_.capacity) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
  return shared;
}

std::shared_ptr<const compile::CompiledProgram> ProgramCache::get_or_compile(
    const core::ResparcConfig& config, const snn::Topology& topology,
    const std::string& strategy) {
  const std::uint64_t key =
      compile::program_cache_key(config, topology, strategy);

  const std::string path = blob_path(key);
  std::uint64_t generation = 0;
  {
    MutexLock lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      ++stats_.memory_hits;
      lru_.splice(lru_.begin(), lru_, it->second);  // mark most recent
      return it->second->program;
    }
    // Snapshot the blob generation before the unlocked disk probe: a
    // corrupt read only evicts/counts if the blob was not replaced
    // meanwhile (evict_corrupt re-checks under the lock).
    if (!path.empty()) generation = generation_[key];
  }

  // Disk probe outside the lock: rehydration re-verifies the blob, which
  // is cheap next to a compile but not worth serializing every caller on.
  if (!path.empty() && std::filesystem::exists(path)) {
    try {
      compile::CompiledProgram program =
          compile::CompiledProgram::load_file(path, config);
      program.check_matches(topology);
      MutexLock lock(mutex_);
      ++stats_.disk_hits;
      return insert(key, std::move(program));
    } catch (const Error& e) {
      // Tampered/stale blob: evict the file (once, generation-checked),
      // remember the diagnostic code, and fall through to a transparent
      // recompile — corruption must never surface to the tenant
      // (tests/test_serve.cpp, tests/test_program_cache_race.cpp).
      evict_corrupt(key, generation, path, e.code());
    }
  }

  const compile::Compiler compiler(config);
  compile::CompiledProgram program = compiler.compile(topology, strategy);
  if (!path.empty()) persist(key, program, path);

  MutexLock lock(mutex_);
  ++stats_.misses;
  // A racing caller may have inserted the same key meanwhile; keep the
  // existing entry (the programs are interchangeable by construction).
  auto it = index_.find(key);
  if (it != index_.end()) return it->second->program;
  return insert(key, std::move(program));
}

std::shared_ptr<const compile::CompiledProgram> ProgramCache::rehydrate(
    const core::ResparcConfig& config, const snn::Topology& topology,
    const std::string& strategy) {
  const std::uint64_t key =
      compile::program_cache_key(config, topology, strategy);
  const std::string path = blob_path(key);
  if (path.empty() || !std::filesystem::exists(path))
    throw ServeError("no persisted blob for key " + hex_key(key),
                     kErrCacheCorrupt);
  std::uint64_t generation = 0;
  {
    MutexLock lock(mutex_);
    generation = generation_[key];
  }
  try {
    compile::CompiledProgram program =
        compile::CompiledProgram::load_file(path, config);
    program.check_matches(topology);
    MutexLock lock(mutex_);
    ++stats_.disk_hits;
    return insert(key, std::move(program));
  } catch (const Error& e) {
    evict_corrupt(key, generation, path, e.code());
    throw ServeError("persisted blob " + path + " failed verification [" +
                         (e.code().empty() ? "no-code" : e.code()) +
                         "]: " + e.what(),
                     kErrCacheCorrupt);
  }
}

ProgramCacheStats ProgramCache::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

std::string ProgramCache::last_corruption_code() const {
  MutexLock lock(mutex_);
  return last_corruption_code_;
}

void ProgramCache::clear_memory() {
  MutexLock lock(mutex_);
  lru_.clear();
  index_.clear();
}

}  // namespace resparc::serve
