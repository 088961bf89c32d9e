#include "sprofile/engine/snapshot_io.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/profile_io.h"
#include "sprofile/obs/trace_ring.h"
#include "util/failpoint.h"

namespace sprofile {
namespace engine {

namespace {

constexpr const char* kManifestMagic = "sprofile-engine-snapshot";
constexpr int kManifestVersion = 1;

std::string ShardFileName(uint32_t shard, uint64_t generation) {
  return "shard-" + std::to_string(shard) + ".g" + std::to_string(generation) +
         ".sppf";
}

/// The manifest header: everything before the per-shard records. ONE
/// parser serves both LoadAll and SaveAll's old-generation cleanup, so a
/// future format change cannot diverge between the two.
struct ManifestHeader {
  uint32_t capacity = 0;
  uint32_t shards = 0;
  uint64_t generation = 0;
};

/// Parses the header from `in`. Non-OK means unreadable/foreign/wrong
/// version; the shard records (if any) remain unread in the stream.
Status ReadManifestHeader(std::istream& in, const std::string& manifest_path,
                          ManifestHeader* out) {
  std::string magic, key;
  int version = 0;
  if (!(in >> magic >> version) || magic != kManifestMagic) {
    return Status::Corruption(manifest_path + ": bad manifest magic");
  }
  if (version != kManifestVersion) {
    return Status::Corruption(manifest_path + ": unsupported version " +
                              std::to_string(version));
  }
  if (!(in >> key >> out->capacity) || key != "capacity") {
    return Status::Corruption(manifest_path + ": missing capacity record");
  }
  if (!(in >> key >> out->shards) || key != "shards") {
    return Status::Corruption(manifest_path + ": missing shards record");
  }
  if (!(in >> key >> out->generation) || key != "generation") {
    return Status::Corruption(manifest_path + ": missing generation record");
  }
  return Status::OK();
}

/// The previous save's lineage, or all-zero when there is none (or it is
/// unreadable — a fresh save then starts a new lineage at 1).
ManifestHeader ReadOldLineage(const std::string& manifest_path) {
  std::ifstream in(manifest_path);
  ManifestHeader header;
  if (!in || !ReadManifestHeader(in, manifest_path, &header).ok()) return {};
  return header;
}

class FilesystemSnapshotSink final : public SnapshotSink {};

}  // namespace

Status SnapshotSink::CreateDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create snapshot directory " + dir + ": " +
                           ec.message());
  }
  return Status::OK();
}

Status SnapshotSink::WriteFile(const std::string& path,
                               std::string_view bytes) {
  if (SPROFILE_FAILPOINT("snapshot_save_write_fail")) {
    // Injected disk-full/EIO: SaveAll must abandon the save with the
    // previous generation fully intact (the crash-consistency contract).
    return Status::IOError("injected write failure (failpoint "
                           "snapshot_save_write_fail): " + path);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return Status::IOError("short write to " + path);
  return Status::OK();
}

Status SnapshotSink::RenameFile(const std::string& from,
                                const std::string& to) {
  std::error_code ec;
  std::filesystem::rename(from, to, ec);
  if (ec) {
    return Status::IOError("cannot commit " + to + ": " + ec.message());
  }
  return Status::OK();
}

void SnapshotSink::RemoveFileBestEffort(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

SnapshotSink& DefaultSnapshotSink() {
  static FilesystemSnapshotSink sink;
  return sink;
}

Status SaveAll(ShardedProfiler& engine, const std::string& dir,
               SnapshotSink& sink) {
  // Read-your-writes, not quiesce: everything enqueued before this call is
  // applied and published, but producers may keep ingesting while the
  // shard images are serialized below — the images read frozen snapshot
  // pages (COW), so the save never blocks the workers.
  engine.Flush();

  SPROFILE_RETURN_NOT_OK(sink.CreateDir(dir));

  // Crash consistency: shard files carry a generation number in their
  // names, so an in-place re-save never truncates a file the CURRENT
  // manifest names. The new manifest is written to a temp name and
  // renamed over MANIFEST as the single atomic commit point — a crash at
  // any earlier step leaves the previous generation fully intact
  // (tests/engine_snapshot_io_test.cc proves this at every byte offset).
  const std::string manifest_path = dir + "/" + kManifestFileName;
  const ManifestHeader old_lineage = ReadOldLineage(manifest_path);
  const uint64_t generation = old_lineage.generation + 1;

  const auto snapshots = engine.SnapshotAll();
  std::ostringstream manifest;
  manifest << kManifestMagic << ' ' << kManifestVersion << '\n';
  manifest << "capacity " << engine.capacity() << '\n';
  manifest << "shards " << engine.num_shards() << '\n';
  manifest << "generation " << generation << '\n';
  for (uint32_t s = 0; s < engine.num_shards(); ++s) {
    const auto& snap = snapshots[s];
    const uint32_t shard_capacity = snap->profile.capacity();
    std::string file = "-";
    if (shard_capacity > 0) {
      file = ShardFileName(s, generation);
      SPROFILE_ASSIGN_OR_RETURN(const std::string bytes,
                                SerializeProfile(snap->profile.backend()));
      SPROFILE_RETURN_NOT_OK(sink.WriteFile(dir + "/" + file, bytes));
      // Lands in the SAVING thread's ring (usually the global fallback):
      // the spill is a reader-side operation, not a shard-worker one.
      obs::Trace(obs::TraceEvent::kSpill, s, bytes.size());
    }
    manifest << "shard " << s << ' ' << shard_capacity << ' ' << snap->epoch
             << ' ' << file << '\n';
  }

  const std::string tmp_path = manifest_path + ".tmp";
  SPROFILE_RETURN_NOT_OK(sink.WriteFile(tmp_path, manifest.str()));
  SPROFILE_RETURN_NOT_OK(sink.RenameFile(tmp_path, manifest_path));

  // The commit succeeded; the previous generation's shard files are now
  // unreferenced. Removal is best-effort cleanup, not correctness — and it
  // iterates the OLD manifest's shard count, which may differ from this
  // engine's.
  if (old_lineage.generation > 0) {
    for (uint32_t s = 0; s < old_lineage.shards; ++s) {
      sink.RemoveFileBestEffort(
          dir + "/" + ShardFileName(s, old_lineage.generation));
    }
  }
  return Status::OK();
}

Status SaveAll(ShardedProfiler& engine, const std::string& dir) {
  return SaveAll(engine, dir, DefaultSnapshotSink());
}

StatusOr<ShardedProfiler> LoadAll(const std::string& dir,
                                  const EngineOptions& options) {
  const std::string manifest_path = dir + "/" + kManifestFileName;
  if (SPROFILE_FAILPOINT("snapshot_load_read_fail")) {
    // Injected unreadable manifest: restore paths must degrade to a clean
    // Status, never a partially constructed engine.
    return Status::IOError("injected read failure (failpoint "
                           "snapshot_load_read_fail): " + manifest_path);
  }
  std::ifstream in(manifest_path);
  if (!in) return Status::IOError("cannot open " + manifest_path);

  ManifestHeader header;
  SPROFILE_RETURN_NOT_OK(ReadManifestHeader(in, manifest_path, &header));
  const uint32_t capacity = header.capacity;
  const uint32_t shards = header.shards;
  if (shards == 0 || shards > EngineOptions::kMaxShards) {
    return Status::Corruption(manifest_path + ": implausible shard count " +
                              std::to_string(shards));
  }

  struct ShardRecord {
    bool seen = false;
    uint32_t capacity = 0;
    std::string file;
  };
  std::vector<ShardRecord> records(shards);
  for (uint32_t i = 0; i < shards; ++i) {
    uint32_t index = 0, shard_capacity = 0;
    uint64_t epoch = 0;
    std::string key, file;
    if (!(in >> key >> index >> shard_capacity >> epoch >> file) ||
        key != "shard") {
      return Status::Corruption(manifest_path + ": truncated shard records");
    }
    if (index >= shards || records[index].seen) {
      return Status::Corruption(manifest_path + ": bad shard index " +
                                std::to_string(index));
    }
    const uint32_t expected =
        ShardedProfiler::ShardCapacity(capacity, shards, index);
    if (shard_capacity != expected) {
      return Status::Corruption(
          manifest_path + ": shard " + std::to_string(index) + " capacity " +
          std::to_string(shard_capacity) + " does not match the stride " +
          "partition (expected " + std::to_string(expected) + ")");
    }
    // The file name is fully determined by the index and generation;
    // accepting anything else would let a crafted manifest redirect the
    // load outside `dir`.
    const std::string expected_file =
        shard_capacity == 0 ? "-" : ShardFileName(index, header.generation);
    if (file != expected_file) {
      return Status::Corruption(manifest_path + ": shard " +
                                std::to_string(index) + " names file '" +
                                file + "', expected '" + expected_file + "'");
    }
    records[index] = ShardRecord{true, shard_capacity, file};
  }

  EngineOptions engine_options = options;
  engine_options.shards = shards;
  SPROFILE_RETURN_NOT_OK(engine_options.Validate());

  std::vector<adapters::SProfile> backends;
  backends.reserve(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    if (records[s].capacity == 0) {
      backends.emplace_back(0u);
      continue;
    }
    // Each restored shard gets its own arena, exactly as a freshly built
    // engine's shard does: the default allocator would put small shards
    // on the process heap, which MemoryStats would then sum once per
    // shard.
    SPROFILE_ASSIGN_OR_RETURN(
        FrequencyProfile profile,
        LoadProfile(dir + "/" + records[s].file,
                    internal::MakeEngineArenaAllocator(
                        ProfileFootprintBytes(records[s].capacity))));
    if (profile.capacity() != records[s].capacity) {
      return Status::Corruption(dir + "/" + records[s].file + ": capacity " +
                                std::to_string(profile.capacity()) +
                                " disagrees with the manifest");
    }
    backends.emplace_back(std::move(profile));
  }
  return ShardedProfiler(std::move(backends), capacity, engine_options);
}

}  // namespace engine
}  // namespace sprofile
