#include "core/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "comm/frame_io.hpp"

namespace sp::core {

namespace {

/// Fixed-layout identity + geometry frame (frame 0 of the file). Kept
/// trivially copyable so the frame payload is a straight memcpy; any
/// layout change must bump comm::kFrameFormatVersion.
struct MetaFrame {
  std::uint64_t num_vertices;
  std::uint64_t num_edges;
  std::uint64_t seed;
  std::uint32_t nranks;
  std::uint32_t pl;
  std::uint64_t level;
  double box[4];  // lo.x, lo.y, hi.x, hi.y
};
static_assert(std::is_trivially_copyable_v<MetaFrame>);

}  // namespace

embed::EmbedCheckpoint PipelineCheckpoint::to_embed_checkpoint() const {
  embed::EmbedCheckpoint c;
  c.valid = true;
  c.level = static_cast<std::size_t>(level);
  c.coords = coords;
  c.box = box;
  c.owner = owner;
  c.pl = pl;
  return c;
}

std::string checkpoint_path(const std::string& dir) {
  return dir + "/scalapart.ckpt";
}

void save_checkpoint(const std::string& path, const PipelineCheckpoint& ckpt) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw CheckpointError("cannot open '" + tmp + "' for writing");
    comm::write_frame_header(out);

    MetaFrame meta{};
    meta.num_vertices = ckpt.num_vertices;
    meta.num_edges = ckpt.num_edges;
    meta.seed = ckpt.seed;
    meta.nranks = ckpt.nranks;
    meta.pl = ckpt.pl;
    meta.level = ckpt.level;
    meta.box[0] = ckpt.box.lo[0];
    meta.box[1] = ckpt.box.lo[1];
    meta.box[2] = ckpt.box.hi[0];
    meta.box[3] = ckpt.box.hi[1];
    comm::write_frame(out, &meta, sizeof meta);
    comm::write_frame(out, ckpt.coords.data(),
                      ckpt.coords.size() * sizeof(geom::Vec2));
    comm::write_frame(out, ckpt.owner.data(),
                      ckpt.owner.size() * sizeof(std::uint32_t));
    out.flush();
    if (!out) throw CheckpointError("write to '" + tmp + "' failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CheckpointError("cannot rename '" + tmp + "' to '" + path + "'");
  }
}

PipelineCheckpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw CheckpointError("cannot open '" + path + "' for reading");
  PipelineCheckpoint ckpt;
  try {
    comm::read_frame_header(in);
    const std::vector<std::byte> meta_bytes = comm::read_frame(in, 0);
    if (meta_bytes.size() != sizeof(MetaFrame)) {
      throw CheckpointError("'" + path + "': meta frame has " +
                            std::to_string(meta_bytes.size()) +
                            " bytes, expected " +
                            std::to_string(sizeof(MetaFrame)));
    }
    MetaFrame meta{};
    std::memcpy(&meta, meta_bytes.data(), sizeof meta);
    ckpt.num_vertices = meta.num_vertices;
    ckpt.num_edges = meta.num_edges;
    ckpt.seed = meta.seed;
    ckpt.nranks = meta.nranks;
    ckpt.pl = meta.pl;
    ckpt.level = meta.level;
    ckpt.box.lo = geom::vec2(meta.box[0], meta.box[1]);
    ckpt.box.hi = geom::vec2(meta.box[2], meta.box[3]);

    // The frames hold the checkpointed level, which has fewer vertices
    // than the input graph when it is a coarse one, so they are checked
    // against each other; a resuming run checks their count against its
    // hierarchy.
    const std::vector<std::byte> coord_bytes = comm::read_frame(in, 1);
    const std::vector<std::byte> owner_bytes = comm::read_frame(in, 2);
    const std::size_t level_n = owner_bytes.size() / sizeof(std::uint32_t);
    if (owner_bytes.size() % sizeof(std::uint32_t) != 0 ||
        coord_bytes.size() != level_n * sizeof(geom::Vec2)) {
      throw CheckpointError("'" + path +
                            "': coordinate and owner frame sizes disagree");
    }
    ckpt.coords.resize(level_n);
    ckpt.owner.resize(level_n);
    if (level_n != 0) {
      std::memcpy(ckpt.coords.data(), coord_bytes.data(), coord_bytes.size());
      std::memcpy(ckpt.owner.data(), owner_bytes.data(), owner_bytes.size());
    }
  } catch (const comm::FrameError& e) {
    throw CheckpointError("'" + path + "': " + e.what());
  }
  for (std::uint32_t r : ckpt.owner) {
    if (r >= ckpt.pl) {
      throw CheckpointError("'" + path +
                            "': owner entry exceeds active rank count");
    }
  }
  return ckpt;
}

}  // namespace sp::core
