#include "ckpt/ckpt.hpp"

#include <cstdio>

namespace massf::ckpt {
namespace {

constexpr char kMagic[8] = {'M', 'A', 'S', 'S', 'F', 'C', 'K', 'P'};

void append_u32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void append_u64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void set_error(std::string* error, std::string msg) {
  if (error) *error = std::move(msg);
}

}  // namespace

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

Writer& Checkpoint::add_section(std::string name) {
  sections_.push_back(Section{std::move(name), Writer{}});
  return sections_.back().writer;
}

bool Checkpoint::has_section(std::string_view name) const {
  for (const Section& s : sections_)
    if (s.name == name) return true;
  return false;
}

std::optional<Reader> Checkpoint::section(std::string_view name) const {
  for (const Section& s : sections_)
    if (s.name == name)
      return Reader(s.writer.buffer().data(), s.writer.size());
  return std::nullopt;
}

const std::vector<std::string> Checkpoint::section_names() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const Section& s : sections_) names.push_back(s.name);
  return names;
}

std::vector<std::uint8_t> Checkpoint::serialize() const {
  // Payload: per section [u32 name_len][name][u64 body_len][body].
  std::vector<std::uint8_t> payload;
  for (const Section& s : sections_) {
    append_u32(payload, static_cast<std::uint32_t>(s.name.size()));
    payload.insert(payload.end(), s.name.begin(), s.name.end());
    append_u64(payload, s.writer.size());
    const auto& body = s.writer.buffer();
    payload.insert(payload.end(), body.begin(), body.end());
  }

  // Header: magic, version, section count, payload length, payload checksum.
  std::vector<std::uint8_t> out(kMagic, kMagic + 8);
  append_u32(out, kFormatVersion);
  append_u32(out, static_cast<std::uint32_t>(sections_.size()));
  append_u64(out, payload.size());
  append_u64(out, fnv1a(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::optional<Checkpoint> Checkpoint::parse(const std::uint8_t* data,
                                            std::size_t size,
                                            std::string* error) {
  constexpr std::size_t kHeader = 8 + 4 + 4 + 8 + 8;
  if (size < kHeader) {
    set_error(error, "checkpoint truncated before header");
    return std::nullopt;
  }
  if (std::memcmp(data, kMagic, 8) != 0) {
    set_error(error, "bad magic (not a massf checkpoint)");
    return std::nullopt;
  }
  Reader hdr(data + 8, kHeader - 8);
  const std::uint32_t version = hdr.u32();
  const std::uint32_t count = hdr.u32();
  const std::uint64_t payload_len = hdr.u64();
  const std::uint64_t checksum = hdr.u64();
  if (version != kFormatVersion) {
    set_error(error, "unsupported checkpoint version " + std::to_string(version));
    return std::nullopt;
  }
  if (payload_len != size - kHeader) {
    set_error(error, "payload length mismatch (truncated or trailing bytes)");
    return std::nullopt;
  }
  const std::uint8_t* payload = data + kHeader;
  if (fnv1a(payload, payload_len) != checksum) {
    set_error(error, "payload checksum mismatch (corrupted checkpoint)");
    return std::nullopt;
  }

  Checkpoint ckpt;
  Reader r(payload, payload_len);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string name = r.str();
    const std::uint64_t body_len = r.u64();
    if (!r.ok() || body_len > r.remaining()) {
      set_error(error, "malformed section table at entry " + std::to_string(i));
      return std::nullopt;
    }
    Writer& w = ckpt.add_section(name);
    w.bytes(payload + (payload_len - r.remaining()), body_len);
    r.skip(body_len);
  }
  if (!r.done()) {
    set_error(error, "trailing bytes after last section");
    return std::nullopt;
  }
  return ckpt;
}

bool Checkpoint::write_file(const std::string& path, std::string* error) const {
  return write_bytes(path, serialize(), error);
}

bool Checkpoint::write_bytes(const std::string& path,
                             const std::vector<std::uint8_t>& bytes,
                             std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    set_error(error, "cannot open " + path + " for writing");
    return false;
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool ok = (std::fclose(f) == 0) && written == bytes.size();
  if (!ok) set_error(error, "short write to " + path);
  return ok;
}

std::optional<Checkpoint> Checkpoint::read_file(const std::string& path,
                                                std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    set_error(error, "cannot open " + path);
    return std::nullopt;
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[1 << 16];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
    bytes.insert(bytes.end(), chunk, chunk + n);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) {
    set_error(error, "read error on " + path);
    return std::nullopt;
  }
  return parse(bytes.data(), bytes.size(), error);
}

void Participants::add(std::string name, SaveFn save, LoadFn load) {
  entries_.push_back(Entry{std::move(name), std::move(save), std::move(load)});
}

void Participants::save(Checkpoint& ckpt) const {
  for (const Entry& e : entries_) e.save(ckpt.add_section(e.name));
}

bool Participants::restore(const Checkpoint& ckpt, std::string* error) const {
  for (const Entry& e : entries_) {
    std::optional<Reader> r = ckpt.section(e.name);
    if (!r) {
      set_error(error, "missing section '" + e.name + "'");
      return false;
    }
    if (!e.load(*r)) {
      set_error(error, "section '" + e.name + "' rejected (state shape mismatch)");
      return false;
    }
    if (!r->done()) {
      set_error(error, "section '" + e.name + "' malformed (size mismatch)");
      return false;
    }
  }
  return true;
}

}  // namespace massf::ckpt
