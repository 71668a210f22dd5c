// Checkpoint files re-stamped with another format version: the version field
// is rewritten and the CRC-32 trailer recomputed, so the loader gets past the
// CRC and judges the version alone.
#ifndef RCONS_TESTS_SUPPORT_CHECKPOINT_BYTES_HPP
#define RCONS_TESTS_SUPPORT_CHECKPOINT_BYTES_HPP

#include <cstddef>
#include <cstdint>
#include <string>

namespace rcons::test {

// CRC-32 (IEEE, reflected), as the checkpoint trailer holds it.
inline std::uint32_t checkpoint_crc32(const std::string& bytes, std::size_t size) {
  std::uint32_t crc = 0xffffffffU;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= static_cast<unsigned char>(bytes[i]);
    for (int k = 0; k < 8; ++k) crc = (crc & 1) != 0 ? 0xedb88320U ^ (crc >> 1) : crc >> 1;
  }
  return crc ^ 0xffffffffU;
}

// `bytes` (a whole checkpoint file) with `version` in its header: the u32
// after the 4-byte magic, little-endian like the CRC trailer.
inline std::string with_checkpoint_version(std::string bytes, std::uint32_t version) {
  const auto put_u32 = [&](std::size_t at, std::uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      bytes[at + static_cast<std::size_t>(i)] = static_cast<char>((value >> (8 * i)) & 0xffU);
    }
  };
  put_u32(4, version);
  const std::size_t body = bytes.size() - 4;
  put_u32(body, checkpoint_crc32(bytes, body));
  return bytes;
}

}  // namespace rcons::test

#endif  // RCONS_TESTS_SUPPORT_CHECKPOINT_BYTES_HPP
