/**
 * @file
 * Little-endian scalar codecs and CRC-32: the framing primitives shared
 * by the binary file formats (trace files, sweep journals).
 */

#ifndef MCSIM_SIM_BYTES_HH
#define MCSIM_SIM_BYTES_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mcsim
{

/** Little-endian scalar append helpers. @{ */
void putU16(std::vector<std::uint8_t> &out, std::uint16_t v);
void putU32(std::vector<std::uint8_t> &out, std::uint32_t v);
void putU64(std::vector<std::uint8_t> &out, std::uint64_t v);
/** @} */

/** Little-endian scalar readers (no bounds check; caller slices). @{ */
std::uint16_t getU16(const std::uint8_t *p);
std::uint32_t getU32(const std::uint8_t *p);
std::uint64_t getU64(const std::uint8_t *p);
/** @} */

/** CRC-32 (IEEE 802.3 polynomial) over @p size bytes. */
std::uint32_t crc32(const void *data, std::size_t size,
                    std::uint32_t seed = 0);

} // namespace mcsim

#endif // MCSIM_SIM_BYTES_HH
