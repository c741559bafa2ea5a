// Failure injection: truncated and corrupted on-disk artifacts must be
// rejected with exceptions, never silently mis-parsed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/rng.h"
#include "io/io.h"
#include "layout/squish.h"
#include "nn/checkpoint.h"
#include "nn/modules.h"

namespace dio = diffpattern::io;
namespace dl = diffpattern::layout;
namespace dg = diffpattern::geometry;
namespace nn = diffpattern::nn;
namespace dc = diffpattern::common;

namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<char> read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void write_all(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string make_library_file() {
  dl::Layout l;
  l.width = 100;
  l.height = 100;
  l.rects.push_back(dg::Rect{10, 10, 60, 40});
  const auto path = temp_path("dp_fi_library.bin");
  dio::save_pattern_library(path, {dl::extract_squish(l),
                                   dl::extract_squish(l)});
  return path;
}

std::string make_checkpoint_file(nn::ParamRegistry& registry) {
  dc::Rng rng(3);
  const auto path = temp_path("dp_fi_ckpt.bin");
  nn::save_checkpoint(registry, path);
  return path;
}

}  // namespace

class LibraryTruncation : public ::testing::TestWithParam<double> {};

TEST_P(LibraryTruncation, TruncatedFileThrows) {
  const auto path = make_library_file();
  const auto bytes = read_all(path);
  ASSERT_GT(bytes.size(), 16U);
  const auto cut = static_cast<std::size_t>(
      static_cast<double>(bytes.size()) * GetParam());
  const auto trunc_path = temp_path("dp_fi_library_trunc.bin");
  write_all(trunc_path,
            std::vector<char>(bytes.begin(),
                              bytes.begin() + static_cast<std::ptrdiff_t>(
                                                  std::max<std::size_t>(cut, 1))));
  EXPECT_THROW(dio::load_pattern_library(trunc_path), std::exception);
  std::remove(path.c_str());
  std::remove(trunc_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(CutPoints, LibraryTruncation,
                         ::testing::Values(0.05, 0.2, 0.5, 0.75, 0.95, 0.999));

TEST(LibraryCorruption, FlippedMagicRejected) {
  const auto path = make_library_file();
  auto bytes = read_all(path);
  bytes[0] ^= 0x40;
  write_all(path, bytes);
  EXPECT_THROW(dio::load_pattern_library(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(LibraryCorruption, AbsurdCountRejected) {
  const auto path = make_library_file();
  auto bytes = read_all(path);
  // Pattern count lives right after the 8-byte magic; blow it up.
  for (int i = 8; i < 16; ++i) {
    bytes[static_cast<std::size_t>(i)] = static_cast<char>(0xFF);
  }
  write_all(path, bytes);
  EXPECT_THROW(dio::load_pattern_library(path), std::exception);
  std::remove(path.c_str());
}

// Hostile headers must be rejected against the file's real size before the
// reader allocates anything they size: a 32-byte file may not reserve
// gigabytes.
TEST(LibraryCorruption, OversizedHeadersRejectedBeforeAllocating) {
  const auto path = temp_path("dp_fi_library_header.bin");
  const auto write_header = [&](std::uint64_t count, std::uint64_t rows,
                                std::uint64_t cols) {
    std::vector<char> bytes(8 + 3 * 8);
    std::memcpy(bytes.data(), "DPLIB01\0", 8);
    std::memcpy(bytes.data() + 8, &count, 8);
    std::memcpy(bytes.data() + 16, &rows, 8);
    std::memcpy(bytes.data() + 24, &cols, 8);
    write_all(path, bytes);
  };
  write_header(1, 1ULL << 15, 1ULL << 15);
  EXPECT_THROW(dio::load_pattern_library(path), std::runtime_error)
      << "2^15 x 2^15 grid in a 32-byte file";
  write_header(1ULL << 62, 4, 4);
  EXPECT_THROW(dio::load_pattern_library(path), std::runtime_error)
      << "count 2^62";
  write_header(1, 1ULL << 20, 1ULL << 20);
  EXPECT_THROW(dio::load_pattern_library(path), std::runtime_error)
      << "2^20 x 2^20 grid";
  write_header(1, ~0ULL, 4);
  EXPECT_THROW(dio::load_pattern_library(path), std::runtime_error)
      << "rows = -1";
  std::remove(path.c_str());
}

class CheckpointTruncation : public ::testing::TestWithParam<double> {};

TEST_P(CheckpointTruncation, TruncatedFileThrows) {
  dc::Rng rng(9);
  nn::ParamRegistry reg;
  nn::Linear lin(reg, rng, "lin", 8, 8);
  const auto path = make_checkpoint_file(reg);
  const auto bytes = read_all(path);
  const auto cut = static_cast<std::size_t>(
      static_cast<double>(bytes.size()) * GetParam());
  write_all(path, std::vector<char>(
                      bytes.begin(),
                      bytes.begin() + static_cast<std::ptrdiff_t>(
                                          std::max<std::size_t>(cut, 1))));
  nn::ParamRegistry fresh;
  dc::Rng rng2(10);
  nn::Linear lin2(fresh, rng2, "lin", 8, 8);
  EXPECT_THROW(nn::load_checkpoint(fresh, path), std::exception);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(CutPoints, CheckpointTruncation,
                         ::testing::Values(0.1, 0.4, 0.7, 0.9));

TEST(CheckpointCorruption, ValuesSurviveIntactOtherwise) {
  // Control: an untouched file loads exactly.
  dc::Rng rng(11);
  nn::ParamRegistry reg;
  nn::Linear lin(reg, rng, "lin", 4, 4);
  const auto path = make_checkpoint_file(reg);
  nn::ParamRegistry fresh;
  dc::Rng rng2(12);
  nn::Linear lin2(fresh, rng2, "lin", 4, 4);
  nn::load_checkpoint(fresh, path);
  for (std::size_t i = 0; i < reg.size(); ++i) {
    for (std::int64_t j = 0; j < reg.params()[i].numel(); ++j) {
      EXPECT_FLOAT_EQ(fresh.params()[i].value()[j],
                      reg.params()[i].value()[j]);
    }
  }
  std::remove(path.c_str());
}

TEST(PatternValidation, LoadedLibraryEntriesAreValidated) {
  // A library whose delta bytes are zeroed must fail SquishPattern
  // validation on load (positive-delta invariant).
  const auto path = make_library_file();
  auto bytes = read_all(path);
  // Zero the last 16 bytes (tail of the last pattern's dy deltas).
  for (std::size_t i = bytes.size() - 16; i < bytes.size(); ++i) {
    bytes[i] = 0;
  }
  write_all(path, bytes);
  EXPECT_THROW(dio::load_pattern_library(path), std::invalid_argument);
  std::remove(path.c_str());
}
