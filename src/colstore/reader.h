#ifndef SQLTS_COLSTORE_READER_H_
#define SQLTS_COLSTORE_READER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "colstore/format.h"
#include "common/statusor.h"
#include "storage/table.h"

namespace sqlts {

/// Random-access reader over a `.sqlc` columnar container.
///
/// Open() validates the header, loads and checksum-verifies the footer,
/// and validates the whole directory (DecodeFooter), including that each
/// column's blocks lie back to back in block order — but reads no block
/// data.  ReadBlockRange fetches each column's extent of the range with
/// one positional read (in place for OpenBytes), verifies every block's
/// FNV-1a checksum on its slice of that extent, and decodes the block
/// straight into the table's cells, so blocks the zone maps prove
/// irrelevant cost zero I/O.  Reads share no file position and no lock,
/// so the reader is safe to share across the sharded executor's workers.
class ColumnarReader {
 public:
  /// Opens a container file.  Magic/version/footer-checksum mismatches
  /// and directory inconsistencies yield typed errors.
  static StatusOr<std::unique_ptr<ColumnarReader>> Open(
      const std::string& path);

  /// Opens an in-memory container image (tests, corruption fuzzing).
  static StatusOr<std::unique_ptr<ColumnarReader>> OpenBytes(
      std::string bytes);

  /// True when `path` starts with the columnar magic (format
  /// auto-detection; false on unreadable or short files).
  static bool SniffFile(const std::string& path);
  static bool SniffBytes(std::string_view bytes);

  ~ColumnarReader();

  const ColumnarFooter& footer() const { return footer_; }
  const Schema& schema() const { return footer_.schema; }

  /// Decodes every column of blocks [first_block, first_block +
  /// num_blocks) into a row-aligned Table (the contiguous-segment form
  /// the matchers consume).
  StatusOr<Table> ReadBlockRange(int first_block, int num_blocks);

  /// Full decode of the file in stored row order.
  StatusOr<Table> ReadTable();

  /// Cumulative encoded payload bytes fetched from the container so
  /// far (excludes header/footer; feeds SearchStats::bytes_read).
  int64_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }

 private:
  ColumnarReader() = default;
  ColumnarReader(const ColumnarReader&) = delete;
  ColumnarReader& operator=(const ColumnarReader&) = delete;

  ColumnarFooter footer_;
  uint64_t file_size_ = 0;

  int fd_ = -1;          // file-backed mode (read with pread)
  std::string buffer_;  // in-memory mode (immutable after OpenBytes)
  std::atomic<int64_t> bytes_read_{0};
};

}  // namespace sqlts

#endif  // SQLTS_COLSTORE_READER_H_
