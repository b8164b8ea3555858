#include "colstore/reader.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

#include "engine/checkpoint.h"

namespace sqlts {
namespace {

template <typename T>
T GetLE(const char* p) {
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

struct Header {
  uint32_t version = 0;
  uint64_t footer_offset = 0;
  uint64_t footer_size = 0;
  uint64_t footer_checksum = 0;
};

StatusOr<Header> ParseHeader(std::string_view head, uint64_t file_size) {
  if (head.size() < kColumnarHeaderSize) {
    return Status::ParseError("columnar container: truncated header");
  }
  if (head.substr(0, kColumnarMagic.size()) != kColumnarMagic) {
    return Status::ParseError("columnar container: bad magic");
  }
  Header h;
  h.version = GetLE<uint32_t>(head.data() + 8);
  if (h.version != kColumnarVersion) {
    return Status::ParseError("columnar container: unsupported version " +
                              std::to_string(h.version));
  }
  h.footer_offset = GetLE<uint64_t>(head.data() + 12);
  h.footer_size = GetLE<uint64_t>(head.data() + 20);
  h.footer_checksum = GetLE<uint64_t>(head.data() + 28);
  if (h.footer_offset < kColumnarHeaderSize || h.footer_size > file_size ||
      h.footer_offset > file_size ||
      h.footer_offset + h.footer_size > file_size) {
    return Status::ParseError("columnar container: bad footer extent");
  }
  return h;
}

/// Reads exactly `n` bytes at `offset` into `dst`; false on a short read.
bool ReadAt(int fd, uint64_t offset, size_t n, char* dst) {
  while (n > 0) {
    const ssize_t got = ::pread(fd, dst, n, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    dst += got;
    offset += static_cast<uint64_t>(got);
    n -= static_cast<size_t>(got);
  }
  return true;
}

}  // namespace

ColumnarReader::~ColumnarReader() {
  if (fd_ >= 0) ::close(fd_);
}

bool ColumnarReader::SniffBytes(std::string_view bytes) {
  return bytes.size() >= kColumnarMagic.size() &&
         bytes.substr(0, kColumnarMagic.size()) == kColumnarMagic;
}

bool ColumnarReader::SniffFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  char buf[8];
  const bool ok = ReadAt(fd, 0, sizeof(buf), buf) &&
                  SniffBytes(std::string_view(buf, sizeof(buf)));
  ::close(fd);
  return ok;
}

StatusOr<std::unique_ptr<ColumnarReader>> ColumnarReader::Open(
    const std::string& path) {
  auto reader = std::unique_ptr<ColumnarReader>(new ColumnarReader());
  reader->fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (reader->fd_ < 0) return Status::IoError("cannot open '" + path + "'");
  struct stat st;
  if (::fstat(reader->fd_, &st) != 0) {
    return Status::IoError("cannot stat '" + path + "'");
  }
  reader->file_size_ = static_cast<uint64_t>(st.st_size);
  char head[kColumnarHeaderSize];
  const bool whole = ReadAt(reader->fd_, 0, sizeof(head), head);
  SQLTS_ASSIGN_OR_RETURN(
      Header h, ParseHeader(std::string_view(head, whole ? sizeof(head) : 0),
                            reader->file_size_));
  std::string footer_bytes(h.footer_size, '\0');
  if (!ReadAt(reader->fd_, h.footer_offset, footer_bytes.size(),
              footer_bytes.data())) {
    return Status::ParseError("columnar container: truncated footer");
  }
  if (Fnv1a64(footer_bytes) != h.footer_checksum) {
    return Status::ParseError("columnar container: footer checksum mismatch");
  }
  SQLTS_ASSIGN_OR_RETURN(reader->footer_,
                         DecodeFooter(footer_bytes, reader->file_size_));
  return reader;
}

StatusOr<std::unique_ptr<ColumnarReader>> ColumnarReader::OpenBytes(
    std::string bytes) {
  auto reader = std::unique_ptr<ColumnarReader>(new ColumnarReader());
  reader->buffer_ = std::move(bytes);
  reader->file_size_ = reader->buffer_.size();
  SQLTS_ASSIGN_OR_RETURN(Header h,
                         ParseHeader(reader->buffer_, reader->file_size_));
  const std::string_view footer_bytes =
      std::string_view(reader->buffer_)
          .substr(h.footer_offset, h.footer_size);
  if (Fnv1a64(footer_bytes) != h.footer_checksum) {
    return Status::ParseError("columnar container: footer checksum mismatch");
  }
  SQLTS_ASSIGN_OR_RETURN(reader->footer_,
                         DecodeFooter(footer_bytes, reader->file_size_));
  return reader;
}

StatusOr<Table> ColumnarReader::ReadBlockRange(int first_block,
                                               int num_blocks) {
  const int end = first_block + num_blocks;
  if (first_block < 0 || num_blocks < 0 ||
      end > static_cast<int>(footer_.blocks.size())) {
    return Status::InvalidArgument("columnar reader: block range out of bounds");
  }
  int64_t rows = 0;
  for (int b = first_block; b < end; ++b) rows += footer_.blocks[b].row_count;
  // DecodeFooter checked that each column's blocks lie back to back, so
  // a column's share of the range is one extent: one read (or in place).
  std::string scratch;  // file mode: the current column's extent
  std::vector<std::vector<Value>> columns(footer_.schema.num_columns());
  for (int c = 0; num_blocks > 0 && c < footer_.schema.num_columns(); ++c) {
    const std::vector<ColumnBlockMeta>& metas = footer_.columns[c];
    const uint64_t begin = metas[first_block].offset;
    const char* extent = fd_ < 0 ? buffer_.data() + begin : nullptr;
    if (fd_ >= 0) {
      scratch.resize(metas[end - 1].offset + metas[end - 1].size - begin);
      if (!ReadAt(fd_, begin, scratch.size(), scratch.data())) {
        return Status::IoError("columnar container: short block read");
      }
      extent = scratch.data();
    }
    columns[c].reserve(rows);
    for (int b = first_block; b < end; ++b) {
      const ColumnBlockMeta& m = metas[b];
      const std::string_view bytes(extent + (m.offset - begin), m.size);
      if (Fnv1a64(bytes) != m.checksum) {
        return Status::ParseError(
            "columnar container: block checksum mismatch (column " +
            footer_.schema.column(c).name + ", block " + std::to_string(b) +
            ")");
      }
      bytes_read_.fetch_add(static_cast<int64_t>(m.size),
                            std::memory_order_relaxed);
      SQLTS_RETURN_IF_ERROR(DecodeColumnBlock(
          bytes, m.encoding, footer_.schema.column(c).type,
          footer_.blocks[b].row_count, m.sketch.null_count, &columns[c]));
    }
  }
  return Table::FromColumns(footer_.schema, std::move(columns));
}

StatusOr<Table> ColumnarReader::ReadTable() {
  return ReadBlockRange(0, static_cast<int>(footer_.blocks.size()));
}

}  // namespace sqlts
