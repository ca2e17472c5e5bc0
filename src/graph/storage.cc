#include "graph/storage.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace mce {
namespace {

struct CsrHeader {
  uint64_t magic;
  uint64_t num_nodes;
  uint64_t num_edges;
  uint64_t reserved;
};
static_assert(sizeof(CsrHeader) == 32);

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

Status CheckCsrHeader(const std::string& path, uint64_t n, uint64_t m,
                      uint64_t file_len) {
  // Compared by division, so no header value can overflow the check.
  constexpr uint64_t kEdgeBytes = 2 * sizeof(NodeId);
  bool fits = file_len >= sizeof(CsrHeader);
  if (fits) {
    const uint64_t body = file_len - sizeof(CsrHeader);
    fits = n < body / sizeof(uint64_t);  // room for the n + 1 offsets
    if (fits) {
      const uint64_t rest = body - (n + 1) * sizeof(uint64_t);
      fits = rest % kEdgeBytes == 0 && rest / kEdgeBytes == m;
    }
  }
  if (!fits) {
    return Status::IoError(path + ": file size " + std::to_string(file_len) +
                           " does not match header (" + std::to_string(n) +
                           " nodes, " + std::to_string(m) + " edges)");
  }
  if (n >= kInvalidNode) {
    return Status::OutOfRange(path + ": node count exceeds NodeId range");
  }
  return Status::OK();
}

Result<std::shared_ptr<const GraphStorage>> MmapCsrStorage::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError(Errno("open " + path));
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status s = Status::IoError(Errno("fstat " + path));
    ::close(fd);
    return s;
  }
  const uint64_t file_len = static_cast<uint64_t>(st.st_size);
  auto fail = [&](Status s) -> Result<std::shared_ptr<const GraphStorage>> {
    ::close(fd);
    return s;
  };
  if (file_len < sizeof(CsrHeader)) {
    return fail(Status::IoError(path + ": truncated CSR header"));
  }
  void* map = ::mmap(nullptr, file_len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping keeps the file alive.
  if (map == MAP_FAILED) return Status::IoError(Errno("mmap " + path));

  std::shared_ptr<MmapCsrStorage> storage(new MmapCsrStorage());
  storage->map_ = map;
  storage->map_len_ = file_len;

  CsrHeader header;
  std::memcpy(&header, map, sizeof(header));
  if (header.magic != kCsrBinaryMagic) {
    return Status::InvalidArgument(path + ": not an MCECSR02 graph file");
  }
  MCE_RETURN_NOT_OK(
      CheckCsrHeader(path, header.num_nodes, header.num_edges, file_len));
  const uint64_t n = header.num_nodes;
  const uint64_t entries = 2 * header.num_edges;
  const auto* offsets =
      reinterpret_cast<const uint64_t*>(static_cast<const char*>(map) +
                                        sizeof(CsrHeader));
  const auto* adjacency = reinterpret_cast<const NodeId*>(offsets + (n + 1));
  if (offsets[0] != 0 || offsets[n] != entries) {
    return Status::InvalidArgument(path + ": inconsistent CSR offsets");
  }
  storage->offsets_ = {offsets, offsets + n + 1};
  storage->adjacency_ = {adjacency, adjacency + entries};
  return std::shared_ptr<const GraphStorage>(std::move(storage));
}

MmapCsrStorage::~MmapCsrStorage() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
}

const std::shared_ptr<const GraphStorage>& EmptyGraphStorage() {
  static const auto* empty = new std::shared_ptr<const GraphStorage>(
      std::make_shared<OwnedCsrStorage>(std::vector<uint64_t>{0},
                                        std::vector<NodeId>{}));
  return *empty;
}

}  // namespace mce
