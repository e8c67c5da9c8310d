#include "mem/arena.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/status.h"

namespace mg::mem {

std::shared_ptr<MappedFile>
MappedFile::open(const std::string& path)
{
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    util::require(fd >= 0, "mmap open failed: ", path, ": ",
                  std::strerror(errno));
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        int err = errno;
        ::close(fd);
        throw util::Error(util::cat("mmap fstat failed: ", path, ": ",
                                    std::strerror(err)));
    }
    auto file = std::shared_ptr<MappedFile>(new MappedFile());
    file->path_ = path;
    file->size_ = static_cast<size_t>(st.st_size);
    if (file->size_ == 0) {
        ::close(fd);
        util::throwStatus(
            {util::StatusCode::Truncated, "mmap refused: empty file", path});
    }
    // MAP_SHARED + PROT_READ: concurrent mappers of the same container
    // share one set of page-cache pages (the fleet memory model).
    void* addr =
        ::mmap(nullptr, file->size_, PROT_READ, MAP_SHARED, fd, 0);
    int maperr = errno;
    ::close(fd);  // the mapping holds its own reference to the file
    util::require(addr != MAP_FAILED, "mmap failed: ", path, ": ",
                  std::strerror(maperr));
    file->data_ = static_cast<uint8_t*>(addr);
    return file;
}

MappedFile::~MappedFile()
{
    if (data_ != nullptr) {
        ::munmap(data_, size_);
    }
}

size_t
MappedFile::residentBytes() const
{
    const size_t page = pageSize();
    const size_t pages = (size_ + page - 1) / page;
    std::vector<unsigned char> vec(pages);
    if (::mincore(data_, size_, vec.data()) != 0) {
        return 0;
    }
    size_t resident = 0;
    for (unsigned char bit : vec) {
        resident += (bit & 1u) ? page : 0;
    }
    return std::min(resident, size_);
}

size_t
MappedFile::pageSize()
{
    static const size_t page =
        static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    return page;
}

} // namespace mg::mem
