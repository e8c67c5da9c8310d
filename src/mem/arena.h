/**
 * @file
 * mem::ArenaView — the zero-copy substrate under the big immutable arrays
 * (packed sequence words, GBWT record bytes, minimizer tables, distance
 * arrays).  A view is either *owned* (a std::vector built on the heap, the
 * classic parse path) or *mapped* (a typed span into a read-only mmap of an
 * MGZ v3 container, kept alive by a shared MappedFile handle).  Consumers
 * read through data()/size()/operator[] and never know the difference; the
 * build/parse paths mutate through owned()/adopt(), which are only legal in
 * owned mode.
 *
 * The mapped mode is what makes "N mapper processes share one page-cache
 * copy" work: every process maps the same file MAP_SHARED|PROT_READ, so the
 * kernel backs all of them with a single set of physical pages.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/common.h"

namespace mg::mem {

/**
 * A read-only memory-mapped file (RAII).  Opened O_RDONLY and mapped
 * PROT_READ | MAP_SHARED so concurrent processes mapping the same
 * container deduplicate in the page cache.  Held by shared_ptr: every
 * ArenaView bound into the mapping keeps the mapping alive.
 */
class MappedFile
{
  public:
    /** Map `path` read-only; throws util::Error on open/map failure. */
    static std::shared_ptr<MappedFile> open(const std::string& path);

    ~MappedFile();
    MappedFile(const MappedFile&) = delete;
    MappedFile& operator=(const MappedFile&) = delete;

    const uint8_t* data() const { return data_; }
    size_t size() const { return size_; }
    const std::string& path() const { return path_; }

    /**
     * Bytes of the mapping currently resident in the page cache
     * (mincore(2) scan).  This is the "what does this process actually
     * touch" number inspect_pangenome reports against size().
     */
    size_t residentBytes() const;

    /** System page size used for alignment checks. */
    static size_t pageSize();

  private:
    MappedFile() = default;

    uint8_t* data_ = nullptr;
    size_t size_ = 0;
    std::string path_;
};

/**
 * Dual-backing typed array view.  Default-constructed views are owned and
 * empty, so existing code that built vectors in place keeps working by
 * swapping the member type and touching mutations only.
 */
template <typename T>
class ArenaView
{
  public:
    ArenaView() = default;

    /** True when backed by a MappedFile instead of heap storage. */
    bool isMapped() const { return file_ != nullptr; }

    const T*
    data() const
    {
        return file_ ? mapped_ : owned_.data();
    }

    size_t size() const { return file_ ? mappedSize_ : owned_.size(); }
    bool empty() const { return size() == 0; }

    const T& operator[](size_t i) const { return data()[i]; }
    const T& back() const { return data()[size() - 1]; }
    const T* begin() const { return data(); }
    const T* end() const { return data() + size(); }

    /** Bytes of payload held (either backing). */
    size_t bytes() const { return size() * sizeof(T); }

    /** Bytes reserved: vector capacity when owned, span bytes mapped. */
    size_t
    reservedBytes() const
    {
        return file_ ? mappedSize_ * sizeof(T)
                     : owned_.capacity() * sizeof(T);
    }

    /**
     * Mutable access to the heap backing for the build/parse paths.
     * Illegal on a mapped view (programming error, not input error).
     */
    std::vector<T>&
    owned()
    {
        MG_ASSERT(file_ == nullptr);
        return owned_;
    }

    /** Replace the heap backing wholesale (builder output handoff). */
    void
    adopt(std::vector<T>&& values)
    {
        MG_ASSERT(file_ == nullptr);
        owned_ = std::move(values);
    }

    /**
     * Bind to `count` elements at `ptr` inside `file`'s mapping.  The
     * caller (the v3 loader) has already validated alignment and bounds;
     * this just records the span and takes a keepalive reference.
     */
    void
    bind(std::shared_ptr<MappedFile> file, const T* ptr, size_t count)
    {
        MG_ASSERT(file != nullptr);
        owned_.clear();
        owned_.shrink_to_fit();
        file_ = std::move(file);
        mapped_ = ptr;
        mappedSize_ = count;
    }

  private:
    std::vector<T> owned_;
    std::shared_ptr<MappedFile> file_;
    const T* mapped_ = nullptr;
    size_t mappedSize_ = 0;
};

/** Element-wise equality across any backing mix (test convenience). */
template <typename T>
bool
operator==(const ArenaView<T>& a, const ArenaView<T>& b)
{
    if (a.size() != b.size()) {
        return false;
    }
    for (size_t i = 0; i < a.size(); ++i) {
        if (!(a[i] == b[i])) {
            return false;
        }
    }
    return true;
}

template <typename T>
bool
operator==(const ArenaView<T>& a, const std::vector<T>& b)
{
    if (a.size() != b.size()) {
        return false;
    }
    for (size_t i = 0; i < a.size(); ++i) {
        if (!(a[i] == b[i])) {
            return false;
        }
    }
    return true;
}

} // namespace mg::mem
