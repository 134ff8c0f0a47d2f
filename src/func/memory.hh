/**
 * @file
 * Sparse flat byte-addressable little-endian memory used by the
 * functional emulator (and, for addresses/tags only, by the timing
 * model's cache hierarchy).
 */

#ifndef HPA_FUNC_MEMORY_HH
#define HPA_FUNC_MEMORY_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>

namespace hpa::func
{

/** Sparse memory backed by demand-allocated 4 KiB pages. */
class Memory
{
  public:
    static constexpr uint64_t PAGE_BITS = 12;
    static constexpr uint64_t PAGE_SIZE = 1ull << PAGE_BITS;
    /** Slots of the page cache (a power of two): pages whose numbers
     *  are equal modulo this share a slot. 1,024 slots (16 KiB) give
     *  most pages of the largest kernel data segment, mcf's 4.4 MB
     *  (about 1,100 pages), a slot of their own. */
    static constexpr size_t PAGE_CACHE_SLOTS = 1024;

    uint8_t readByte(uint64_t addr) const;
    void writeByte(uint64_t addr, uint8_t value);

    /** Read @p size (1/2/4/8) bytes little-endian. */
    uint64_t read(uint64_t addr, unsigned size) const;
    /** Write the low @p size bytes of @p value little-endian. */
    void write(uint64_t addr, uint64_t value, unsigned size);

    /** Bulk copy-in used by the program loader. */
    void writeBlock(uint64_t addr, const void *src, size_t len);

    /** Number of currently allocated pages. */
    size_t numPages() const { return pages_.size(); }

  private:
    /** A page-cache slot: a page number and that page's bytes. */
    struct CachedPage
    {
        uint64_t pageNum = ~0ull;
        uint8_t *bytes = nullptr;
    };

    /** The bytes of the page holding @p addr, or null when no write
     *  has created it. */
    uint8_t *pageIfPresent(uint64_t addr) const;
    /** The bytes of the page holding @p addr, created zeroed. */
    uint8_t *page(uint64_t addr);

    std::unordered_map<uint64_t, std::unique_ptr<uint8_t[]>> pages_;
    /** Direct-mapped cache of page pointers, indexed by the low bits
     *  of the page number. It holds only pages that exist, so a
     *  write that creates a page is seen by the next read. Pages are
     *  never freed or moved, so a cached pointer stays valid (a moved
     *  Memory takes its pages along; the moved-from one may only be
     *  destroyed or assigned to). */
    mutable std::array<CachedPage, PAGE_CACHE_SLOTS> cache_{};
};

} // namespace hpa::func

#endif // HPA_FUNC_MEMORY_HH
