#include "func/memory.hh"

#include <algorithm>
#include <cstring>

namespace hpa::func
{

uint8_t *
Memory::pageIfPresent(uint64_t addr) const
{
    const uint64_t pn = addr >> PAGE_BITS;
    CachedPage &slot = cache_[pn & (PAGE_CACHE_SLOTS - 1)];
    if (slot.pageNum == pn)
        return slot.bytes;
    auto it = pages_.find(pn);
    if (it == pages_.end())
        return nullptr;
    slot = CachedPage{pn, it->second.get()};
    return slot.bytes;
}

uint8_t *
Memory::page(uint64_t addr)
{
    if (uint8_t *p = pageIfPresent(addr))
        return p;
    const uint64_t pn = addr >> PAGE_BITS;
    auto &bytes = pages_[pn];
    bytes = std::make_unique<uint8_t[]>(PAGE_SIZE);
    cache_[pn & (PAGE_CACHE_SLOTS - 1)] = CachedPage{pn, bytes.get()};
    return bytes.get();
}

uint8_t
Memory::readByte(uint64_t addr) const
{
    const uint8_t *p = pageIfPresent(addr);
    return p ? p[addr & (PAGE_SIZE - 1)] : 0;
}

void
Memory::writeByte(uint64_t addr, uint8_t value)
{
    page(addr)[addr & (PAGE_SIZE - 1)] = value;
}

uint64_t
Memory::read(uint64_t addr, unsigned size) const
{
    uint64_t off = addr & (PAGE_SIZE - 1);
    if (off + size <= PAGE_SIZE) {
        const uint8_t *p = pageIfPresent(addr);
        if (!p)
            return 0;
        uint64_t v = 0;
        std::memcpy(&v, p + off, size);
        return v;
    }
    uint64_t v = 0;
    for (unsigned i = 0; i < size; ++i)
        v |= static_cast<uint64_t>(readByte(addr + i)) << (8 * i);
    return v;
}

void
Memory::write(uint64_t addr, uint64_t value, unsigned size)
{
    uint64_t off = addr & (PAGE_SIZE - 1);
    if (off + size <= PAGE_SIZE) {
        std::memcpy(page(addr) + off, &value, size);
        return;
    }
    for (unsigned i = 0; i < size; ++i)
        writeByte(addr + i, static_cast<uint8_t>(value >> (8 * i)));
}

void
Memory::writeBlock(uint64_t addr, const void *src, size_t len)
{
    const auto *bytes = static_cast<const uint8_t *>(src);
    while (len > 0) {
        const uint64_t off = addr & (PAGE_SIZE - 1);
        const size_t n = std::min<uint64_t>(len, PAGE_SIZE - off);
        std::memcpy(page(addr) + off, bytes, n);
        addr += n;
        bytes += n;
        len -= n;
    }
}

} // namespace hpa::func
