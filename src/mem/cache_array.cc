#include "mem/cache_array.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace ehpsim
{
namespace mem
{

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // anonymous namespace

CacheArray::CacheArray(std::uint64_t size_bytes, unsigned assoc,
                       unsigned line_bytes)
    : size_bytes_(size_bytes), assoc_(assoc), line_bytes_(line_bytes)
{
    if (assoc == 0 || line_bytes == 0 || size_bytes == 0)
        fatal("cache geometry must be nonzero");
    if (!isPow2(line_bytes))
        fatal("cache line size must be a power of two");
    if (line_bytes <= kFlags)
        fatal("cache line size must be at least ", kFlags + 1,
              " B (the tag word keeps its flags below the line)");
    if (size_bytes % (static_cast<std::uint64_t>(assoc) * line_bytes))
        fatal("cache size not divisible by assoc * line size");
    const std::uint64_t sets =
        size_bytes / (static_cast<std::uint64_t>(assoc) * line_bytes);
    if (!isPow2(sets))
        fatal("cache set count must be a power of two");
    num_sets_ = static_cast<unsigned>(sets);
    line_mask_ = line_bytes_ - 1;
    line_shift_ = static_cast<unsigned>(std::countr_zero(line_bytes_));
    set_mask_ = num_sets_ - 1;
    blocks_.assign(2 * static_cast<std::size_t>(num_sets_) * assoc_, 0);
}

unsigned
CacheArray::findWay(const std::uint64_t *block, Addr tag) const
{
    // Dirty/prefetched are masked off; valid must be set.
    const std::uint64_t want = tag | kValid;
    for (unsigned way = 0; way < assoc_; ++way) {
        if ((block[way] & ~(kDirty | kPrefetched)) == want)
            return way;
    }
    return assoc_;
}

void
CacheArray::touchHit(unsigned set, unsigned way)
{
    setBlock(set)[assoc_ + way] = ++use_counter_;
}

std::optional<unsigned>
CacheArray::lookup(Addr addr)
{
    const unsigned set = setIndex(addr);
    const unsigned way = findWay(setBlock(set), lineAlign(addr));
    if (way == assoc_)
        return std::nullopt;
    touchHit(set, way);
    return way;
}

std::optional<unsigned>
CacheArray::peek(Addr addr) const
{
    const unsigned way =
        findWay(setBlock(setIndex(addr)), lineAlign(addr));
    if (way == assoc_)
        return std::nullopt;
    return way;
}

void
CacheArray::setDirty(Addr addr, unsigned way)
{
    setBlock(setIndex(addr))[way] |= kDirty;
}

bool
CacheArray::takePrefetched(Addr addr, unsigned way)
{
    std::uint64_t &word = setBlock(setIndex(addr))[way];
    const bool was = (word & kPrefetched) != 0;
    word &= ~kPrefetched;
    return was;
}

std::pair<unsigned, bool>
CacheArray::scan(unsigned set, Addr tag)
{
    const std::uint64_t *block = setBlock(set);
    const std::uint64_t *stamps = block + assoc_;
    const std::uint64_t want = tag | kValid;
    unsigned invalid = assoc_;
    unsigned oldest = 0;
    for (unsigned way = 0; way < assoc_; ++way) {
        const std::uint64_t word = block[way];
        if ((word & ~(kDirty | kPrefetched)) == want)
            return {way, true};
        if (!(word & kValid)) {
            if (invalid == assoc_)
                invalid = way;
        } else if (stamps[way] < stamps[oldest]) {
            // Only used when every way is valid, so an invalid way 0
            // seeding 'oldest' never decides a victim.
            oldest = way;
        }
    }
    return {invalid != assoc_ ? invalid : oldest, false};
}

std::optional<CacheLine>
CacheArray::place(unsigned set, unsigned way, Addr tag, bool dirty,
                  bool prefetched)
{
    std::uint64_t *block = setBlock(set);
    std::optional<CacheLine> victim;
    if (block[way] & kValid)
        victim = unpack(block[way]);
    block[way] = pack(tag, dirty, prefetched);
    block[assoc_ + way] = ++use_counter_;
    return victim;
}

std::optional<CacheLine>
CacheArray::insert(Addr addr, bool dirty, bool prefetched)
{
    const Fill f = fill(addr, true, dirty, prefetched);
    if (f.hit) {
        std::uint64_t &word = setBlock(setIndex(addr))[*f.hit];
        if (dirty)
            word |= kDirty;
        if (!prefetched)
            word &= ~kPrefetched;
    }
    return f.victim;
}

CacheArray::Fill
CacheArray::fill(Addr addr, bool touch, bool dirty, bool prefetched)
{
    const unsigned set = setIndex(addr);
    const Addr tag = lineAlign(addr);
    const auto [way, hit] = scan(set, tag);
    if (!hit)
        return {std::nullopt, place(set, way, tag, dirty, prefetched)};
    if (touch)
        touchHit(set, way);
    return {way, std::nullopt};
}

CacheArray::Fill
CacheArray::lookupOrFill(Addr addr, bool dirty)
{
    return fill(addr, true, dirty, false);
}

CacheArray::Fill
CacheArray::fillAbsent(Addr addr, bool dirty, bool prefetched)
{
    return fill(addr, false, dirty, prefetched);
}

std::optional<CacheLine>
CacheArray::invalidate(Addr addr)
{
    std::uint64_t *block = setBlock(setIndex(addr));
    const unsigned way = findWay(block, lineAlign(addr));
    if (way == assoc_)
        return std::nullopt;
    const CacheLine old = unpack(block[way]);
    block[way] = 0;
    return old;
}

std::vector<CacheLine>
CacheArray::flushAll()
{
    std::vector<CacheLine> dirty;
    for (unsigned set = 0; set < num_sets_; ++set) {
        std::uint64_t *block = setBlock(set);
        for (unsigned way = 0; way < assoc_; ++way) {
            if ((block[way] & (kValid | kDirty)) == (kValid | kDirty))
                dirty.push_back(unpack(block[way]));
            block[way] = 0;
        }
    }
    return dirty;
}

std::uint64_t
CacheArray::numValid() const
{
    std::uint64_t n = 0;
    for (unsigned set = 0; set < num_sets_; ++set) {
        const std::uint64_t *block = setBlock(set);
        for (unsigned way = 0; way < assoc_; ++way)
            n += block[way] & kValid;
    }
    return n;
}

void
CacheArray::snapshot(SnapshotWriter &w) const
{
    w.putU64(size_bytes_);
    w.putU32(assoc_);
    w.putU32(line_bytes_);
    w.putU64(use_counter_);
    w.putU64(numValid());
    for (unsigned set = 0; set < num_sets_; ++set) {
        const std::uint64_t *block = setBlock(set);
        for (unsigned way = 0; way < assoc_; ++way) {
            if (!(block[way] & kValid))
                continue;
            const CacheLine l = unpack(block[way]);
            w.putU64(static_cast<std::uint64_t>(set) * assoc_ + way);
            w.putU64(l.tag);
            w.putBool(l.dirty);
            w.putU8(0);
            w.putU64(block[assoc_ + way]);
            w.putBool(l.prefetched);
        }
    }
}

void
CacheArray::restore(SnapshotReader &r)
{
    const std::uint64_t size = r.getU64();
    const std::uint32_t assoc = r.getU32();
    const std::uint32_t line = r.getU32();
    if (size != size_bytes_ || assoc != assoc_ || line != line_bytes_) {
        fatal("cache snapshot saved as ", size, " B x", assoc,
              "-way x", line, " B lines but configured as ",
              size_bytes_, " B x", assoc_, "-way x", line_bytes_,
              " B lines — checkpoint/config mismatch");
    }
    use_counter_ = r.getU64();
    std::fill(blocks_.begin(), blocks_.end(), 0);
    const std::uint64_t lines =
        static_cast<std::uint64_t>(num_sets_) * assoc_;
    const std::uint64_t valid = r.getU64();
    for (std::uint64_t i = 0; i < valid; ++i) {
        const std::uint64_t idx = r.getU64();
        if (idx >= lines)
            fatal("cache snapshot line index ", idx,
                  " out of range — corrupt checkpoint");
        const Addr tag = r.getU64();
        if (tag & line_mask_)
            fatal("cache snapshot tag ", tag,
                  " is not line-aligned — corrupt checkpoint");
        const bool dirty = r.getBool();
        r.getU8();      // retired per-line coherence state, always 0
        const std::uint64_t stamp = r.getU64();
        const bool prefetched = r.getBool();
        std::uint64_t *block =
            setBlock(static_cast<unsigned>(idx / assoc_));
        const unsigned way = static_cast<unsigned>(idx % assoc_);
        block[way] = pack(tag, dirty, prefetched);
        block[assoc_ + way] = stamp;
    }
}

bool
CacheArray::tagsUnique() const
{
    for (unsigned set = 0; set < num_sets_; ++set) {
        const std::uint64_t *block = setBlock(set);
        for (unsigned i = 0; i < assoc_; ++i) {
            if (!(block[i] & kValid))
                continue;
            for (unsigned j = i + 1; j < assoc_; ++j) {
                if ((block[j] & kValid) &&
                    (block[j] & ~kFlags) == (block[i] & ~kFlags))
                    return false;
            }
        }
    }
    return true;
}

} // namespace mem
} // namespace ehpsim
