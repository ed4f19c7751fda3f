/**
 * @file
 * A generic set-associative tag array with true-LRU replacement.
 *
 * CacheArray is purely structural (tags + per-line metadata); timing
 * and statistics live in the wrapping cache models. It underpins the
 * GPU L1/L2, CPU L1/L2/L3, and the memory-side Infinity Cache.
 */

#ifndef EHPSIM_MEM_CACHE_ARRAY_HH
#define EHPSIM_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace ehpsim
{

class SnapshotWriter;
class SnapshotReader;

namespace mem
{

/** A line's contents as handed out for a victim or a flushed line. */
struct CacheLine
{
    Addr tag = 0;               ///< line-aligned address
    bool dirty = false;
    bool prefetched = false;    ///< filled by a prefetcher

    bool operator==(const CacheLine &) const = default;
};

/**
 * Storage: one flat word vector of set blocks. Set s occupies
 * 2 * assoc words starting at 2 * assoc * s: assoc tag words, then
 * the same ways' assoc LRU stamps, so one access touches one
 * contiguous block. A tag word is the line-aligned address with the
 * valid/dirty/prefetched flags in its low three bits (line alignment
 * leaves them zero; lines are at least 8 B). That is 16 B per line.
 */
class CacheArray
{
  public:
    /**
     * @param size_bytes Total capacity.
     * @param assoc Ways per set.
     * @param line_bytes Cache line size.
     */
    CacheArray(std::uint64_t size_bytes, unsigned assoc,
               unsigned line_bytes);

    std::uint64_t sizeBytes() const { return size_bytes_; }

    unsigned assoc() const { return assoc_; }

    unsigned lineBytes() const { return line_bytes_; }

    unsigned numSets() const { return num_sets_; }

    /** Line-aligned base address of @p addr. */
    Addr lineAlign(Addr addr) const { return addr & ~line_mask_; }

    /** Set index of @p addr. */
    unsigned
    setIndex(Addr addr) const
    {
        return static_cast<unsigned>(addr >> line_shift_) & set_mask_;
    }

    /**
     * Look up @p addr; on hit returns the way and updates recency.
     */
    std::optional<unsigned> lookup(Addr addr);

    /** Look up without updating replacement state. */
    std::optional<unsigned> peek(Addr addr) const;

    /** Mark the line at @p way of @p addr's set dirty. */
    void setDirty(Addr addr, unsigned way);

    /** Clear the prefetched flag of the line at @p way of @p addr's
     *  set; @return whether it was set. */
    bool takePrefetched(Addr addr, unsigned way);

    /**
     * Insert @p addr, evicting if needed. A hit merges the flags
     * (dirty sticks, prefetched only while every fill was one) and
     * updates recency like lookup().
     * @return the victim line's previous contents when a valid dirty
     *         or clean line was displaced (for writeback decisions).
     */
    std::optional<CacheLine> insert(Addr addr, bool dirty,
                                    bool prefetched = false);

    /** Outcome of lookupOrFill() and fillAbsent(). */
    struct Fill
    {
        std::optional<unsigned> hit;     ///< way already holding addr
        std::optional<CacheLine> victim; ///< as for insert()
    };

    /**
     * A demand access in one set scan: lookup() on a hit, and on a
     * miss insert(addr, dirty) — the fill a miss makes after
     * fetching the line below, done before the fetch, which never
     * reads this array.
     */
    Fill lookupOrFill(Addr addr, bool dirty);

    /**
     * Insert @p addr only if it is absent; a present line is left
     * untouched (no recency update). One set scan either way.
     */
    Fill fillAbsent(Addr addr, bool dirty, bool prefetched);

    /** Invalidate @p addr if present; @return the old line. */
    std::optional<CacheLine> invalidate(Addr addr);

    /** Invalidate everything, returning dirty lines. */
    std::vector<CacheLine> flushAll();

    /** Number of currently valid lines. */
    std::uint64_t numValid() const;

    /** True if no set holds two valid lines with the same tag. */
    bool tagsUnique() const;

    /**
     * @{ Checkpoint the LRU clock and the valid lines (DESIGN.md
     * §16). Sparse: only valid lines are written — a residual stamp
     * on an invalidated line is never observed (every scan gates on
     * valid, a fill rewrites the tag word and stamp), so dropping
     * them is behaviorally identical and keeps an untouched
     * multi-MiB array to a few bytes. Each line record keeps a zero
     * byte where a per-line coherence state once sat. restore()
     * fatals when the saved geometry disagrees with the configured
     * one.
     */
    void snapshot(SnapshotWriter &w) const;
    void restore(SnapshotReader &r);
    /** @} */

  private:
    /** @{ tag-word flag bits */
    static constexpr std::uint64_t kValid = 1;
    static constexpr std::uint64_t kDirty = 2;
    static constexpr std::uint64_t kPrefetched = 4;
    static constexpr std::uint64_t kFlags = kValid | kDirty | kPrefetched;
    /** @} */

    /** Tag words of @p set; its LRU stamps follow at [assoc, 2 assoc). */
    std::uint64_t *
    setBlock(unsigned set)
    {
        return &blocks_[2 * static_cast<std::size_t>(set) * assoc_];
    }

    const std::uint64_t *
    setBlock(unsigned set) const
    {
        return &blocks_[2 * static_cast<std::size_t>(set) * assoc_];
    }

    /** Way holding @p tag in @p block, or assoc_ on a miss. */
    unsigned findWay(const std::uint64_t *block, Addr tag) const;

    /**
     * One pass over @p set for @p tag: @return {way, hit}. On a miss
     * the way is the first invalid one, else the LRU way.
     */
    std::pair<unsigned, bool> scan(unsigned set, Addr tag);

    /** Scan once; a hit is touched if @p touch, a miss is filled. */
    Fill fill(Addr addr, bool touch, bool dirty, bool prefetched);

    /** Fill @p way of @p set with @p tag; @return the displaced line. */
    std::optional<CacheLine> place(unsigned set, unsigned way, Addr tag,
                                   bool dirty, bool prefetched);

    /** Record a hit on @p way: its LRU stamp. */
    void touchHit(unsigned set, unsigned way);

    static std::uint64_t
    pack(Addr tag, bool dirty, bool prefetched)
    {
        return tag | kValid | (dirty ? kDirty : 0) |
               (prefetched ? kPrefetched : 0);
    }

    static CacheLine
    unpack(std::uint64_t word)
    {
        return {word & ~kFlags, (word & kDirty) != 0,
                (word & kPrefetched) != 0};
    }

    std::uint64_t size_bytes_;
    unsigned assoc_;
    unsigned line_bytes_;
    unsigned num_sets_;
    Addr line_mask_;
    unsigned line_shift_;
    unsigned set_mask_;
    std::uint64_t use_counter_ = 0;
    std::vector<std::uint64_t> blocks_;     ///< set blocks, see above
};

} // namespace mem
} // namespace ehpsim

#endif // EHPSIM_MEM_CACHE_ARRAY_HH
