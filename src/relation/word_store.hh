/**
 * @file
 * Small-buffer word storage for the dense bit-matrix relation layer.
 *
 * Relations and event sets at litmus scale hold a handful of 64-bit
 * words, yet the relational-algebra operators create and destroy them by
 * the millions (every temporary in `a | b`, every closure snapshot in
 * the incremental enumeration core). Backing them with std::vector makes
 * each temporary a malloc/free round trip that costs more than the bit
 * arithmetic it carries. WordStore keeps up to kInlineWords words inline
 * (no allocation, copies are flat memcpys) and falls back to the heap
 * only for universes too large for the inline buffer.
 */

#ifndef MIXEDPROXY_RELATION_WORD_STORE_HH
#define MIXEDPROXY_RELATION_WORD_STORE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mixedproxy::relation::kernel {

/**
 * A fixed-size, zero-initialized span of 64-bit words with a small-buffer
 * optimization. The size is set at construction and never changes —
 * exactly the lifecycle of a Relation's or EventSet's backing store.
 */
class WordStore
{
  public:
    /** Spans of at most this many words live inline. */
    static constexpr std::size_t kInlineWords = 32;

    WordStore() = default;

    explicit WordStore(std::size_t count) : count_(count)
    {
        if (count_ > kInlineWords)
            heap_.assign(count_, 0);
        else
            std::fill_n(inline_, count_, 0);
    }

    // Copies carry only the live words: a litmus-scale relation uses a
    // dozen of the 32 inline words, and relations are copied and
    // zeroed by the million.
    WordStore(const WordStore &other)
        : count_(other.count_), heap_(other.heap_)
    {
        copyInline(other);
    }

    WordStore(WordStore &&other) noexcept
        : count_(other.count_), heap_(std::move(other.heap_))
    {
        copyInline(other);
    }

    WordStore &
    operator=(const WordStore &other)
    {
        if (this != &other) {
            count_ = other.count_;
            heap_ = other.heap_;
            copyInline(other);
        }
        return *this;
    }

    WordStore &
    operator=(WordStore &&other) noexcept
    {
        if (this != &other) {
            count_ = other.count_;
            heap_ = std::move(other.heap_);
            copyInline(other);
        }
        return *this;
    }

    std::size_t size() const { return count_; }

    std::uint64_t *
    data()
    {
        return count_ <= kInlineWords ? inline_ : heap_.data();
    }

    const std::uint64_t *
    data() const
    {
        return count_ <= kInlineWords ? inline_ : heap_.data();
    }

    std::uint64_t &operator[](std::size_t i) { return data()[i]; }
    std::uint64_t operator[](std::size_t i) const { return data()[i]; }

    bool
    operator==(const WordStore &other) const
    {
        return count_ == other.count_ &&
               std::equal(data(), data() + count_, other.data());
    }
    bool operator!=(const WordStore &other) const = default;

  private:
    void
    copyInline(const WordStore &other)
    {
        if (count_ <= kInlineWords)
            std::copy_n(other.inline_, count_, inline_);
    }

    std::size_t count_ = 0;
    /** Words past count_ are never read, so they stay uninitialized. */
    std::uint64_t inline_[kInlineWords];
    std::vector<std::uint64_t> heap_;
};

} // namespace mixedproxy::relation::kernel

#endif // MIXEDPROXY_RELATION_WORD_STORE_HH
