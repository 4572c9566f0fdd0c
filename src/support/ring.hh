/**
 * @file
 * Bounded ring buffer shared by the observability recorders.
 *
 * The event stream's two views keep fixed-capacity buffers so an
 * instrumented run can never grow without bound; they differ only in
 * which end overflow sacrifices. The Chrome capture keeps the *oldest*
 * events (drop-newest: the front of a lifecycle trace explains the
 * rest). The black box keeps the *newest* events (drop-oldest: the
 * tail explains an abnormal exit). Provenance timelines, the
 * divergence sentinel's log and the machine's visit log reuse the same
 * type. Every drop is counted so consumers can tell a complete
 * recording from a truncated one.
 */

#ifndef EL_SUPPORT_RING_HH
#define EL_SUPPORT_RING_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>

namespace el
{

/** What a full ring does with the next push. */
enum class RingPolicy
{
    DropOldest, //!< Evict the front to admit the new element.
    DropNewest, //!< Refuse the new element; keep what is stored.
};

/** Fixed-capacity FIFO with an explicit overflow policy + drop count. */
template <typename T>
class BoundedRing
{
  public:
    explicit BoundedRing(size_t capacity,
                         RingPolicy policy = RingPolicy::DropOldest)
        : capacity_(capacity ? capacity : 1), policy_(policy)
    {}

    /** True when the element was stored (DropNewest refuses on full). */
    bool
    push(T value)
    {
        if (items_.size() >= capacity_) {
            ++dropped_;
            if (policy_ == RingPolicy::DropNewest)
                return false;
            items_.pop_front();
        }
        items_.push_back(std::move(value));
        return true;
    }

    size_t size() const { return items_.size(); }
    bool empty() const { return items_.empty(); }
    size_t capacity() const { return capacity_; }
    RingPolicy policy() const { return policy_; }

    /** Elements sacrificed to the capacity bound so far. */
    uint64_t dropped() const { return dropped_; }

    /** Drop the contents (the drop counter is preserved). */
    void clear() { items_.clear(); }

    const T &operator[](size_t i) const { return items_[i]; }
    T &operator[](size_t i) { return items_[i]; }
    const T &front() const { return items_.front(); }
    const T &back() const { return items_.back(); }

    auto begin() const { return items_.begin(); }
    auto end() const { return items_.end(); }
    auto begin() { return items_.begin(); }
    auto end() { return items_.end(); }

  private:
    size_t capacity_;
    RingPolicy policy_;
    std::deque<T> items_;
    uint64_t dropped_ = 0;
};

} // namespace el

#endif // EL_SUPPORT_RING_HH
