// Deterministic event queue for the asynchronous round engine.
//
// The ADMM round engine (core/admm_engine) is event-driven: device uploads
// "arrive" at deterministic virtual completion times on the simulated
// clock, and the server cuts a round when a quorum of them is in. For the
// bitwise-determinism contract (DESIGN.md §8) to survive, the order in
// which those events are observed must be a pure function of their
// contents — never of insertion order, heap layout, or thread timing.
//
// Events are therefore totally ordered by the lexicographic key
//
//     (sim_time, round, device_id, event_kind)
//
// with kUpload < kDeadline so that an upload landing exactly on a deadline
// tick still counts as on time. Because the order is total (no two distinct
// events compare equal: a device emits at most one upload and one deadline
// marker per round), the pop sequence is independent of the order events
// were pushed in, which is what makes the queue safe to fill from values
// computed by a worker pool and drain on the aggregation thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

namespace plos::net {

/// What an event queue entry announces.
enum class EventKind : std::uint32_t {
  kUpload = 0,    ///< a device upload completed at `time`
  kDeadline = 1,  ///< the server stops waiting for this device at `time`
};

/// One scheduled occurrence on the simulated clock.
struct Event {
  double time = 0.0;          ///< virtual seconds since round start
  std::uint64_t round = 0;    ///< ADMM round the event belongs to
  std::uint64_t device = 0;   ///< originating device id
  EventKind kind = EventKind::kUpload;
};

/// Strict lexicographic (time, round, device, kind) order; a total order
/// over the events of one round because (device, kind) pairs are unique.
bool event_before(const Event& a, const Event& b);

/// Min-queue over Event under event_before. Push in any order; pop always
/// yields the globally smallest remaining event.
class EventQueue {
 public:
  /// Inserts an event. Time must be finite and non-negative (enforced):
  /// a NaN would silently poison the total order.
  void push(const Event& event);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Smallest remaining event; queue must be non-empty.
  const Event& top() const;

  /// Removes and returns the smallest remaining event; must be non-empty.
  Event pop();

 private:
  struct After {
    bool operator()(const Event& a, const Event& b) const {
      // std::priority_queue is a max-heap; invert to pop the minimum.
      return event_before(b, a);
    }
  };
  std::priority_queue<Event, std::vector<Event>, After> heap_;
};

}  // namespace plos::net
