// Schedule representation: a run-length-encoded sequence of time steps.
#pragma once

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace sharedres::core {

/// One job's per-step resource share within a block of identical steps.
struct Assignment {
  JobId job = kNoJob;
  Res share = 0;  ///< resource units granted per step; 0 < share ≤ min(r_j, C)

  friend bool operator==(const Assignment&, const Assignment&) = default;
};

/// `length` consecutive time steps in which exactly the jobs in `assignments`
/// run, each with the same per-step share. Fast-forwarded engines emit long
/// blocks; stepwise engines emit length-1 blocks. The owning form, for code
/// that builds and edits block lists (tests, fuzzers); a Schedule stores its
/// blocks flat and hands out BlockViews.
struct Block {
  Time length = 0;
  std::vector<Assignment> assignments;

  friend bool operator==(const Block&, const Block&) = default;
};

/// One block of a Schedule, read in place: `assignments` points into the
/// schedule's storage and stays valid until the schedule next changes. There
/// is deliberately no conversion to Block; Schedule::copy_blocks() copies.
struct BlockView {
  Time length = 0;
  std::span<const Assignment> assignments;
};

/// A complete schedule. Processor identity is implicit: the model's machines
/// are identical and a non-preemptive job occupies one machine over one
/// contiguous step interval, so a schedule is feasible w.r.t. machines iff no
/// step runs more than m jobs (checked by ScheduleValidator).
///
/// Storage is two flat arrays: every block's assignments back to back, and
/// one head per block holding its end step and the end of its assignments.
/// The makespan is the last head's end step. Appending copies into the
/// tails, and reset() and rollback() only truncate, so a reused Schedule
/// fills without allocating once its arrays have grown, and a copy costs
/// two allocations whatever the block count.
class Schedule {
  struct Head {
    Time end_step = 0;           ///< last step of the block (1-based)
    std::size_t end_offset = 0;  ///< one past its last assignment

    friend bool operator==(const Head&, const Head&) = default;
  };

 public:
  /// The blocks in order: a random-access view over the schedule's storage,
  /// valid until the schedule next changes.
  class BlockRange {
   public:
    /// Walks the heads keeping the previous block's ends, so stepping
    /// through the blocks costs no branch per block.
    class iterator {
     public:
      using value_type = BlockView;
      using difference_type = std::ptrdiff_t;

      iterator() = default;
      BlockView operator*() const {
        return {head_->end_step - prev_step_,
                {data_ + prev_offset_, data_ + head_->end_offset}};
      }
      iterator& operator++() {
        prev_step_ = head_->end_step;
        prev_offset_ = head_->end_offset;
        ++head_;
        return *this;
      }
      iterator operator++(int) {
        iterator before = *this;
        ++*this;
        return before;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.head_ == b.head_;
      }

     private:
      friend class BlockRange;
      iterator(const Head* head, const Assignment* data)
          : head_(head), data_(data) {}

      const Head* head_ = nullptr;
      const Assignment* data_ = nullptr;
      Time prev_step_ = 0;
      std::size_t prev_offset_ = 0;
    };

    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] BlockView operator[](std::size_t i) const {
      const Time begin_step = i == 0 ? 0 : heads_[i - 1].end_step;
      const std::size_t begin = i == 0 ? 0 : heads_[i - 1].end_offset;
      return {heads_[i].end_step - begin_step,
              {data_ + begin, data_ + heads_[i].end_offset}};
    }
    [[nodiscard]] BlockView back() const { return (*this)[size_ - 1]; }
    [[nodiscard]] iterator begin() const { return {heads_, data_}; }
    [[nodiscard]] iterator end() const { return {heads_ + size_, data_}; }

   private:
    friend class Schedule;
    BlockRange(const Head* heads, std::size_t size, const Assignment* data)
        : heads_(heads), size_(size), data_(data) {}

    const Head* heads_;
    std::size_t size_;
    const Assignment* data_;
  };

  Schedule() = default;

  /// Append a block; merges with the previous block when identical. The
  /// assignments are copied, so an engine passes its scratch share vector
  /// and keeps it. They must not point into this schedule's own storage.
  void append(Time length, std::span<const Assignment> assignments);
  void append(Time length, std::initializer_list<Assignment> assignments) {
    append(length, std::span<const Assignment>(assignments.begin(),
                                               assignments.size()));
  }

  /// Pre-size the block heads (engines pass a lower-bound block count so
  /// the run loop appends without intermediate regrowth).
  void reserve_blocks(std::size_t blocks) { heads_.reserve(blocks); }

  /// Discard all blocks and zero the makespan, keeping both arrays'
  /// capacity. The reuse API for batch runs: a reset Schedule re-fills
  /// without allocating until it outgrows the largest schedule it held.
  void reset() {
    heads_.clear();
    assignments_.clear();
  }

  /// Snapshot for exception-safe incremental building. Engines take a Mark
  /// on entry to run() and roll back to it if a step throws, so a schedule
  /// never exposes a partially-emitted suffix (strong exception guarantee).
  struct Mark {
    std::size_t blocks = 0;
    std::size_t assignments = 0;
    Time last_end = 0;  ///< pre-mark end step of the last block (merge undo)
  };
  [[nodiscard]] Mark mark() const {
    return {heads_.size(), assignments_.size(), makespan()};
  }
  /// Discard every block appended after `m` — including length that merging
  /// appends added to the last pre-mark block.
  void rollback(const Mark& m);

  [[nodiscard]] Time makespan() const {
    return heads_.empty() ? 0 : heads_.back().end_step;
  }
  [[nodiscard]] BlockRange blocks() const {
    return {heads_.data(), heads_.size(), assignments_.data()};
  }
  [[nodiscard]] bool empty() const { return heads_.empty(); }
  /// Bytes the blocks occupy in the two arrays (sizes, not capacities).
  [[nodiscard]] std::size_t storage_bytes() const {
    return heads_.size() * sizeof(Head) +
           assignments_.size() * sizeof(Assignment);
  }

  /// The blocks as owning Blocks, for code that edits a block list.
  [[nodiscard]] std::vector<Block> copy_blocks() const;

  /// Invoke fn(first_step, block) for each block; first_step is 1-based.
  void for_each_block(const std::function<void(Time, BlockView)>& fn) const;

  /// Invoke fn(t, assignments) for every individual step t = 1..makespan.
  /// Expands blocks — use only for small schedules (tests, examples).
  void for_each_step(
      const std::function<void(Time, std::span<const Assignment>)>& fn) const;

  /// Total resource units handed to each job over the whole schedule,
  /// indexed by JobId; jobs never scheduled get 0.
  [[nodiscard]] std::vector<Res> credited(std::size_t num_jobs) const;

  friend bool operator==(const Schedule&, const Schedule&) = default;

 private:
  std::vector<Head> heads_;
  std::vector<Assignment> assignments_;
};

}  // namespace sharedres::core
