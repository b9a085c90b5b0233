// ExecutedLog — a replica's executed history, every entry kept, stored
// compactly.
//
// The history is the one per-op structure a replica keeps (DESIGN.md §16):
// correctness gates read it from slot 1. As plain ExecutedEntry values it
// costs 56 B per op, plus a vector's doubling slack. Here each entry is
// appended to 4 KiB chunks as its slot and client_seq, each as the
// zigzag-varint difference from the previous entry's, its client as a
// varint, and the 32-byte op digest: about 36 B per op when slots and
// seqs advance in small steps, and never more than 57 B. Decoding adds
// the differences back modulo 2^64, so every entry reads back exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "smr/client_messages.hpp"

namespace qsel::smr {

class ExecutedLog {
 public:
  /// Decodes entries in append order. operator* refers to a copy held by
  /// the iterator, valid until it is incremented.
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = ExecutedEntry;
    using difference_type = std::ptrdiff_t;
    using pointer = const ExecutedEntry*;
    using reference = const ExecutedEntry&;

    Iterator() = default;

    reference operator*() const { return entry_; }
    pointer operator->() const { return &entry_; }
    Iterator& operator++();
    bool operator==(const Iterator& other) const {
      return chunk_ == other.chunk_ && pos_ == other.pos_;
    }

   private:
    friend class ExecutedLog;
    Iterator(const ExecutedLog* log, std::size_t chunk);
    void decode();

    const ExecutedLog* log_ = nullptr;
    std::size_t chunk_ = 0;
    std::size_t pos_ = 0;   // offset of the current entry in its chunk
    std::size_t next_ = 0;  // offset just past it
    ExecutedEntry entry_{};
  };

  void push_back(const ExecutedEntry& entry);
  void clear();

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Requires !empty().
  ExecutedEntry front() const { return *begin(); }
  ExecutedEntry back() const { return last_; }
  /// Encoded bytes held, chunk slack included.
  std::size_t bytes() const;

  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, chunks_.size()); }

 private:
  std::vector<std::vector<std::uint8_t>> chunks_;
  std::size_t size_ = 0;
  ExecutedEntry last_{};  // the encoding base of the next entry
};

}  // namespace qsel::smr
