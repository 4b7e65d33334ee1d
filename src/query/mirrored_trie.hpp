// MirroredTrie: the key-mirrored view that answers successor through the
// paper's *predecessor* machinery — retained as a differential-test
// oracle for the core trie's native symmetric successor.
//
// This adapter stores every key x as its mirror image  m(x) = u-1-x
// inside an ordinary LockFreeBinaryTrie. Key order reverses under m, so
//
//   successor(y)  =  smallest x in S with x > y
//                 =  m( inner.predecessor(u-1-y) ),
//
// i.e. one inner predecessor call answers successor exactly, and the
// query inherits the inner operation's linearization point *unchanged*:
// a history of MirroredTrie operations is precisely the inner trie's
// history with every key relabelled by the bijection m, so the Section 5
// linearizability proof applies verbatim.
//
// Role today. The core trie answers successor natively (the SU-ALL /
// directional-notification machinery of core/lockfree_trie.hpp), so no
// production structure routes successor through this view any more —
// ShardedTrie's shards are single tries. What makes MirroredTrie worth keeping is exactly what
// made it correct: its successor goes through a *different* code path
// (the predecessor helper on reflected keys) with the proof inherited by
// bijection rather than by the mirrored machinery. That makes it an
// independent oracle: tests/test_successor.cpp Wing–Gong-checks it
// directly and cross-checks the native successor against it under
// churn — two implementations of the same linearizable specification
// that share no direction-specific code.
#pragma once

#include <cassert>
#include <cstddef>

#include "core/lockfree_trie.hpp"

namespace lfbt {

class MirroredTrie {
 public:
  explicit MirroredTrie(Key universe) : u_(universe), inner_(universe) {}

  Key universe() const noexcept { return u_; }

  /// O(1), linearizable (inner Search on the mirrored key).
  bool contains(Key x) {
    assert(x >= 0 && x < u_);
    return inner_.contains(mirror(x));
  }

  /// Linearized at the inner Insert's status flip.
  void insert(Key x) {
    assert(x >= 0 && x < u_);
    inner_.insert(mirror(x));
  }

  /// Linearized at the inner Delete's status flip.
  void erase(Key x) {
    assert(x >= 0 && x < u_);
    inner_.erase(mirror(x));
  }

  /// Smallest key > y in S, or kNoKey; y in [-1, universe()). Linearizes
  /// at the linearization point of the single inner Predecessor call.
  Key successor(Key y) {
    assert(y >= -1 && y < u_);
    if (y >= u_ - 1) return kNoKey;
    const Key r = inner_.predecessor(u_ - 1 - y);
    return r == kNoKey ? kNoKey : mirror(r);
  }

  /// Conservative counter semantics identical to LockFreeBinaryTrie::
  /// size(): never an undercount, exact at quiescence.
  std::size_t size() const noexcept { return inner_.size(); }
  bool empty() const noexcept { return inner_.empty(); }

  std::size_t memory_reserved() const noexcept {
    return inner_.memory_reserved();
  }

 private:
  Key mirror(Key x) const noexcept { return u_ - 1 - x; }

  const Key u_;
  LockFreeBinaryTrie inner_;
};

}  // namespace lfbt
