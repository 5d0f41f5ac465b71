"""The prefix tree (trie) that accelerates enumeration node checking.

The maximality check at every enumeration node asks: *does any traversed
vertex cover the whole new left side?* — formally, given a query set ``T``
(the new left side) and a family ``S₁..Sₖ`` (local neighbourhoods of
traversed vertices), is some ``Sᵢ ⊇ T``?  The baselines answer with a
linear scan over the family.  The prefix-tree approach stores every ``Sᵢ``
as a root-to-terminal path over its sorted bit positions, so that

* neighbourhoods sharing prefixes share trie nodes (vertices in the same
  region of the graph have highly overlapping neighbourhoods, which is what
  makes the trie compact in practice), and
* a superset query is a pruned descent: an edge labelled past the next
  required bit can be abandoned immediately, and whole subtrees are skipped
  via two per-node aggregates — the OR of all suffixes stored below and the
  maximum suffix popcount below.

Removal is reference-counted (the enumeration inserts on traversal and
removes on backtrack, so the trie always holds exactly the traversed set of
the current path).  The aggregates are maintained exactly on insert and
allowed to go *stale-large* on removal, which keeps them sound for pruning:
a stale aggregate can only make the descent explore more, never miss a
stored superset.

``max_nodes`` bounds the trie's size; inserts that would exceed the budget
are rejected (``insert`` returns False) and the caller keeps the set in an
overflow list — this is the mechanism behind the space-optimized MBETM.
"""

from __future__ import annotations


class _Node:
    """One trie node; the edge label (bit position) lives in the parent's dict."""

    __slots__ = ("children", "terminal", "n_below", "union_below", "max_count_below")

    def __init__(self) -> None:
        self.children: dict[int, _Node] = {}
        self.terminal = 0  # stored sets ending exactly here (multiplicity)
        self.n_below = 0  # stored sets passing through or ending here
        self.union_below = 0  # OR of stored suffixes below (incl. edge bits)
        self.max_count_below = 0  # max popcount of stored suffixes below


class PrefixTree:
    """Multiset of bitmasks supporting pruned superset queries.

    Masks are arbitrary non-negative Python ints; bit ``i`` set means
    element ``i`` is in the set.  The same mask may be inserted repeatedly
    (multiplicity is tracked), matching how several traversed vertices can
    share one local neighbourhood.
    """

    def __init__(self, max_nodes: int | None = None):
        if max_nodes is not None and max_nodes < 1:
            raise ValueError("max_nodes must be positive when given")
        self._root = _Node()
        self._n_nodes = 1
        self._n_sets = 0
        self.max_nodes = max_nodes
        # instrumentation read by the experiments
        self.queries = 0
        self.node_visits = 0
        self.scan_equivalent = 0
        self.rejected_inserts = 0
        self.peak_nodes = 1

    # -- size ---------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Current number of trie nodes (including the root)."""
        return self._n_nodes

    def __len__(self) -> int:
        return self._n_sets

    # -- mutation -------------------------------------------------------------

    @staticmethod
    def _positions(mask: int) -> list[int]:
        if mask < 0:
            raise ValueError("masks must be non-negative")
        out: list[int] = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def insert(self, mask: int) -> bool:
        """Store ``mask``; return False when the node budget would overflow.

        The budget check is conservative (assumes a fully fresh path); a
        rejected insert changes nothing and bumps ``rejected_inserts``.
        """
        positions = self._positions(mask)
        if (
            self.max_nodes is not None
            and self._n_nodes + len(positions) > self.max_nodes
        ):
            self.rejected_inserts += 1
            return False
        node = self._root
        rem = mask
        node.n_below += 1
        node.union_below |= rem
        count = rem.bit_count()
        if count > node.max_count_below:
            node.max_count_below = count
        for pos in positions:
            child = node.children.get(pos)
            if child is None:
                child = _Node()
                node.children[pos] = child
                self._n_nodes += 1
            child.n_below += 1
            child.union_below |= rem
            count = rem.bit_count()
            if count > child.max_count_below:
                child.max_count_below = count
            rem ^= 1 << pos
            node = child
        node.terminal += 1
        self._n_sets += 1
        if self._n_nodes > self.peak_nodes:
            self.peak_nodes = self._n_nodes
        return True

    def remove(self, mask: int) -> None:
        """Remove one occurrence of ``mask`` (KeyError if absent)."""
        path: list[tuple[_Node, int, _Node]] = []
        node = self._root
        for pos in self._positions(mask):
            child = node.children.get(pos)
            if child is None:
                raise KeyError(f"mask {mask:#x} is not stored")
            path.append((node, pos, child))
            node = child
        if node.terminal == 0:
            raise KeyError(f"mask {mask:#x} is not stored")
        node.terminal -= 1
        self._root.n_below -= 1
        for parent, pos, child in reversed(path):
            child.n_below -= 1
            if child.n_below == 0:
                # A node reaching zero has no live descendants (they would
                # have reached zero in earlier removals), so exactly one
                # node is freed here.
                del parent.children[pos]
                self._n_nodes -= 1
        self._n_sets -= 1

    # -- queries ----------------------------------------------------------------

    def has_superset(self, query: int) -> bool:
        """Return True when some stored set contains every bit of ``query``."""
        if query < 0:
            raise ValueError("query mask must be non-negative")
        self.queries += 1
        self.scan_equivalent += self._n_sets
        visits = 0
        stack: list[tuple[_Node, int]] = [(self._root, query)]
        found = False
        while stack:
            node, need = stack.pop()
            visits += 1
            if need == 0:
                if node.n_below > 0:  # root can be empty; children are live
                    found = True
                    break
                continue
            if node.union_below & need != need:
                continue  # some required bit never occurs below
            if node.max_count_below < need.bit_count():
                continue  # no stored suffix is large enough
            low = need & -need
            low_pos = low.bit_length() - 1
            children = node.children
            # Extra-element edges first (pushed first = explored last):
            # positions strictly below the next required bit keep `need`.
            for pos, child in children.items():
                if pos < low_pos:
                    stack.append((child, need))
            # Matching edge: consume the required bit; explored first.
            child = children.get(low_pos)
            if child is not None:
                stack.append((child, need ^ low))
        self.node_visits += visits
        return found

    def contains(self, mask: int) -> bool:
        """Exact-membership test (used by tests, not by the algorithms)."""
        node = self._root
        for pos in self._positions(mask):
            child = node.children.get(pos)
            if child is None:
                return False
            node = child
        return node.terminal > 0

    def clear(self) -> None:
        """Drop all stored sets (instrumentation counters are kept)."""
        self._root = _Node()
        self._n_nodes = 1
        self._n_sets = 0
