"""AT — insert/delete in 16 AVL trees (Table 2).

Nodes are 64 B: ``key`` +0, ``left`` +8, ``right`` +16, ``height`` +24.
Search paths are recorded as dependent (pointer-chasing) loads; every
node touched by the operation — including rotation pivots — is recorded
as write traffic, and the *entire* visited path is declared as software
log candidates.  The paper highlights that self-balancing trees force
conservative software logging (it cannot know at transaction start which
nodes a rebalance will modify), which is exactly what the candidate set
models.
"""

from __future__ import annotations

from typing import List, Optional

from repro.workloads.base import NODE_SIZE, KeyedWorkload

KEY_OFF = 0
LEFT_OFF = 8
RIGHT_OFF = 16
HEIGHT_OFF = 24


class _Node:
    """In-memory mirror of one AVL node."""

    __slots__ = ("addr", "key", "left", "right", "height")

    def __init__(self, addr: int, key: int) -> None:
        self.addr = addr
        self.key = key
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None
        self.height = 1


def _height(node: Optional[_Node]) -> int:
    return node.height if node else 0


def _balance(node: Optional[_Node]) -> int:
    return _height(node.left) - _height(node.right) if node else 0


class AvlTreeWorkload(KeyedWorkload):
    """16 AVL trees, randomized insert/delete of random keys."""

    name = "AT"
    default_init_ops = 100000
    default_sim_ops = 150
    think_instructions = 2500

    def build(self) -> None:
        self.roots: List[Optional[_Node]] = [None] * self.STRUCTURES

    def insert(self, index: int, key: int) -> None:
        self.roots[index] = self._insert(self.roots[index], key)

    def delete(self, index: int, key: int) -> None:
        self.roots[index] = self._delete(self.roots[index], key)

    def sync(self) -> None:
        for root in self.roots:
            self._sync_subtree(root)

    def _sync_subtree(self, node: Optional[_Node]) -> None:
        if node is None:
            return
        self._poke_node(node)
        self._sync_subtree(node.left)
        self._sync_subtree(node.right)

    def _poke_node(self, node: _Node) -> None:
        self.poke(node.addr + KEY_OFF, node.key)
        self.poke(node.addr + LEFT_OFF, node.left.addr if node.left else 0)
        self.poke(node.addr + RIGHT_OFF, node.right.addr if node.right else 0)
        self.poke(node.addr + HEIGHT_OFF, node.height)

    # -- recording wrappers ----------------------------------------------------------

    def _visit(self, node: _Node, chained: bool = True) -> None:
        """Record reading a node during a search/rebalance walk.

        A conservative software undo logger must also treat the node's
        children as loggable: a rebalance rooted here rewrites the
        rotation pivot and subtree roots, which cannot be predicted at
        transaction start (the paper's motivation for hardware logging
        on self-balancing trees).
        """
        if self._recording is None:
            return
        self._visited.add(node.addr)
        if node.left is not None:
            self._candidate_extra.add(node.left.addr)
        if node.right is not None:
            self._candidate_extra.add(node.right.addr)
        self.rec_read(node.addr + KEY_OFF, chained=chained)
        self.rec_compute(1)  # key comparison

    def _touch(self, node: _Node) -> None:
        """Record rewriting a node's link/height fields."""
        if self._recording is None:
            self._poke_node(node)
            return
        self._visited.add(node.addr)
        self.rec_write(node.addr + LEFT_OFF, node.left.addr if node.left else 0)
        self.rec_write(node.addr + RIGHT_OFF, node.right.addr if node.right else 0)
        self.rec_write(node.addr + HEIGHT_OFF, node.height)

    def _emit_new_node(self, node: _Node) -> None:
        if self._recording is None:
            self._poke_node(node)
            return
        self._visited.add(node.addr)
        self.rec_write(node.addr + KEY_OFF, node.key)
        self.rec_write(node.addr + LEFT_OFF, 0)
        self.rec_write(node.addr + RIGHT_OFF, 0)
        self.rec_write(node.addr + HEIGHT_OFF, 1)

    # -- AVL mechanics --------------------------------------------------------------------

    def _update(self, node: _Node) -> None:
        node.height = 1 + max(_height(node.left), _height(node.right))

    def _rotate_right(self, y: _Node) -> _Node:
        x = y.left
        t = x.right
        x.right = y
        y.left = t
        self._update(y)
        self._update(x)
        self._touch(y)
        self._touch(x)
        return x

    def _rotate_left(self, x: _Node) -> _Node:
        y = x.right
        t = y.left
        y.left = x
        x.right = t
        self._update(x)
        self._update(y)
        self._touch(x)
        self._touch(y)
        return y

    def _rebalance(self, node: _Node) -> _Node:
        self._update(node)
        balance = _balance(node)
        if balance > 1:
            if _balance(node.left) < 0:
                node.left = self._rotate_left(node.left)
                self._touch(node)
            return self._rotate_right(node)
        if balance < -1:
            if _balance(node.right) > 0:
                node.right = self._rotate_right(node.right)
                self._touch(node)
            return self._rotate_left(node)
        self._touch(node)
        return node

    def _insert(self, node: Optional[_Node], key: int) -> _Node:
        if node is None:
            fresh = _Node(self.heap.alloc(NODE_SIZE), key)
            self._emit_new_node(fresh)
            return fresh
        self._visit(node)
        if key < node.key:
            node.left = self._insert(node.left, key)
        elif key > node.key:
            node.right = self._insert(node.right, key)
        else:
            return node  # duplicate: no structural change
        return self._rebalance(node)

    def _min_node(self, node: _Node) -> _Node:
        while node.left is not None:
            self._visit(node.left)
            node = node.left
        return node

    def _delete(self, node: Optional[_Node], key: int) -> Optional[_Node]:
        if node is None:
            return None
        self._visit(node)
        if key < node.key:
            node.left = self._delete(node.left, key)
        elif key > node.key:
            node.right = self._delete(node.right, key)
        else:
            if node.left is None or node.right is None:
                child = node.left if node.left is not None else node.right
                self.heap.free(node.addr, NODE_SIZE)
                return child
            successor = self._min_node(node.right)
            node.key = successor.key
            if self._recording is not None:
                self._visited.add(node.addr)
                self.rec_write(node.addr + KEY_OFF, node.key)
            node.right = self._delete(node.right, successor.key)
        return self._rebalance(node)

    # -- validation -----------------------------------------------------------------------------

    def _check_subtree(self, node: Optional[_Node], lo: int, hi: int) -> int:
        if node is None:
            return 0
        if not (lo < node.key < hi):
            raise AssertionError("BST ordering violated")
        left = self._check_subtree(node.left, lo, node.key)
        right = self._check_subtree(node.right, node.key, hi)
        if abs(left - right) > 1:
            raise AssertionError("AVL balance violated")
        height = 1 + max(left, right)
        if node.height != height:
            raise AssertionError("stale height field")
        if self.golden.get(node.addr + KEY_OFF) != node.key:
            raise AssertionError("golden key mismatch")
        expected_left = node.left.addr if node.left else 0
        if self.golden.get(node.addr + LEFT_OFF, 0) != expected_left:
            raise AssertionError("golden left pointer mismatch")
        return height

    def check_invariants(self) -> None:
        for root in self.roots:
            self._check_subtree(root, -1, self.KEY_SPACE + 1)
