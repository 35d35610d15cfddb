"""BT — insert/delete in 16 B-trees (Table 2).

To honor the paper's 64 B node size, the tree is a B-tree of minimum
degree 2 (a 2-3-4 tree): each node packs a count word, up to 3 keys and
up to 4 child pointers into exactly eight 8 B words.

Layout: ``count`` +0, ``keys`` +8/+16/+24, ``children`` +32/+40/+48/+56.

Insertion uses preemptive splitting on the way down; deletion uses the
standard borrow/merge discipline.  Both record dependent loads for the
descent and write traffic for every node they modify, and declare the
whole visited set as software log candidates (conservative logging, as
the paper requires for self-balancing trees).
"""

from __future__ import annotations

from typing import List, Optional

from repro.workloads.base import NODE_SIZE, KeyedWorkload

COUNT_OFF = 0
KEY_OFF = 8
CHILD_OFF = 32

MIN_DEGREE = 2
MAX_KEYS = 2 * MIN_DEGREE - 1  # 3


class _Node:
    """In-memory mirror of one B-tree node."""

    __slots__ = ("addr", "keys", "children")

    def __init__(self, addr: int) -> None:
        self.addr = addr
        self.keys: List[int] = []
        self.children: List["_Node"] = []

    @property
    def leaf(self) -> bool:
        return not self.children


class BTreeWorkload(KeyedWorkload):
    """16 B-trees (2-3-4), randomized insert/delete."""

    name = "BT"
    default_init_ops = 100000
    default_sim_ops = 150
    think_instructions = 1005

    def build(self) -> None:
        self.roots: List[Optional[_Node]] = [None] * self.STRUCTURES

    def sync(self) -> None:
        for root in self.roots:
            self._sync_subtree(root)

    def _sync_subtree(self, node: Optional[_Node]) -> None:
        if node is None:
            return
        self._poke_node(node)
        for child in node.children:
            self._sync_subtree(child)

    def _poke_node(self, node: _Node) -> None:
        self.poke(node.addr + COUNT_OFF, len(node.keys))
        for i in range(MAX_KEYS):
            value = node.keys[i] if i < len(node.keys) else 0
            self.poke(node.addr + KEY_OFF + 8 * i, value)
        for i in range(MAX_KEYS + 1):
            value = node.children[i].addr if i < len(node.children) else 0
            self.poke(node.addr + CHILD_OFF + 8 * i, value)

    # -- recording wrappers ---------------------------------------------------------

    def _visit(self, node: _Node, chained: bool = True) -> None:
        """Record reading a node during a descent.

        Conservative software logging must also cover the node's
        children: a preemptive split, borrow, or merge below this node
        rewrites children that cannot be predicted at transaction start
        (this is why the paper's B-tree shows the largest software
        logging overhead).
        """
        if self._recording is None:
            return
        self._visited.add(node.addr)
        for child in node.children:
            self._candidate_extra.add(child.addr)
        self.rec_read(node.addr + COUNT_OFF, chained=chained)
        self.rec_compute(2)  # binary search within the node

    def _touch(self, node: _Node) -> None:
        """Record rewriting a whole node (keys shift on insert/delete)."""
        if self._recording is None:
            self._poke_node(node)
            return
        self._visited.add(node.addr)
        self.rec_write(node.addr + COUNT_OFF, len(node.keys))
        for i, key in enumerate(node.keys):
            self.rec_write(node.addr + KEY_OFF + 8 * i, key)
        for i, child in enumerate(node.children):
            self.rec_write(node.addr + CHILD_OFF + 8 * i, child.addr)

    def _new_node(self) -> _Node:
        node = _Node(self.heap.alloc(NODE_SIZE))
        if self._recording is not None:
            self._visited.add(node.addr)
        return node

    # -- insertion -------------------------------------------------------------------------

    def insert(self, index: int, key: int) -> None:
        root = self.roots[index]
        if root is None:
            root = self._new_node()
            root.keys.append(key)
            self._touch(root)
            self.roots[index] = root
            return
        self._visit(root, chained=False)
        if len(root.keys) == MAX_KEYS:
            new_root = self._new_node()
            new_root.children.append(root)
            self._split_child(new_root, 0)
            self.roots[index] = new_root
            root = new_root
        self._insert_nonfull(root, key)

    def _split_child(self, parent: _Node, index: int) -> None:
        full = parent.children[index]
        sibling = self._new_node()
        mid = full.keys[MIN_DEGREE - 1]
        sibling.keys = full.keys[MIN_DEGREE:]
        full.keys = full.keys[: MIN_DEGREE - 1]
        if not full.leaf:
            sibling.children = full.children[MIN_DEGREE:]
            full.children = full.children[:MIN_DEGREE]
        parent.keys.insert(index, mid)
        parent.children.insert(index + 1, sibling)
        self._touch(full)
        self._touch(sibling)
        self._touch(parent)

    def _insert_nonfull(self, node: _Node, key: int) -> None:
        while True:
            if key in node.keys:
                return
            if node.leaf:
                node.keys.append(key)
                node.keys.sort()
                self._touch(node)
                return
            index = sum(1 for existing in node.keys if existing < key)
            child = node.children[index]
            self._visit(child)
            if len(child.keys) == MAX_KEYS:
                self._split_child(node, index)
                if key == node.keys[index]:
                    return
                if key > node.keys[index]:
                    index += 1
                child = node.children[index]
            node = child

    # -- deletion --------------------------------------------------------------------------

    def delete(self, index: int, key: int) -> None:
        root = self.roots[index]
        if root is None:
            return
        self._visit(root, chained=False)
        self._delete_from(root, key)
        if not root.keys:
            if root.leaf:
                self.roots[index] = None
            else:
                self.roots[index] = root.children[0]
            self.heap.free(root.addr, NODE_SIZE)

    def _delete_from(self, node: _Node, key: int) -> None:
        if key in node.keys:
            index = node.keys.index(key)
            if node.leaf:
                node.keys.pop(index)
                self._touch(node)
                return
            self._delete_internal(node, index)
            return
        if node.leaf:
            return  # key absent
        index = sum(1 for existing in node.keys if existing < key)
        child = self._ensure_min(node, index)
        self._visit(child)
        self._delete_from(child, key)

    def _delete_internal(self, node: _Node, index: int) -> None:
        key = node.keys[index]
        left, right = node.children[index], node.children[index + 1]
        if len(left.keys) >= MIN_DEGREE:
            predecessor = self._max_key(left)
            node.keys[index] = predecessor
            self._touch(node)
            self._delete_from(left, predecessor)
        elif len(right.keys) >= MIN_DEGREE:
            successor = self._min_key(right)
            node.keys[index] = successor
            self._touch(node)
            self._delete_from(right, successor)
        else:
            self._merge(node, index)
            self._delete_from(left, key)

    def _max_key(self, node: _Node) -> int:
        while not node.leaf:
            self._visit(node.children[-1])
            node = node.children[-1]
        return node.keys[-1]

    def _min_key(self, node: _Node) -> int:
        while not node.leaf:
            self._visit(node.children[0])
            node = node.children[0]
        return node.keys[0]

    def _ensure_min(self, node: _Node, index: int) -> _Node:
        """Guarantee children[index] has >= MIN_DEGREE keys before descent."""
        child = node.children[index]
        if len(child.keys) >= MIN_DEGREE:
            return child
        if index > 0 and len(node.children[index - 1].keys) >= MIN_DEGREE:
            donor = node.children[index - 1]
            self._visit(donor)
            child.keys.insert(0, node.keys[index - 1])
            node.keys[index - 1] = donor.keys.pop()
            if not donor.leaf:
                child.children.insert(0, donor.children.pop())
            self._touch(donor)
            self._touch(child)
            self._touch(node)
            return child
        if index < len(node.children) - 1 and len(node.children[index + 1].keys) >= MIN_DEGREE:
            donor = node.children[index + 1]
            self._visit(donor)
            child.keys.append(node.keys[index])
            node.keys[index] = donor.keys.pop(0)
            if not donor.leaf:
                child.children.append(donor.children.pop(0))
            self._touch(donor)
            self._touch(child)
            self._touch(node)
            return child
        if index < len(node.children) - 1:
            self._merge(node, index)
            return node.children[index]
        self._merge(node, index - 1)
        return node.children[index - 1]

    def _merge(self, node: _Node, index: int) -> None:
        left, right = node.children[index], node.children[index + 1]
        self._visit(right)
        left.keys.append(node.keys.pop(index))
        left.keys.extend(right.keys)
        left.children.extend(right.children)
        node.children.pop(index + 1)
        self.heap.free(right.addr, NODE_SIZE)
        self._touch(left)
        self._touch(node)

    # -- validation -------------------------------------------------------------------------------

    def _check_subtree(self, node: _Node, lo: int, hi: int, is_root: bool) -> int:
        if not is_root and not (MIN_DEGREE - 1 <= len(node.keys) <= MAX_KEYS):
            raise AssertionError("B-tree occupancy violated")
        if sorted(node.keys) != node.keys:
            raise AssertionError("keys out of order within a node")
        for key in node.keys:
            if not (lo < key < hi):
                raise AssertionError("key outside its valid range")
        if self.golden.get(node.addr + COUNT_OFF, 0) != len(node.keys):
            raise AssertionError("golden count mismatch")
        if node.leaf:
            return 1
        if len(node.children) != len(node.keys) + 1:
            raise AssertionError("child count mismatch")
        bounds = [lo] + node.keys + [hi]
        depths = {
            self._check_subtree(child, bounds[i], bounds[i + 1], False)
            for i, child in enumerate(node.children)
        }
        if len(depths) != 1:
            raise AssertionError("leaves at different depths")
        return depths.pop() + 1

    def check_invariants(self) -> None:
        for root in self.roots:
            if root is not None:
                self._check_subtree(root, -1, self.KEY_SPACE + 1, True)
