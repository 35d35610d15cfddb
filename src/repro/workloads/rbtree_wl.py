"""RT — insert/delete in 16 red-black trees (Table 2).

Nodes are 64 B: ``key`` +0, ``left`` +8, ``right`` +16, ``parent`` +24,
``color`` +32.  Insert and delete use the standard red-black fixup
algorithms; every fixup write (recoloring, rotation pointer swings) is
recorded, descents are dependent loads, and the visited set becomes the
conservative software-logging candidate set.

The implementation uses an explicit sentinel nil node (also persisted —
fixups may temporarily recolor it, as in the textbook algorithm).
"""

from __future__ import annotations

from repro.workloads.base import NODE_SIZE, KeyedWorkload

KEY_OFF = 0
LEFT_OFF = 8
RIGHT_OFF = 16
PARENT_OFF = 24
COLOR_OFF = 32

RED = 0
BLACK = 1


class _Node:
    """In-memory mirror of one red-black node."""

    __slots__ = ("addr", "key", "left", "right", "parent", "color")

    def __init__(self, addr: int, key: int, color: int, nil: "_Node" = None) -> None:
        self.addr = addr
        self.key = key
        self.left = nil
        self.right = nil
        self.parent = nil
        self.color = color


class _Tree:
    """One red-black tree with its own sentinel."""

    __slots__ = ("nil", "root", "size")

    def __init__(self, nil_addr: int) -> None:
        self.nil = _Node(nil_addr, 0, BLACK)
        self.nil.left = self.nil.right = self.nil.parent = self.nil
        self.root = self.nil
        self.size = 0


class RbTreeWorkload(KeyedWorkload):
    """16 red-black trees, randomized insert/delete."""

    name = "RT"
    default_init_ops = 100000
    default_sim_ops = 150
    think_instructions = 2079

    def build(self) -> None:
        self.trees = [
            _Tree(self.heap.alloc(NODE_SIZE)) for _ in range(self.STRUCTURES)
        ]

    def insert(self, index: int, key: int) -> None:
        self._insert(self.trees[index], key)

    def delete(self, index: int, key: int) -> None:
        self._delete(self.trees[index], key)

    def sync(self) -> None:
        for tree in self.trees:
            self._poke_node(tree, tree.nil)
            self._sync_subtree(tree, tree.root)

    def _sync_subtree(self, tree: _Tree, node: _Node) -> None:
        if node is tree.nil:
            return
        self._poke_node(tree, node)
        self._sync_subtree(tree, node.left)
        self._sync_subtree(tree, node.right)

    def _poke_node(self, tree: _Tree, node: _Node) -> None:
        self.poke(node.addr + KEY_OFF, node.key)
        self.poke(node.addr + LEFT_OFF, node.left.addr)
        self.poke(node.addr + RIGHT_OFF, node.right.addr)
        self.poke(node.addr + PARENT_OFF, node.parent.addr)
        self.poke(node.addr + COLOR_OFF, node.color)

    # -- recording wrappers -----------------------------------------------------------

    def _visit(self, tree: _Tree, node: _Node, chained: bool = True) -> None:
        """Record reading a node during a walk.

        Conservative software logging also covers the node's children:
        fixup rotations rewrite sibling subtree roots that a logger
        cannot predict at transaction start.
        """
        if self._recording is None or node is tree.nil:
            return
        self._visited.add(node.addr)
        if node.left is not tree.nil:
            self._candidate_extra.add(node.left.addr)
        if node.right is not tree.nil:
            self._candidate_extra.add(node.right.addr)
        self.rec_read(node.addr + KEY_OFF, chained=chained)
        self.rec_compute(1)

    def _touch(self, tree: _Tree, node: _Node) -> None:
        """Record rewriting a node's pointer/color fields."""
        if self._recording is None:
            self._poke_node(tree, node)
            return
        self._visited.add(node.addr)
        self.rec_write(node.addr + LEFT_OFF, node.left.addr)
        self.rec_write(node.addr + RIGHT_OFF, node.right.addr)
        self.rec_write(node.addr + PARENT_OFF, node.parent.addr)
        self.rec_write(node.addr + COLOR_OFF, node.color)

    def _emit_new_node(self, tree: _Tree, node: _Node) -> None:
        if self._recording is None:
            self._poke_node(tree, node)
            return
        self._visited.add(node.addr)
        self.rec_write(node.addr + KEY_OFF, node.key)
        self._touch(tree, node)

    # -- rotations -----------------------------------------------------------------------

    def _rotate_left(self, tree: _Tree, x: _Node) -> None:
        y = x.right
        x.right = y.left
        if y.left is not tree.nil:
            y.left.parent = x
            self._touch(tree, y.left)
        y.parent = x.parent
        if x.parent is tree.nil:
            tree.root = y
        elif x is x.parent.left:
            x.parent.left = y
            self._touch(tree, x.parent)
        else:
            x.parent.right = y
            self._touch(tree, x.parent)
        y.left = x
        x.parent = y
        self._touch(tree, x)
        self._touch(tree, y)

    def _rotate_right(self, tree: _Tree, x: _Node) -> None:
        y = x.left
        x.left = y.right
        if y.right is not tree.nil:
            y.right.parent = x
            self._touch(tree, y.right)
        y.parent = x.parent
        if x.parent is tree.nil:
            tree.root = y
        elif x is x.parent.right:
            x.parent.right = y
            self._touch(tree, x.parent)
        else:
            x.parent.left = y
            self._touch(tree, x.parent)
        y.right = x
        x.parent = y
        self._touch(tree, x)
        self._touch(tree, y)

    # -- insert -----------------------------------------------------------------------------

    def _insert(self, tree: _Tree, key: int) -> None:
        parent = tree.nil
        node = tree.root
        chained = False
        while node is not tree.nil:
            self._visit(tree, node, chained=chained)
            chained = True
            parent = node
            if key < node.key:
                node = node.left
            elif key > node.key:
                node = node.right
            else:
                return  # duplicate
        fresh = _Node(self.heap.alloc(NODE_SIZE), key, RED, tree.nil)
        fresh.parent = parent
        if parent is tree.nil:
            tree.root = fresh
        elif key < parent.key:
            parent.left = fresh
            self._touch(tree, parent)
        else:
            parent.right = fresh
            self._touch(tree, parent)
        self._emit_new_node(tree, fresh)
        tree.size += 1
        self._insert_fixup(tree, fresh)

    def _insert_fixup(self, tree: _Tree, z: _Node) -> None:
        while z.parent.color == RED:
            grandparent = z.parent.parent
            if z.parent is grandparent.left:
                uncle = grandparent.right
                self._visit(tree, uncle)
                if uncle.color == RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    grandparent.color = RED
                    self._touch(tree, z.parent)
                    self._touch(tree, uncle)
                    self._touch(tree, grandparent)
                    z = grandparent
                else:
                    if z is z.parent.right:
                        z = z.parent
                        self._rotate_left(tree, z)
                    z.parent.color = BLACK
                    grandparent.color = RED
                    self._touch(tree, z.parent)
                    self._touch(tree, grandparent)
                    self._rotate_right(tree, grandparent)
            else:
                uncle = grandparent.left
                self._visit(tree, uncle)
                if uncle.color == RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    grandparent.color = RED
                    self._touch(tree, z.parent)
                    self._touch(tree, uncle)
                    self._touch(tree, grandparent)
                    z = grandparent
                else:
                    if z is z.parent.left:
                        z = z.parent
                        self._rotate_right(tree, z)
                    z.parent.color = BLACK
                    grandparent.color = RED
                    self._touch(tree, z.parent)
                    self._touch(tree, grandparent)
                    self._rotate_left(tree, grandparent)
        if tree.root.color != BLACK:
            tree.root.color = BLACK
            self._touch(tree, tree.root)

    # -- delete ---------------------------------------------------------------------------------

    def _find(self, tree: _Tree, key: int) -> _Node:
        node = tree.root
        chained = False
        while node is not tree.nil:
            self._visit(tree, node, chained=chained)
            chained = True
            if key < node.key:
                node = node.left
            elif key > node.key:
                node = node.right
            else:
                return node
        return tree.nil

    def _transplant(self, tree: _Tree, u: _Node, v: _Node) -> None:
        if u.parent is tree.nil:
            tree.root = v
        elif u is u.parent.left:
            u.parent.left = v
            self._touch(tree, u.parent)
        else:
            u.parent.right = v
            self._touch(tree, u.parent)
        v.parent = u.parent
        if v is not tree.nil:
            self._touch(tree, v)

    def _minimum(self, tree: _Tree, node: _Node) -> _Node:
        while node.left is not tree.nil:
            self._visit(tree, node.left)
            node = node.left
        return node

    def _delete(self, tree: _Tree, key: int) -> None:
        z = self._find(tree, key)
        if z is tree.nil:
            return
        y = z
        y_original_color = y.color
        if z.left is tree.nil:
            x = z.right
            self._transplant(tree, z, z.right)
        elif z.right is tree.nil:
            x = z.left
            self._transplant(tree, z, z.left)
        else:
            y = self._minimum(tree, z.right)
            y_original_color = y.color
            x = y.right
            if y.parent is z:
                x.parent = y
            else:
                self._transplant(tree, y, y.right)
                y.right = z.right
                y.right.parent = y
                self._touch(tree, y.right)
            self._transplant(tree, z, y)
            y.left = z.left
            y.left.parent = y
            y.color = z.color
            self._touch(tree, y.left)
            self._touch(tree, y)
        self.heap.free(z.addr, NODE_SIZE)
        tree.size -= 1
        if y_original_color == BLACK:
            self._delete_fixup(tree, x)

    def _delete_fixup(self, tree: _Tree, x: _Node) -> None:
        while x is not tree.root and x.color == BLACK:
            if x is x.parent.left:
                w = x.parent.right
                self._visit(tree, w)
                if w.color == RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._touch(tree, w)
                    self._touch(tree, x.parent)
                    self._rotate_left(tree, x.parent)
                    w = x.parent.right
                if w.left.color == BLACK and w.right.color == BLACK:
                    w.color = RED
                    self._touch(tree, w)
                    x = x.parent
                else:
                    if w.right.color == BLACK:
                        w.left.color = BLACK
                        w.color = RED
                        self._touch(tree, w.left)
                        self._touch(tree, w)
                        self._rotate_right(tree, w)
                        w = x.parent.right
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.right.color = BLACK
                    self._touch(tree, w)
                    self._touch(tree, x.parent)
                    self._touch(tree, w.right)
                    self._rotate_left(tree, x.parent)
                    x = tree.root
            else:
                w = x.parent.left
                self._visit(tree, w)
                if w.color == RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._touch(tree, w)
                    self._touch(tree, x.parent)
                    self._rotate_right(tree, x.parent)
                    w = x.parent.left
                if w.right.color == BLACK and w.left.color == BLACK:
                    w.color = RED
                    self._touch(tree, w)
                    x = x.parent
                else:
                    if w.left.color == BLACK:
                        w.right.color = BLACK
                        w.color = RED
                        self._touch(tree, w.right)
                        self._touch(tree, w)
                        self._rotate_left(tree, w)
                        w = x.parent.left
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.left.color = BLACK
                    self._touch(tree, w)
                    self._touch(tree, x.parent)
                    self._touch(tree, w.left)
                    self._rotate_right(tree, x.parent)
                    x = tree.root
        if x.color != BLACK:
            x.color = BLACK
            self._touch(tree, x)

    # -- validation -------------------------------------------------------------------------------

    def _check_subtree(self, tree: _Tree, node: _Node, lo: int, hi: int) -> int:
        if node is tree.nil:
            return 1
        if not (lo < node.key < hi):
            raise AssertionError("BST ordering violated")
        if node.color == RED:
            if node.left.color == RED or node.right.color == RED:
                raise AssertionError("red node with red child")
        left_black = self._check_subtree(tree, node.left, lo, node.key)
        right_black = self._check_subtree(tree, node.right, node.key, hi)
        if left_black != right_black:
            raise AssertionError("black-height mismatch")
        if self.golden.get(node.addr + KEY_OFF) != node.key:
            raise AssertionError("golden key mismatch")
        if self.golden.get(node.addr + COLOR_OFF, RED) != node.color:
            raise AssertionError("golden color mismatch")
        return left_black + (1 if node.color == BLACK else 0)

    def check_invariants(self) -> None:
        for tree in self.trees:
            if tree.root.color != BLACK:
                raise AssertionError("root must be black")
            self._check_subtree(tree, tree.root, -1, self.KEY_SPACE + 1)
