"""De Bruijn presentation of the shift restricted to depth-k cylinders.

Nodes are the d^(k-1) words of length k-1, edges the d^k words of
length k; the edge u0..u(k-1) runs from the node u0..u(k-2) to the node
u1..u(k-1) and carries the potential's value on that cylinder.  With
words indexed lexicographically (base-d numerals) the incidence maps
are arithmetic: source(e) = e // d and target(e) = e mod d^(k-1), so no
adjacency lists are stored.  For k = 1 there is a single node (the
empty word) carrying d loops.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidInputError
from .potentials import LocallyConstantPotential
from .words import Word, word_at_index, word_index


class DeBruijnGraph:
    """Weighted de Bruijn graph of a locally constant potential.

    Immutable by convention; everything below only reads it.
    """

    def __init__(self, weights: LocallyConstantPotential):
        self.alphabet_size = weights.alphabet_size
        self.depth = weights.depth
        self.n_nodes = self.alphabet_size ** (self.depth - 1)
        self.n_edges = self.alphabet_size ** self.depth
        self.weights = weights.values  # tuple indexed like edges
        self.potential = weights

    # -- incidence ------------------------------------------------------

    def source(self, e: int) -> int:
        return e // self.alphabet_size

    def target(self, e: int) -> int:
        return e % self.n_nodes

    def out_edges(self, v: int) -> range:
        """Edges v·a for each appended symbol a, in symbol order."""
        d = self.alphabet_size
        return range(v * d, v * d + d)

    def in_edges(self, v: int) -> list[int]:
        """Edges a·v for each prepended symbol a, in symbol order."""
        return [a * self.n_nodes + v for a in range(self.alphabet_size)]

    def edge_append(self, v: int, a: int) -> int:
        """Index of the edge spelled node-word(v) followed by a."""
        return v * self.alphabet_size + a

    def edge_prepend(self, a: int, v: int) -> int:
        """Index of the edge spelled a followed by node-word(v)."""
        return a * self.n_nodes + v

    # -- words ----------------------------------------------------------

    def node_word(self, v: int) -> Word:
        return word_at_index(v, self.alphabet_size, self.depth - 1)

    def edge_word(self, e: int) -> Word:
        return word_at_index(e, self.alphabet_size, self.depth)

    def node_index(self, w: Word) -> int:
        if len(w) != self.depth - 1:
            raise InvalidInputError(f"node word must have length {self.depth - 1}, got {w}")
        return word_index(w, self.alphabet_size)

    def edge_index(self, w: Word) -> int:
        if len(w) != self.depth:
            raise InvalidInputError(f"edge word must have length {self.depth}, got {w}")
        return word_index(w, self.alphabet_size)

    def weight(self, e: int) -> Fraction:
        return self.weights[e]

    def __repr__(self) -> str:
        return (f"DeBruijnGraph(d={self.alphabet_size}, depth={self.depth}, "
                f"{self.n_nodes} nodes, {self.n_edges} edges)")


def build_de_bruijn(d: int, k: int, weights: LocallyConstantPotential) -> DeBruijnGraph:
    """Graph of the depth-k cylinders of a d-letter shift, weighted by
    the given potential.  d and k must match the potential's own."""
    if weights.alphabet_size != d or weights.depth != k:
        raise InvalidInputError(
            f"potential has (d, k) = ({weights.alphabet_size}, {weights.depth}), "
            f"requested ({d}, {k})")
    return DeBruijnGraph(weights)


def edge_path(g: DeBruijnGraph, symbols, length: int) -> list[int]:
    """Edge indices of the first `length` sliding windows of a symbol
    stream (any indexable with .symbol(i))."""
    k = g.depth
    return [g.edge_index(tuple(symbols.symbol(i + j) for j in range(k)))
            for i in range(length)]
