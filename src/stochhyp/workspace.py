"""One workspace per solve: the arrays a time step writes into, reused step after step.

A solve makes one `Workspace` and passes it to every step function it calls.
Each of those functions takes an optional `work`; without one it builds a
throwaway workspace and runs the same code, so a direct call returns fresh
arrays.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Hashable

import numpy as np

__all__ = ["Workspace"]


class Workspace:
    """Named step buffers of one solve, plus the invariants the steps derive.

    `buffer(name, shape)` returns the array held under `name`, made with
    `np.empty` on the first request, so it holds whatever its last writer
    left.  A request for fewer leading rows than the held array has gets a
    view of its first rows, so the blocks of rows that a step walks through,
    a short last block included, share one array; a request for more rows
    or another trailing shape makes a new one.  Functions that share a
    workspace use names of their own, except the scratch pairs, which the
    layers of one block of a Liouville step take in turn, so that the block
    holds fewer arrays and they stay in cache: "scratch" and
    "scratch_result" at the nodes, and at order-2 SG "coef_scratch" and
    "coef_scratch_result" on the coefficients.  Each holds whatever its
    last user left.  A function keeps data in a pair only while it runs,
    except what it returns in the pair's second buffer, which lives until
    its caller next calls a function that takes the pair.  An array a
    function returns from its workspace is overwritten by that function's
    next call.  One buffer crosses blocks: at order 2, "slope_carry" holds
    the limited slopes of the last two rows of a block's slab that the
    next block's slab shares, so that each slope is limited once per step.

    A workspace serves one solve, whose grid, barrier and chaos space stay
    fixed: `derived` computes each invariant once and keeps it.  `counts` is
    the solve's ledger: the tallies its steps add, which the solver reports.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray | None] = {}
        self._derived: dict[Hashable, object] = {}
        self.counts: Counter = Counter()

    def buffer(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        buf = self._buffers.get(name)
        if buf is None or buf.shape[1:] != shape[1:] or len(buf) < shape[0]:
            buf = self._buffers[name] = np.empty(shape)
        return buf if len(buf) == shape[0] else buf[: shape[0]]

    def swap(self, a: str, b: str) -> None:
        """Exchange the buffers held under two names."""
        self._buffers[a], self._buffers[b] = self._buffers.get(b), self._buffers.get(a)

    def state_after(self, state: np.ndarray) -> np.ndarray:
        """A buffer for the state that follows `state`: of a pair, the one it is not.

        Both are made on the first request, so the second step allocates
        nothing; its pages are touched only when it is first written.  A
        Liouville euler step writes it block by block, so that pair is the
        only state-sized memory of its solve; rk2 adds its two stage slopes.
        """
        first = self.buffer("state", state.shape)
        second = self.buffer("next_state", state.shape)
        return second if first is state else first

    def derived(self, name: Hashable, build: Callable[[], object]):
        """`build()`, computed on the first request under `name` and kept."""
        if name not in self._derived:
            self._derived[name] = build()
        return self._derived[name]
