"""One workspace per solve: the arrays a time step writes into, reused step after step.

A solve makes one `Workspace` and passes it to every step function it calls.
Each of those functions takes an optional `work`; without one it builds a
throwaway workspace and runs the same code, so a direct call returns fresh
arrays.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["Workspace"]


class Workspace:
    """Named step buffers of one solve, plus the invariants the steps derive.

    `buffer(name, shape)` returns the array held under `name`, made with
    `np.empty` on the first request (or when the shape changes), so it holds
    whatever its last writer left.  Functions that share a workspace use
    names of their own; a function that calls another whose names would
    clash with its own hands it a `part`.  An array a function returns from
    its workspace is overwritten by that function's next call.

    A workspace serves one solve, whose grid, barrier and chaos space stay
    fixed: `derived` computes each invariant once and keeps it.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray | None] = {}
        self._parts: dict[str, Workspace] = {}
        self._derived: dict[str, object] = {}

    def buffer(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape:
            buf = self._buffers[name] = np.empty(shape)
        return buf

    def part(self, name: str) -> "Workspace":
        """The workspace of a nested call, whose names stay apart from these."""
        if name not in self._parts:
            self._parts[name] = Workspace()
        return self._parts[name]

    def swap(self, a: str, b: str) -> None:
        """Exchange the buffers held under two names."""
        self._buffers[a], self._buffers[b] = self._buffers.get(b), self._buffers.get(a)

    def state_after(self, state: np.ndarray) -> np.ndarray:
        """A buffer for the state that follows `state`: of a pair, the one it is not.

        Both are made on the first request, so the second step allocates
        nothing; its pages are touched only when it is first written.
        """
        first = self.buffer("state", state.shape)
        second = self.buffer("next_state", state.shape)
        return second if first is state else first

    def derived(self, name: str, build: Callable[[], object]):
        """`build()`, computed on the first request under `name` and kept."""
        if name not in self._derived:
            self._derived[name] = build()
        return self._derived[name]
