"""Memory resources: 2-D textures, global buffers, color buffers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.il.types import DataType, MemorySpace

_CONSTANT = MemorySpace.CONSTANT


@dataclass(eq=False, slots=True, init=False)
class Resource:
    """A 2-D device allocation.

    Data is materialized lazily — benchmark-only workloads never touch the
    arrays, while functional runs read and write them.  A resource equals
    only itself: a context tracks allocations, not their contents.
    """

    width: int
    height: int
    dtype: DataType
    space: MemorySpace
    name: str = ""
    nbytes: int = field(repr=False)  #: set once, from the extent
    _data: np.ndarray | None = field(default=None, repr=False)
    _freed: bool = field(default=False, repr=False)

    # Written out (one call, not __init__ plus __post_init__): a launch
    # allocates one resource per stream.
    def __init__(
        self,
        width: int,
        height: int,
        dtype: DataType,
        space: MemorySpace,
        name: str = "",
    ) -> None:
        if width < 1 or height < 1:
            raise ValueError(f"invalid resource extent {width}x{height}")
        if space is _CONSTANT:
            raise ValueError("constant buffers are bound per-launch, not allocated")
        self.width = width
        self.height = height
        self.dtype = dtype
        self.space = space
        self.name = name
        self.nbytes = width * height * dtype.bytes
        self._data = None
        self._freed = False

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.height, self.width, self.dtype.components)

    @property
    def freed(self) -> bool:
        return self._freed

    @property
    def data(self) -> np.ndarray:
        """The backing array (zero-initialized on first access)."""
        self._check_alive()
        if self._data is None:
            self._data = np.zeros(self.shape, dtype=np.float32)
        return self._data

    def upload(self, array: np.ndarray) -> None:
        """Copy host data into the resource (broadcasting components)."""
        self._check_alive()
        arr = np.asarray(array, dtype=np.float32)
        if arr.ndim == 2:
            arr = arr[:, :, np.newaxis]
        if arr.shape[:2] != (self.height, self.width):
            raise ValueError(
                f"array shape {arr.shape[:2]} does not match resource "
                f"{(self.height, self.width)}"
            )
        self.data[:] = np.broadcast_to(arr, self.shape)

    def download(self) -> np.ndarray:
        """Copy the resource's contents back to the host."""
        self._check_alive()
        return self.data.copy()

    def mark_freed(self) -> None:
        self._freed = True
        self._data = None

    def _check_alive(self) -> None:
        if self._freed:
            raise ValueError(f"resource {self.name or id(self)} was freed")
