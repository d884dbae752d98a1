"""Variable universes: named parameter and fiber coordinates.

Every polynomial carries a reference to its universe; exponent tuples are
indexed by the concatenation params + fibers. Parameters live on the base
space, fibers on the vector-space fiber. A blowup chart's exceptional
divisors are recorded on its ChartNode, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

_RESERVED = {"i"}


def _valid_name(name: str) -> bool:
    if not name or name in _RESERVED:
        return False
    if not (name[0].isalpha() or name[0] == "_"):
        return False
    return all(c.isalnum() or c == "_" for c in name)


@dataclass(frozen=True)
class VarUniverse:
    params: tuple[str, ...]
    fibers: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "fibers", tuple(self.fibers))
        names = self.params + self.fibers
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        for name in names:
            if not _valid_name(name):
                raise ValueError(f"invalid variable name {name!r}")

    @property
    def names(self) -> tuple[str, ...]:
        return self.params + self.fibers

    @property
    def nvars(self) -> int:
        return len(self.params) + len(self.fibers)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def with_extra_param(self, name: str) -> "VarUniverse":
        return VarUniverse(self.params + (name,), self.fibers)

    def fresh_param_name(self, stem: str) -> str:
        """A parameter name based on stem that collides with nothing."""
        taken = set(self.names)
        if stem not in taken and _valid_name(stem):
            return stem
        k = 1
        while f"{stem}{k}" in taken:
            k += 1
        return f"{stem}{k}"
