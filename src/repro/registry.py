"""Name registry with an ``auto`` default and an environment override.

Kernel backends, balancing strategies and cost models are each selected
through one :class:`Registry`: an explicit registered name is honored
as-is; ``"auto"`` takes the registry's environment variable when it is
set (``=auto`` means no override) and is otherwise left for the owning
package to resolve.  An unknown name or environment value raises a
one-line :class:`ValueError`.
"""

from __future__ import annotations

import os
from typing import Dict, List

__all__ = ["AUTO", "Registry"]

#: The selection sentinel: resolve by env var, then the package default.
AUTO = "auto"


class Registry:
    """Classes registered under names, selected by name or environment."""

    def __init__(self, kind: str, env_var: str) -> None:
        #: what the entries are, for error messages ("cost model")
        self.kind = kind
        #: environment variable forcing the resolution of ``auto``
        self.env_var = env_var
        self._classes: Dict[str, type] = {}

    def register(self, name: str):
        """Class decorator: register a class under ``name``."""
        def deco(cls: type) -> type:
            if name == AUTO:
                raise ValueError(f"{AUTO!r} is reserved for the default")
            if name in self._classes:
                raise ValueError(f"{self.kind} {name!r} already registered")
            cls.name = name
            self._classes[name] = cls
            return cls
        return deco

    def names(self) -> List[str]:
        """All registered names, sorted (``auto`` excluded)."""
        return sorted(self._classes)

    def get(self, name: str) -> type:
        if name not in self._classes:
            raise KeyError(f"unknown {self.kind} {name!r}; "
                           f"known: {', '.join(self.names())}")
        return self._classes[name]

    def check(self, name: str, source: str = "") -> str:
        """``name`` itself when it is ``auto`` or registered."""
        if name != AUTO and name not in self._classes:
            raise ValueError(f"{source}unknown {self.kind} {name!r}; known: "
                             f"{', '.join(self.names())} (or {AUTO!r})")
        return name

    def requested(self, name: str = AUTO) -> str:
        """A registered name, or ``auto`` still to be resolved.

        Explicit names win over the environment, so forcing a
        default-configured run never rewrites a test or ablation that
        pins an implementation.
        """
        if self.check(name) != AUTO:
            return name
        forced = os.environ.get(self.env_var, "").strip()
        return self.check(forced, f"{self.env_var}: ") if forced else AUTO
