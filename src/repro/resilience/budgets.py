"""Execution budgets and the runtime resilience policy.

Two layers of bounds keep a misbehaving program from taking down a
profiling session:

- :class:`ExecutionBudgets` guards the **VM**: step limit, heap-byte
  limit, and recursion depth, each raising
  :class:`repro.errors.BudgetExceeded` (a :class:`TrapError`) instead of
  exhausting host memory or hitting Python's ``RecursionError``.  The
  call depth is bounded even with no budget: :data:`MAX_CALL_DEPTH`;
- :class:`ResiliencePolicy` guards the **runtime**: a per-ROI event
  budget past which the ROI degrades to conservative classification.

Both parse from the compact ``--budget`` CLI syntax::

    steps=5000000,heap=1048576,depth=256,events-per-roi=20000
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import RuntimeToolError


#: Deepest call stack the VM runs, budget or not: a call that would make
#: more frames active trips the depth budget's ``BudgetExceeded``.  Not
#: a knob (like the parser's ``MAX_NESTING``): every frame keeps its own
#: callstack tuple, so an unbounded recursion grows memory quadratically
#: until the host kills the process.  The paper's ports need 2–4 frames.
MAX_CALL_DEPTH = 1024


def _require_nonnegative(name: str, value: int) -> None:
    if value < 0:
        raise RuntimeToolError(f"budget {name!r} must be >= 0, got {value}")


@dataclass(frozen=True)
class ExecutionBudgets:
    """VM guards; ``0`` disables the corresponding limit.

    ``max_recursion_depth`` is the most frames that may be active at
    once.  It cannot exceed :data:`MAX_CALL_DEPTH`, which also applies
    when it is ``0``.
    """

    max_steps: int = 0
    max_heap_bytes: int = 0
    max_recursion_depth: int = 0

    def __post_init__(self) -> None:
        _require_nonnegative("steps", self.max_steps)
        _require_nonnegative("heap", self.max_heap_bytes)
        _require_nonnegative("depth", self.max_recursion_depth)
        if self.max_recursion_depth > MAX_CALL_DEPTH:
            raise RuntimeToolError(
                f"budget 'depth' must be <= {MAX_CALL_DEPTH} (the VM's "
                f"call-depth ceiling), got {self.max_recursion_depth}"
            )


@dataclass(frozen=True)
class ResiliencePolicy:
    """Runtime-layer bounds; the all-off default preserves the
    unbudgeted runtime bit for bit."""

    #: Per-ROI event budget (0 = unlimited); past it the ROI switches to
    #: conservative classification (sampling-free partial tracking).
    max_events_per_roi: int = 0

    def __post_init__(self) -> None:
        _require_nonnegative("events-per-roi", self.max_events_per_roi)


@dataclass(frozen=True)
class BudgetSpec:
    """Parsed ``--budget`` flag: VM budgets plus the runtime policy."""

    vm: ExecutionBudgets
    runtime: ResiliencePolicy


_VM_KEYS = {"steps": "max_steps", "heap": "max_heap_bytes",
            "depth": "max_recursion_depth"}
_RUNTIME_KEYS = {"events-per-roi": "max_events_per_roi"}


def _int_value(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise RuntimeToolError(
            f"bad budget value for {key!r}: expected an integer, "
            f"got {value!r}"
        ) from None


def parse_budget_spec(text: str) -> BudgetSpec:
    """Parse ``key=value`` pairs separated by commas (see module doc)."""
    vm_kwargs: Dict[str, int] = {}
    runtime_kwargs: Dict[str, int] = {}
    for raw in text.split(","):
        part = raw.strip()
        if not part:
            continue
        if "=" not in part:
            raise RuntimeToolError(
                f"bad budget entry {part!r}: expected key=value"
            )
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        if key in _VM_KEYS:
            vm_kwargs[_VM_KEYS[key]] = _int_value(key, value)
        elif key in _RUNTIME_KEYS:
            runtime_kwargs[_RUNTIME_KEYS[key]] = _int_value(key, value)
        else:
            known: Tuple[str, ...] = tuple(sorted([*_VM_KEYS, *_RUNTIME_KEYS]))
            raise RuntimeToolError(
                f"unknown budget key {key!r} (choose from {known})"
            )
    return BudgetSpec(vm=ExecutionBudgets(**vm_kwargs),
                      runtime=ResiliencePolicy(**runtime_kwargs))
