"""Compiled query kernels: plans lowered to flat specialized programs.

``compile_program`` lowers a ``CompiledQuery`` into a store-independent
:class:`KernelProgram` (a small register-style opcode sequence plus the
structure tables its executor needs); ``bind_program`` executes the
scan/probe/accumulate ops against a closure store — the memoized
tail-major view of each pair table of each query edge, and from it each
tail's minimum of ``bs[head] + dist`` — into a :class:`BoundProgram`,
whose live parents' slots are sorted the first time an enumeration
reads them; ``BoundProgram.run()`` starts interpreter-exact Lawler
enumerations (:class:`KernelRun`).

The planner selects the tier (``QueryPlan.tier == "compiled"``); the
``REPRO_KERNEL`` environment variable is the kill switch.  There is one
bind path, pure stdlib.  See DESIGN.md, "Compiled kernel tier".
"""

from repro.kernel.executor import BoundProgram, KernelRun, bind_program
from repro.kernel.program import (
    KERNEL_ALGORITHMS,
    KERNEL_LOAD_CAP,
    TIER_COMPILED,
    TIER_INTERPRETED,
    KernelOp,
    KernelProgram,
    KernelUnsupported,
    compile_program,
    kernel_enabled,
    supports,
)

__all__ = [
    "KERNEL_ALGORITHMS",
    "KERNEL_LOAD_CAP",
    "TIER_COMPILED",
    "TIER_INTERPRETED",
    "BoundProgram",
    "KernelOp",
    "KernelProgram",
    "KernelRun",
    "KernelUnsupported",
    "bind_program",
    "compile_program",
    "kernel_enabled",
    "supports",
]
