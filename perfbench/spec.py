"""Workload table, kept free of numpy and package imports.

run.py reads it in the parent process, which never imports the package;
worker.py and workloads.py read it in the measuring process.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    complex_dim: int
    samples: int
    #: length of the class schedule; timed runs end on a whole period
    period: int
    #: ops every timed run completes; the verdict digest covers these
    min_ops: int
    #: ops replayed untraced, then traced, in a traced run
    trace_ops: int
    #: bundles processed by one op
    instances_per_op: int

    @property
    def field_bytes(self) -> int:
        """Bytes of one n x n complex128 matrix field on this grid (computed)."""
        points = self.samples ** (2 * self.complex_dim)
        return points * self.complex_dim**2 * 16


CORPUS_SIZE = 20

WORKLOADS = {
    w.name: w
    for w in (
        Workload("uniformize_n2_16", 2, 16, 4, 8, 8, 1),
        Workload("corpus_n2_8", 2, 8, 1, 8, 8, CORPUS_SIZE),
        Workload("normalize_n3_8", 3, 8, 4, 8, 4, 1),
    )
}
