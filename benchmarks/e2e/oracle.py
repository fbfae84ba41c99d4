"""Oracle checks: every measured output against a materialized answer.

The oracle is the dense model over wide rows the benchmark assembles
itself — ``[x_S | R_1[fk_1] | …]`` from its own copy of the dimension
rows (read back once after generation, rewritten by the benchmark in
step with every update it issues) — so it shares neither caches, buffer
pool nor I/O counters with the program under test.  It runs off the
clock, single-threaded, one concatenated batch per model per window,
so checking costs a fraction of serving.
Contracts (``docs/tuning.md``, ``docs/maintenance.md``): GMM labels
bit-exact, NN outputs ``rtol=1e-9``, float32-tier scores and NN outputs
within ``FLOAT32_SCORE_RTOL``.  Every mismatch, exception, refusal or
timeout is one failed operation in the :class:`Tally`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

NN_RTOL = 1e-9
ORACLE_BLOCK_ROWS = 8192
TRAIN_HISTORY_RTOL = 1e-6


class Request(NamedTuple):
    """One normalized request: ``model`` is both name and kind."""

    model: str                 # "nn" | "gmm"
    x: np.ndarray              # (n, d_S) fact features
    fks: list                  # one int64 array per dimension

    @property
    def rows(self) -> int:
        return self.x.shape[0]


@dataclass
class Tally:
    """Operations attempted and failed, with the reasons seen."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    def record(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[reason] += 1
        return ok

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class DenseOracle:
    """``model`` (a bare ``MLP`` / ``GaussianMixtureModel``) over wide
    rows gathered from ``dims[i][fk_i]`` — the materialized answer."""

    def __init__(self, model, dims: list[np.ndarray]) -> None:
        self.model = model
        self.dims = dims

    def wide(self, x, fks) -> np.ndarray:
        return np.concatenate(
            [x] + [dim[fk] for dim, fk in zip(self.dims, fks)], axis=1
        )

    def predict(self, x, fks) -> np.ndarray:
        """In blocks: a window's requests concatenated are hundreds of
        thousands of rows, and the dense models' temporaries over all
        of them at once would cost more than serving did."""
        return np.concatenate([
            self.model.predict(self.wide(
                x[start:start + ORACLE_BLOCK_ROWS],
                [fk[start:start + ORACLE_BLOCK_ROWS] for fk in fks],
            ))
            for start in range(0, x.shape[0], ORACLE_BLOCK_ROWS)
        ])


def outputs_match(
    kind: str, got, want, *, rtol: float = NN_RTOL, atol: float = 0.0
) -> bool:
    """GMM labels bit-exact; NN outputs (and scores) within ``rtol``."""
    got = np.asarray(got)
    if got.shape != want.shape:
        return False
    if kind == "gmm":
        return bool(np.array_equal(got, want))
    return bool(np.allclose(got, want, rtol=rtol, atol=atol))


def check_requests(
    tally: Tally,
    oracles: dict,
    requests: list[Request],
    outputs: list,
    *,
    where: str,
    rtol: float = NN_RTOL,
) -> None:
    """One operation per request.  ``outputs[i]`` is the served array,
    or the exception / ``None`` (timeout) the request ended with.
    NN outputs get ``rtol × max|expected|`` of absolute slack, as in
    the tier contract's own check (``docs/tuning.md``): an output that
    crosses zero has no relative scale."""
    unknown = {request.model for request in requests} - set(oracles)
    if unknown:
        raise KeyError(f"no oracle for models {sorted(unknown)}")
    for model, oracle in oracles.items():
        picks = [
            i for i, request in enumerate(requests)
            if request.model == model
            and isinstance(outputs[i], np.ndarray)
        ]
        if not picks:
            continue
        want = oracle.predict(
            np.concatenate([requests[i].x for i in picks]),
            [
                np.concatenate([requests[i].fks[d] for i in picks])
                for d in range(len(requests[picks[0]].fks))
            ],
        )
        atol = rtol * float(np.abs(want).max())
        offset = 0
        for i in picks:
            rows = requests[i].rows
            tally.record(
                outputs_match(
                    model, outputs[i], want[offset:offset + rows],
                    rtol=rtol, atol=atol,
                ),
                f"{where}: {model} output differs from the oracle",
            )
            offset += rows
    for request, output in zip(requests, outputs):
        if not isinstance(output, np.ndarray):
            reason = "timeout" if output is None else type(output).__name__
            tally.record(False, f"{where}: {request.model} {reason}")
