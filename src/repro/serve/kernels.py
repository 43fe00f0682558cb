"""Servable kernels: the work a :class:`~repro.serve.TaskService`
job can request.

A served job names a *kernel* plus plain-JSON arguments; the kernel
turns those into a batch of significance-annotated tasks (the payload of
one ``Scheduler.spawn_many`` call), recombines the per-task results into
the job's output, and scores that output against a runtime-free accurate
reference.  Kernels live in the ``"servable"`` registry family, so jobs
crossing the wire carry nothing but strings and JSON — the same
serializability contract as :class:`~repro.config.RuntimeConfig`.

Five built-ins cover the paper's two approximation modes:

* ``sobel`` — row tasks over a synthetic image with the paper's
  Listing 1 significance pattern; approximated rows run the cheap
  stencil (**A** mode).  Dominant cost, visual quality metric.
* ``mc-pi`` — Monte-Carlo π estimation in sample blocks; approximated
  blocks are *dropped* entirely (**D** mode: no ``approxfun``), so a
  degraded tenant sheds their compute instead of shrinking it.
* ``jacobi`` — block-Jacobi solve of a diagonally dominant system:
  each task solves one diagonal block of the matrix, dropped blocks
  leave their rows at zero (**D** mode — the served cousin of the
  benchmark's "drop the upper right and lower left areas").
* ``kmeans`` — one k-means refinement step over point chunks; dropped
  chunks simply don't vote, and the centroid update renormalizes over
  the chunks that ran (**D** mode).
* ``dct`` — JPEG forward DCT in zigzag-band tasks, significance
  decreasing with spatial frequency; a dropped band leaves its
  coefficients zero, like truncating the zigzag scan (**D** mode).

Task bodies are module-level functions over picklable data, so every
execution backend (simulated / threaded / process pool) can serve them.
"""

from __future__ import annotations

import abc
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..kernels.dct import (
    BLOCK,
    N_BANDS,
    band_coefficients,
    band_cost,
    band_significance,
    blockize,
    dct_band_value,
    reconstruct,
)
from ..kernels.jacobi import (
    OPS_PER_ENTRY,
    JacobiProblem,
    jacobi_reference,
)
from ..kernels.kmeans import OPS_PER_DIM, KmeansProblem
from ..kernels.sobel import (
    sobel_row_accurate,
    sobel_row_cost,
    sobel_row_significance,
    sobel_row_value,
    sobel_row_value_approx,
)
from ..quality.images import synthetic_image
from ..quality.metrics import inverse_psnr, relative_error
from ..registry import register, registry_for, resolve
from ..runtime.errors import ConfigError
from ..runtime.task import TaskCost

__all__ = [
    "TaskPlan",
    "ServableKernel",
    "AnytimeServable",
    "SobelServable",
    "MonteCarloPiServable",
    "JacobiServable",
    "KmeansServable",
    "DctServable",
    "FluidanimateServable",
    "get_servable",
    "servable_names",
]


@dataclass(frozen=True)
class TaskPlan:
    """One job's task batch, shaped for ``Scheduler.spawn_many``."""

    fn: Callable[..., Any]
    args_list: list[tuple]
    significance: Any = 1.0
    approxfun: Callable[..., Any] | None = None
    cost: Any = None

    @property
    def n_tasks(self) -> int:
        return len(self.args_list)


class ServableKernel(abc.ABC):
    """One kind of servable work: plan tasks, combine, judge quality."""

    #: Registry name (also the cache key's first component).
    name: str = "?"

    # -- identity --------------------------------------------------------
    @abc.abstractmethod
    def canonical_args(self, args: dict | None) -> dict:
        """Validated arguments with defaults filled in (plain JSON)."""

    def digest(self, args: dict | None) -> str:
        """Stable content key of one argument set (cache identity)."""
        canon = self.canonical_args(args)
        blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    # -- execution -------------------------------------------------------
    @abc.abstractmethod
    def plan(self, args: dict | None) -> TaskPlan:
        """The job's task batch (fresh per call; tasks own their data)."""

    @abc.abstractmethod
    def combine(self, args: dict | None, results: list) -> Any:
        """Recombine per-task results (in ``args_list`` order) into the
        job output.  Dropped tasks contribute ``None``."""

    # -- quality ---------------------------------------------------------
    @abc.abstractmethod
    def reference(self, args: dict | None) -> Any:
        """Fully accurate output, computed without any runtime."""

    @abc.abstractmethod
    def quality(self, reference: Any, output: Any) -> float:
        """Lower-is-better degradation of ``output`` vs the reference."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ServableKernel {self.name}>"


class AnytimeServable(ServableKernel):
    """A servable kernel that can also *refine* an answer round by
    round — the anytime/iterative job shape.

    The batch surface (:meth:`~ServableKernel.plan` /
    :meth:`~ServableKernel.combine`) stays untouched; the anytime
    surface models one refinement round over a mutable solution state:

    * :meth:`anytime_state` — the initial solution,
    * :meth:`anytime_plan` — one round's task batch against it,
    * :meth:`anytime_update` — fold the round's results back in
      (dropped tasks contribute ``None`` and leave their slice stale —
      that is what makes a degraded round *graceful*),
    * :meth:`anytime_reference` — the **converged** answer the
      per-round quality curve is scored against (a different artifact
      than the one-shot batch reference).

    :meth:`~repro.serve.TaskService.submit_anytime` drives the
    loop and reports improving quality after every round.
    """

    @abc.abstractmethod
    def anytime_state(self, args: dict | None) -> Any:
        """The initial solution state of one job."""

    @abc.abstractmethod
    def anytime_plan(self, args: dict | None, state: Any) -> TaskPlan:
        """One refinement round's task batch against ``state``."""

    @abc.abstractmethod
    def anytime_update(
        self, args: dict | None, state: Any, results: list
    ) -> Any:
        """The next state after folding one round's results in."""

    def anytime_output(self, args: dict | None, state: Any) -> Any:
        """The answer a client takes from ``state`` (default: as is)."""
        return state

    @abc.abstractmethod
    def anytime_reference(self, args: dict | None) -> Any:
        """The converged answer (quality baseline for every round)."""


def _int_arg(args: dict, key: str, default: int, lo: int, hi: int) -> int:
    value = args.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"servable arg {key!r} must be an int")
    if not lo <= value <= hi:
        raise ConfigError(
            f"servable arg {key!r}={value} outside [{lo}, {hi}]"
        )
    return value


# ----------------------------------------------------------------------
# Sobel (approximate-task mode)
# ----------------------------------------------------------------------
@register("servable", "sobel")
class SobelServable(ServableKernel):
    """Row-parallel Sobel filtering of a synthetic image.

    Args: ``size`` (image side, default 64), ``seed`` (default 2015).
    """

    name = "sobel"

    def canonical_args(self, args: dict | None) -> dict:
        args = args or {}
        return {
            "size": _int_arg(args, "size", 64, 8, 4096),
            "seed": _int_arg(args, "seed", 2015, 0, 2**31),
        }

    def _image(self, args: dict) -> np.ndarray:
        return synthetic_image(args["size"], args["size"], args["seed"])

    def plan(self, args: dict | None) -> TaskPlan:
        canon = self.canonical_args(args)
        img = self._image(canon)
        rows = range(1, canon["size"] - 1)
        return TaskPlan(
            fn=sobel_row_value,
            # Three-row windows, not the whole image: views share the
            # base array in-process and pickle as O(width) payloads on
            # the process backend.
            args_list=[(img[i - 1 : i + 2], i) for i in rows],
            significance=lambda window, i: sobel_row_significance(i),
            approxfun=sobel_row_value_approx,
            cost=sobel_row_cost(canon["size"]),
        )

    def combine(self, args: dict | None, results: list) -> np.ndarray:
        canon = self.canonical_args(args)
        size = canon["size"]
        out = np.zeros((size, size), dtype=np.uint8)
        for i, row in zip(range(1, size - 1), results):
            if row is not None:
                out[i] = row
        return out

    def reference(self, args: dict | None) -> np.ndarray:
        canon = self.canonical_args(args)
        img = self._image(canon)
        out = np.zeros_like(img)
        for i in range(1, canon["size"] - 1):
            sobel_row_accurate(out, img, i)
        return out

    def quality(self, reference: Any, output: Any) -> float:
        return inverse_psnr(reference, output)


# ----------------------------------------------------------------------
# Monte-Carlo π (drop mode)
# ----------------------------------------------------------------------
#: Abstract work units per Monte-Carlo sample (draw + square + compare).
_MC_OPS_PER_SAMPLE = 8.0


def _pi_block(seed: int, n: int) -> tuple[int, int]:
    """Count unit-circle hits among ``n`` deterministic 2-D samples."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    hits = int(np.count_nonzero((pts * pts).sum(axis=1) <= 1.0))
    return hits, n


@register("servable", "mc-pi", "pi")
class MonteCarloPiServable(ServableKernel):
    """Monte-Carlo π in droppable sample blocks.

    Args: ``blocks`` (tasks, default 16), ``samples`` (per block,
    default 2000), ``seed``.  No ``approxfun``: a block selected for
    approximation is dropped, and :meth:`combine` renormalizes over the
    blocks that actually ran (the paper's **D** mode).
    """

    name = "mc-pi"

    def canonical_args(self, args: dict | None) -> dict:
        args = args or {}
        return {
            "blocks": _int_arg(args, "blocks", 16, 1, 4096),
            "samples": _int_arg(args, "samples", 2000, 16, 10**7),
            "seed": _int_arg(args, "seed", 2015, 0, 2**31),
        }

    def plan(self, args: dict | None) -> TaskPlan:
        canon = self.canonical_args(args)
        seed, n = canon["seed"], canon["samples"]
        return TaskPlan(
            fn=_pi_block,
            args_list=[(seed + b, n) for b in range(canon["blocks"])],
            # Listing-1-style spread in (0, 1): never forces a decision.
            significance=lambda s, n: ((s % 9) + 1) / 10.0,
            approxfun=None,
            cost=TaskCost(accurate=n * _MC_OPS_PER_SAMPLE),
        )

    def combine(self, args: dict | None, results: list) -> float:
        hits = total = 0
        for block in results:
            if block is not None:
                h, n = block
                hits += h
                total += n
        return 4.0 * hits / total if total else 0.0

    def reference(self, args: dict | None) -> float:
        canon = self.canonical_args(args)
        return self.combine(
            args,
            [
                _pi_block(canon["seed"] + b, canon["samples"])
                for b in range(canon["blocks"])
            ],
        )

    def quality(self, reference: Any, output: Any) -> float:
        return relative_error(
            np.asarray([reference]), np.asarray([output])
        )


# ----------------------------------------------------------------------
# Jacobi (drop mode)
# ----------------------------------------------------------------------
#: Nominal Jacobi sweeps a diagonal-block solve needs at the native
#: tolerance (cost model only — the body iterates to convergence).
_JACOBI_BLOCK_SWEEPS = 12.0


def _jacobi_sweep_chunk(
    a_rows: np.ndarray,
    b_chunk: np.ndarray,
    diag_chunk: np.ndarray,
    x: np.ndarray,
    lo: int,
    hi: int,
) -> np.ndarray:
    """One Jacobi sweep for rows ``lo:hi`` against the full iterate.

    The anytime round body: ``x'[i] = (b[i] - sum_{j!=i} a[i,j] x[j])
    / a[i,i]``.  Strict diagonal dominance makes the sweep a
    contraction, so every round provably improves the answer — the
    property the anytime quality curve rides on.
    """
    sigma = a_rows @ x - diag_chunk * x[lo:hi]
    return (b_chunk - sigma) / diag_chunk


def _jacobi_block(a_block: np.ndarray, b_chunk: np.ndarray, idx: int):
    """Solve one diagonal block ``a_block x = b_chunk`` accurately.

    ``a_block`` is strictly diagonally dominant (its diagonal dominates
    the *full* matrix row, so a fortiori the block row), which is what
    makes dropping the off-block couplings — the served analogue of the
    benchmark's "upper right and lower left areas" — graceful rather
    than catastrophic.  ``idx`` rides along for the significance clause.
    """
    return jacobi_reference(JacobiProblem(a=a_block, b=b_chunk))


@register("servable", "jacobi")
class JacobiServable(AnytimeServable):
    """Block-Jacobi solve of a diagonally dominant system, in
    droppable diagonal-block tasks.

    Args: ``n`` (system size, default 256), ``chunk`` (rows per block,
    default 32), ``seed``.  No ``approxfun``: a dropped block leaves
    its rows of the solution at zero, and diagonal dominance bounds the
    damage (**D** mode).  Each task owns a copied ``chunk x chunk``
    block, so process backends marshal O(chunk^2), not O(n^2).

    Anytime surface: the state is the solution iterate ``x`` (zeros to
    start); one round is one full Jacobi sweep in row-chunk tasks, and
    a dropped chunk leaves its rows at the previous iterate — stale,
    not wrong.  The reference is the converged solve.
    """

    name = "jacobi"

    def canonical_args(self, args: dict | None) -> dict:
        args = args or {}
        canon = {
            "n": _int_arg(args, "n", 256, 16, 4096),
            "chunk": _int_arg(args, "chunk", 32, 4, 1024),
            "seed": _int_arg(args, "seed", 2015, 0, 2**31),
        }
        if canon["chunk"] > canon["n"]:
            raise ConfigError(
                f"servable arg 'chunk'={canon['chunk']} exceeds "
                f"n={canon['n']}"
            )
        return canon

    def _chunks(self, canon: dict) -> list[tuple[int, int]]:
        n, chunk = canon["n"], canon["chunk"]
        return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]

    def plan(self, args: dict | None) -> TaskPlan:
        canon = self.canonical_args(args)
        problem = JacobiProblem.generate(canon["n"], canon["seed"])
        chunk = canon["chunk"]
        return TaskPlan(
            fn=_jacobi_block,
            args_list=[
                (
                    problem.a[lo:hi, lo:hi].copy(),
                    problem.b[lo:hi].copy(),
                    i,
                )
                for i, (lo, hi) in enumerate(self._chunks(canon))
            ],
            # Listing-1-style spread in (0, 1): never forces a decision.
            significance=lambda a_block, b_chunk, idx: (
                ((idx % 9) + 1) / 10.0
            ),
            approxfun=None,
            cost=TaskCost(
                accurate=chunk * chunk * OPS_PER_ENTRY
                * _JACOBI_BLOCK_SWEEPS
            ),
        )

    def combine(self, args: dict | None, results: list) -> np.ndarray:
        canon = self.canonical_args(args)
        x = np.zeros(canon["n"])
        for (lo, hi), x_chunk in zip(self._chunks(canon), results):
            if x_chunk is not None:
                x[lo:hi] = x_chunk
        return x

    def reference(self, args: dict | None) -> np.ndarray:
        canon = self.canonical_args(args)
        problem = JacobiProblem.generate(canon["n"], canon["seed"])
        return self.combine(
            args,
            [
                _jacobi_block(
                    problem.a[lo:hi, lo:hi], problem.b[lo:hi], i
                )
                for i, (lo, hi) in enumerate(self._chunks(canon))
            ],
        )

    def quality(self, reference: Any, output: Any) -> float:
        return relative_error(reference, output)

    # -- anytime surface -------------------------------------------------
    def anytime_state(self, args: dict | None) -> np.ndarray:
        canon = self.canonical_args(args)
        return np.zeros(canon["n"])

    def anytime_plan(
        self, args: dict | None, state: np.ndarray
    ) -> TaskPlan:
        canon = self.canonical_args(args)
        problem = JacobiProblem.generate(canon["n"], canon["seed"])
        diag = np.diag(problem.a)
        chunk = canon["chunk"]
        return TaskPlan(
            fn=_jacobi_sweep_chunk,
            args_list=[
                (
                    problem.a[lo:hi, :].copy(),
                    problem.b[lo:hi].copy(),
                    diag[lo:hi].copy(),
                    state,
                    lo,
                    hi,
                )
                for lo, hi in self._chunks(canon)
            ],
            # Listing-1-style spread in (0, 1): never forces a decision.
            significance=lambda a_rows, b_chunk, diag_chunk, x, lo, hi: (
                ((lo // chunk % 9) + 1) / 10.0
            ),
            approxfun=None,
            cost=TaskCost(
                accurate=chunk * canon["n"] * OPS_PER_ENTRY
            ),
        )

    def anytime_update(
        self, args: dict | None, state: np.ndarray, results: list
    ) -> np.ndarray:
        canon = self.canonical_args(args)
        x = state.copy()
        for (lo, hi), x_chunk in zip(self._chunks(canon), results):
            if x_chunk is not None:
                x[lo:hi] = x_chunk
        return x

    def anytime_reference(self, args: dict | None) -> np.ndarray:
        # The *exact* solution, not the tolerance-truncated iterative
        # solve: the anytime iterate runs the same sweeps as the
        # iterative reference and would pass straight through it,
        # breaking the monotone quality curve at the tail.
        canon = self.canonical_args(args)
        problem = JacobiProblem.generate(canon["n"], canon["seed"])
        return np.linalg.solve(problem.a, problem.b)


# ----------------------------------------------------------------------
# K-means (drop mode)
# ----------------------------------------------------------------------
def _kmeans_chunk(points_chunk: np.ndarray, centroids: np.ndarray, idx: int):
    """Assign one point chunk to the nearest centroids; return the
    partial sums and counts of the centroid update (``idx`` rides along
    for the significance clause)."""
    diff = points_chunk[:, None, :] - centroids[None, :, :]
    dist2 = np.einsum("pkd,pkd->pk", diff, diff)
    labels = np.argmin(dist2, axis=1)
    sums = np.zeros_like(centroids)
    counts = np.zeros(len(centroids), dtype=np.int64)
    np.add.at(sums, labels, points_chunk)
    np.add.at(counts, labels, 1)
    return sums, counts


@register("servable", "kmeans")
class KmeansServable(AnytimeServable):
    """One k-means refinement step over droppable point chunks.

    Anytime surface: the state is the centroid set (maxmin seeds to
    start); one round is one Lloyd step in point-chunk tasks, and a
    dropped chunk simply doesn't vote that round.  The reference is
    converged Lloyd, so the per-round quality curve tracks distance to
    the fixed point.

    Args: ``points`` (default 1024), ``k`` (default 8), ``dims``
    (default 8), ``chunk`` (points per task, default 128), ``seed``.
    No ``approxfun``: a dropped chunk simply doesn't vote, and
    :meth:`combine` renormalizes the centroid update over the chunks
    that ran (**D** mode); a centroid left with no votes keeps its
    deterministic maxmin seed position.
    """

    name = "kmeans"

    def canonical_args(self, args: dict | None) -> dict:
        args = args or {}
        canon = {
            "points": _int_arg(args, "points", 1024, 64, 65536),
            "k": _int_arg(args, "k", 8, 2, 64),
            "dims": _int_arg(args, "dims", 8, 2, 64),
            "chunk": _int_arg(args, "chunk", 128, 16, 8192),
            "seed": _int_arg(args, "seed", 2015, 0, 2**31),
        }
        if canon["k"] > canon["points"]:
            raise ConfigError(
                f"servable arg 'k'={canon['k']} exceeds "
                f"points={canon['points']}"
            )
        return canon

    def _problem(self, canon: dict) -> KmeansProblem:
        rng = np.random.default_rng(canon["seed"])
        k, dims = canon["k"], canon["dims"]
        centers = rng.uniform(-6, 6, size=(k, dims))
        which = rng.integers(0, k, size=canon["points"])
        pts = centers[which] + rng.normal(
            0, 1.0, (canon["points"], dims)
        )
        return KmeansProblem(points=pts, k=k)

    def _chunks(self, canon: dict) -> list[tuple[int, int]]:
        n, chunk = canon["points"], canon["chunk"]
        return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]

    def plan(self, args: dict | None) -> TaskPlan:
        canon = self.canonical_args(args)
        problem = self._problem(canon)
        centroids = problem.initial_centroids
        return TaskPlan(
            fn=_kmeans_chunk,
            args_list=[
                (problem.points[lo:hi].copy(), centroids, i)
                for i, (lo, hi) in enumerate(self._chunks(canon))
            ],
            significance=lambda points_chunk, centroids, idx: (
                ((idx % 9) + 1) / 10.0
            ),
            approxfun=None,
            cost=TaskCost(
                accurate=canon["chunk"] * canon["k"] * canon["dims"]
                * OPS_PER_DIM
            ),
        )

    def combine(self, args: dict | None, results: list) -> np.ndarray:
        canon = self.canonical_args(args)
        centroids = self._problem(canon).initial_centroids
        sums = np.zeros_like(centroids)
        counts = np.zeros(canon["k"], dtype=np.int64)
        for part in results:
            if part is not None:
                s, c = part
                sums += s
                counts += c
        nonzero = counts > 0
        out = centroids.copy()
        out[nonzero] = sums[nonzero] / counts[nonzero, None]
        return out

    def reference(self, args: dict | None) -> np.ndarray:
        canon = self.canonical_args(args)
        problem = self._problem(canon)
        centroids = problem.initial_centroids
        return self.combine(
            args,
            [
                _kmeans_chunk(problem.points[lo:hi], centroids, i)
                for i, (lo, hi) in enumerate(self._chunks(canon))
            ],
        )

    def quality(self, reference: Any, output: Any) -> float:
        return relative_error(reference.ravel(), output.ravel())

    # -- anytime surface -------------------------------------------------
    def anytime_state(self, args: dict | None) -> np.ndarray:
        # The classic (poor) first-k-points seeding, NOT the batch
        # surface's maxmin seeds: maxmin lands so close to the fixed
        # point on this data that Lloyd converges in one round and the
        # anytime quality curve would be flat.
        canon = self.canonical_args(args)
        return self._problem(canon).points[: canon["k"]].copy()

    def anytime_plan(
        self, args: dict | None, state: np.ndarray
    ) -> TaskPlan:
        canon = self.canonical_args(args)
        problem = self._problem(canon)
        return TaskPlan(
            fn=_kmeans_chunk,
            args_list=[
                (problem.points[lo:hi].copy(), state, i)
                for i, (lo, hi) in enumerate(self._chunks(canon))
            ],
            significance=lambda points_chunk, centroids, idx: (
                ((idx % 9) + 1) / 10.0
            ),
            approxfun=None,
            cost=TaskCost(
                accurate=canon["chunk"] * canon["k"] * canon["dims"]
                * OPS_PER_DIM
            ),
        )

    def anytime_update(
        self, args: dict | None, state: np.ndarray, results: list
    ) -> np.ndarray:
        canon = self.canonical_args(args)
        sums = np.zeros_like(state)
        counts = np.zeros(canon["k"], dtype=np.int64)
        for part in results:
            if part is not None:
                s, c = part
                sums += s
                counts += c
        nonzero = counts > 0
        out = state.copy()
        out[nonzero] = sums[nonzero] / counts[nonzero, None]
        return out

    def anytime_reference(self, args: dict | None) -> np.ndarray:
        # Converged Lloyd from the SAME seeding as the anytime iterate
        # (first-k-points): seeding from the batch maxmin centroids
        # lands in a differently-ordered fixed point and the quality
        # curve would plateau at the permutation distance.
        canon = self.canonical_args(args)
        problem = self._problem(canon)
        centroids = self.anytime_state(args)
        for _ in range(64):
            nxt = self.anytime_update(
                args,
                centroids,
                [
                    _kmeans_chunk(problem.points[lo:hi], centroids, i)
                    for i, (lo, hi) in enumerate(self._chunks(canon))
                ],
            )
            if float(np.abs(nxt - centroids).max()) < 1e-9:
                return nxt
            centroids = nxt
        return centroids


# ----------------------------------------------------------------------
# DCT (drop mode)
# ----------------------------------------------------------------------
@register("servable", "dct")
class DctServable(ServableKernel):
    """JPEG forward DCT in droppable zigzag-band tasks.

    Args: ``size`` (image side, multiple of 8, default 64), ``seed``
    (default 2015).  One task per zigzag diagonal band ``k`` (15 for
    8x8 blocks), significance decreasing with frequency
    (:func:`~repro.kernels.dct.band_significance`).  No ``approxfun``:
    a dropped band leaves its coefficients zero — exactly a JPEG
    encoder truncating the zigzag scan (**D** mode).  Quality is the
    inverse PSNR of the decoded image against the accurate pipeline.
    """

    name = "dct"

    def canonical_args(self, args: dict | None) -> dict:
        args = args or {}
        canon = {
            "size": _int_arg(args, "size", 64, 8, 4096),
            "seed": _int_arg(args, "seed", 2015, 0, 2**31),
        }
        if canon["size"] % BLOCK:
            raise ConfigError(
                f"servable arg 'size'={canon['size']} must be a "
                f"multiple of {BLOCK}"
            )
        return canon

    def _blocks(self, canon: dict) -> np.ndarray:
        img = synthetic_image(canon["size"], canon["size"], canon["seed"])
        return blockize(img)

    def plan(self, args: dict | None) -> TaskPlan:
        canon = self.canonical_args(args)
        blocks = self._blocks(canon)
        n_blocks = blocks.shape[0]
        return TaskPlan(
            fn=dct_band_value,
            args_list=[(blocks, k) for k in range(N_BANDS)],
            significance=lambda blocks, k: band_significance(k),
            approxfun=None,
            cost=lambda blocks, k: band_cost(n_blocks, k),
        )

    def combine(self, args: dict | None, results: list) -> np.ndarray:
        canon = self.canonical_args(args)
        size = canon["size"]
        n_blocks = (size // BLOCK) ** 2
        coeffs = np.zeros((n_blocks, BLOCK, BLOCK))
        for k, band in enumerate(results):
            if band is None:
                continue
            for j, (u, v) in enumerate(band_coefficients(k)):
                coeffs[:, u, v] = band[:, j]
        return reconstruct(coeffs, size, size)

    def reference(self, args: dict | None) -> np.ndarray:
        canon = self.canonical_args(args)
        blocks = self._blocks(canon)
        return self.combine(
            args,
            [dct_band_value(blocks, k) for k in range(N_BANDS)],
        )

    def quality(self, reference: Any, output: Any) -> float:
        return inverse_psnr(reference, output)


# ----------------------------------------------------------------------
# Fluidanimate (approximate-task mode)
# ----------------------------------------------------------------------
def _sph_chunk_value(
    pos: np.ndarray,
    vel: np.ndarray,
    rho: np.ndarray,
    lo: int,
    hi: int,
) -> tuple:
    """Accurate SPH update of particles ``lo:hi`` (value-returning
    wrapper around the benchmark's in-place chunk body)."""
    from ..kernels.fluidanimate import FluidState, sph_chunk_accurate

    old = FluidState(pos=pos, vel=vel, rho=rho)
    new = old.copy()
    sph_chunk_accurate(new, old, lo, hi)
    return new.pos[lo:hi], new.vel[lo:hi], new.rho[lo:hi]


def _sph_chunk_value_ballistic(
    pos: np.ndarray,
    vel: np.ndarray,
    rho: np.ndarray,
    lo: int,
    hi: int,
) -> tuple:
    """Approximate body: the paper's ballistic extrapolation."""
    from ..kernels.fluidanimate import FluidState, sph_chunk_ballistic

    old = FluidState(pos=pos, vel=vel, rho=rho)
    new = old.copy()
    sph_chunk_ballistic(new, old, lo, hi)
    return new.pos[lo:hi], new.vel[lo:hi], new.rho[lo:hi]


@register("servable", "fluidanimate", "fluid")
class FluidanimateServable(ServableKernel):
    """One SPH timestep of the dam-break scene, in particle-chunk
    tasks — the last Table 1 kernel promoted to the servable registry.

    Args: ``particles`` (default 192), ``chunk`` (particles per task,
    default 32), ``seed``.  Approximated chunks run the paper's
    ballistic extrapolation (``x += v * dt`` — **A** mode), exactly the
    benchmark's approximate timestep, task-granular instead of
    step-granular.  The job output is the new particle position array;
    quality is its relative error against the fully accurate step.  A
    task omitted by a fault leaves its chunk at the previous positions
    (stale, not wrong).
    """

    name = "fluidanimate"

    def canonical_args(self, args: dict | None) -> dict:
        args = args or {}
        canon = {
            "particles": _int_arg(args, "particles", 192, 16, 4096),
            "chunk": _int_arg(args, "chunk", 32, 4, 1024),
            "seed": _int_arg(args, "seed", 2015, 0, 2**31),
        }
        if canon["chunk"] > canon["particles"]:
            raise ConfigError(
                f"servable arg 'chunk'={canon['chunk']} exceeds "
                f"particles={canon['particles']}"
            )
        return canon

    def _state(self, canon: dict):
        from ..kernels.fluidanimate import FluidState

        return FluidState.dam_break(canon["particles"], canon["seed"])

    def _chunks(self, canon: dict) -> list[tuple[int, int]]:
        n, chunk = canon["particles"], canon["chunk"]
        return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]

    def plan(self, args: dict | None) -> TaskPlan:
        from ..kernels.fluidanimate import (
            UNIFORM_SIGNIFICANCE,
            sph_chunk_cost,
        )

        canon = self.canonical_args(args)
        state = self._state(canon)
        return TaskPlan(
            fn=_sph_chunk_value,
            # Tasks share the (read-only) previous-step arrays; each
            # returns only its own chunk's slices.
            args_list=[
                (state.pos, state.vel, state.rho, lo, hi)
                for lo, hi in self._chunks(canon)
            ],
            significance=UNIFORM_SIGNIFICANCE,
            approxfun=_sph_chunk_value_ballistic,
            cost=sph_chunk_cost(canon["chunk"], canon["particles"]),
        )

    def combine(self, args: dict | None, results: list) -> np.ndarray:
        canon = self.canonical_args(args)
        state = self._state(canon)
        pos = state.pos.copy()
        for (lo, hi), part in zip(self._chunks(canon), results):
            if part is not None:
                pos[lo:hi] = part[0]
        return pos

    def reference(self, args: dict | None) -> np.ndarray:
        from ..kernels.fluidanimate import fluid_reference

        canon = self.canonical_args(args)
        return fluid_reference(
            self._state(canon), steps=1, chunk=canon["chunk"]
        ).pos

    def quality(self, reference: Any, output: Any) -> float:
        return relative_error(reference, output)


def get_servable(spec: Any) -> ServableKernel:
    """Resolve a servable kernel by registry spec (or pass instances)."""
    kernel = resolve("servable", spec)
    if not isinstance(kernel, ServableKernel):
        raise ConfigError(
            f"servable spec {spec!r} resolved to "
            f"{type(kernel).__name__}, not a ServableKernel"
        )
    return kernel


def servable_names() -> list[str]:
    """Registered servable kernel names."""
    return registry_for("servable").names()
