"""The parallel experiment runner.

:class:`ExperimentRunner` fans independent work units out over a
pluggable backend and streams the results back **in deterministic
submission order**.  Combined with the central seed-spawning discipline
of :mod:`repro.exec.seeding`, every backend — including ``process`` —
produces bit-identical results for the same root seed.
"""

from __future__ import annotations

import logging
import math
import os
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exec.backends import (
    ExecutionBackend,
    SerialBackend,
    WorkUnit,
    default_chunk_size,
    get_backend,
)
from repro.exec.resilience import RetryPolicy
from repro.exec.seeding import SeedLike, spawn_sequences
from repro.telemetry.core import (
    current as _current_telemetry,
    metric_gauge,
    metric_inc,
    trace,
)

_LOG = logging.getLogger(__name__)


def _call_with_generator(fn: Callable[..., Any], *args: Any) -> Any:
    """Build the unit's generator worker-side and invoke ``fn``.

    The last argument is the unit's seed: its own spawned
    ``SeedSequence``, or the shared ``Generator``, which
    ``default_rng`` hands back unchanged.  Module-level so the
    ``process`` backend can pickle it.
    """
    *head, seed = args
    return fn(*head, np.random.default_rng(seed))


def validate_batch_args(
    replications: Any, batch_size: Optional[Any] = None
) -> None:
    """Shared argument validation for every replication entry point.

    :func:`replicate` calls it, so ``AttackCampaign.run_batch*``,
    ``SANSimulator.batch``, ``MeasurementPlan`` and the
    :class:`ExperimentRunner` replication methods all reject the same
    arguments with the same messages.

    Raises:
        TypeError: If ``replications`` or ``batch_size`` is not an
            integer (bools are rejected too).
        ValueError: If ``replications < 1`` or ``batch_size < 1``.
    """
    if isinstance(replications, bool) or not isinstance(
        replications, (int, np.integer)
    ):
        raise TypeError(
            f"replications must be an integer, got {replications!r}"
        )
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    if batch_size is None:
        return
    if isinstance(batch_size, bool) or not isinstance(
        batch_size, (int, np.integer)
    ):
        raise TypeError(f"batch_size must be an integer, got {batch_size!r}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")


def batch_unit_sizes(replications: int, batch_size: int) -> List[int]:
    """Lane counts per batch unit: full batches plus a ragged tail."""
    sizes = [batch_size] * (replications // batch_size)
    remainder = replications % batch_size
    if remainder:
        sizes.append(remainder)
    return sizes


def shares_generator(seed: SeedLike, runner: Optional[Any]) -> bool:
    """Whether a call runs in the legacy shared-generator mode: a
    :class:`~numpy.random.Generator` passed without a runner."""
    return runner is None and isinstance(seed, np.random.Generator)


def run_units(
    fn: Callable[..., Any],
    unit_args: Sequence[Tuple[Any, ...]],
    seed: SeedLike = None,
    runner: Optional["ExperimentRunner"] = None,
    *,
    share: bool = True,
    on_result: Optional[Callable[[int, Any], None]] = None,
    cancel: Optional[Any] = None,
    collect: bool = True,
) -> List[Any]:
    """The replication loop: ``fn(*args, unit_seed)`` per unit, in order.

    The seeding decision is made here, once per call:

    * **shared** — ``share`` is set and :func:`shares_generator` holds:
      every unit receives ``seed`` itself and draws from it in
      submission order (the library's historical streams);
    * **spawned** — otherwise unit ``i`` receives the ``i``-th child
      :class:`~numpy.random.SeedSequence` of ``seed``, spawned centrally
      before dispatch (a ``Generator`` contributes one draw to derive
      the root).

    With a ``runner`` the units go through :meth:`ExperimentRunner.map`
    and any backend; without one they run in this process on the serial
    backend's loop.  Either way results come back in submission order
    and ``on_result(index, result)``/``cancel``/``collect`` behave as
    on :meth:`ExperimentRunner.map`.
    """
    if share and shares_generator(seed, runner):
        # repro: allow[SEED002] legacy shared-generator contract
        seeds: Sequence[Any] = [seed] * len(unit_args)
    else:
        seeds = spawn_sequences(seed, len(unit_args)) if unit_args else []
    units = [(*args, unit_seed) for args, unit_seed in zip(unit_args, seeds)]
    if runner is not None:
        return runner.map(
            fn, units, on_result=on_result, cancel=cancel, collect=collect
        )
    return SerialBackend().run(
        [WorkUnit(index=i, fn=fn, args=args) for i, args in enumerate(units)],
        1,
        1,
        on_result=on_result,
        cancel=cancel,
        collect=collect,
    )


def replicate(
    fn: Callable[..., Any],
    replications: int,
    seed: SeedLike = None,
    runner: Optional["ExperimentRunner"] = None,
    *,
    common_args: Tuple[Any, ...] = (),
    batch_size: Optional[int] = None,
    shared_batches: bool = False,
    on_result: Optional[Callable[[int, Any], None]] = None,
    cancel: Optional[Any] = None,
    collect: bool = True,
) -> List[Any]:
    """Run ``replications`` replications of ``fn`` through :func:`run_units`.

    Scalar units are called as ``fn(*common_args, rng)``, one per
    replication.  With ``batch_size`` the replications split into
    ``ceil(R / batch_size)`` batch units — full batches plus a ragged
    tail — called as ``fn(*common_args, size, rng)``; hooks then observe
    one unit (one batch) per call.  Batch units spawn their seeds even
    from a shared generator unless ``shared_batches`` is set, so
    ``batch_size=1`` units receive exactly the scalar path's spawned
    seeds.

    Raises:
        TypeError: If ``replications`` or ``batch_size`` is not an
            integer.
        ValueError: If either is ``< 1``.
    """
    validate_batch_args(replications, batch_size)
    if batch_size is None:
        unit_args = [(fn, *common_args)] * replications
    else:
        unit_args = [
            (fn, *common_args, size)
            for size in batch_unit_sizes(replications, batch_size)
        ]
    return run_units(
        _call_with_generator,
        unit_args,
        seed,
        runner,
        share=batch_size is None or shared_batches,
        on_result=on_result,
        cancel=cancel,
        collect=collect,
    )


class ExperimentRunner:
    """Deterministic fan-out of independent experiment work units.

    Args:
        backend: ``"serial"`` (default), ``"thread"``, ``"process"``, or
            an :class:`~repro.exec.backends.ExecutionBackend` instance.
        n_workers: Pool width for parallel backends; defaults to
            ``os.cpu_count()``.  Ignored by ``serial``.
        chunk_size: Units dispatched per pool task.  Defaults to
            ``ceil(n_units / (4 * n_workers))`` — big enough to amortise
            dispatch overhead, small enough to load-balance.  Chunking
            **never** affects results, only scheduling.
        retry: Optional :class:`~repro.exec.resilience.RetryPolicy`
            governing transient-failure retries, the per-chunk watchdog
            and pool-death handling.  Retried units re-run with their
            original spawned seeds, so resilience never affects
            results.  ``None`` keeps legacy fail-fast worker-error
            semantics (pool deaths are still survived).
        fault_plan: Optional :class:`~repro.faults.FaultPlan` injecting
            seeded faults at the execution gates — chaos testing only,
            never part of the spec digest.

    Guarantees:

    * **Ordered results** — ``map``/``run_replications`` return results
      in submission order regardless of completion order.
    * **Backend-invariant randomness** — replication ``i`` draws from a
      generator seeded by the ``i``-th child of the root
      :class:`~numpy.random.SeedSequence`, spawned centrally before
      dispatch.  ``serial``, ``thread`` and ``process`` therefore yield
      bit-identical records for the same seed, as do different
      ``n_workers``/``chunk_size`` choices.

    Choosing a backend / worker count:

    * Pure-Python simulation loops (attack campaigns, SAN runs) are
      CPU-bound: use ``process`` with ``n_workers`` ≈ physical cores.
    * Latency-bound or GIL-releasing units: use ``thread``; workers can
      exceed core count.
    * Debugging, tiny batches, or non-picklable work (closures over a
      shared generator): use ``serial``.

    Example:
        >>> import numpy as np
        >>> runner = ExperimentRunner(backend="thread", n_workers=2)
        >>> draws = runner.run_replications(
        ...     lambda rng: float(rng.random()), 4, seed=7
        ... )
        >>> draws == ExperimentRunner().run_replications(
        ...     lambda rng: float(rng.random()), 4, seed=7
        ... )
        True
    """

    def __init__(
        self,
        backend: Union[str, ExecutionBackend] = "serial",
        n_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[Any] = None,
    ) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.backend = get_backend(backend)
        self.n_workers = n_workers or (os.cpu_count() or 1)
        self.chunk_size = chunk_size
        self.retry = retry
        self.fault_plan = fault_plan

    @property
    def backend_name(self) -> str:
        """The resolved backend's registry name."""
        return self.backend.name

    def map(
        self,
        fn: Callable[..., Any],
        args_list: Sequence[Tuple[Any, ...]],
        on_result: Optional[Callable[[int, Any], None]] = None,
        cancel: Optional[Any] = None,
        collect: bool = True,
    ) -> List[Any]:
        """Run ``fn(*args)`` for every argument tuple, results in order.

        With the ``process`` backend, ``fn``, the arguments and the
        results must all be picklable.

        Args:
            fn: The work function.
            args_list: One positional-argument tuple per unit.
            on_result: Optional progress hook, called in the
                coordinating thread as ``on_result(index, result)`` for
                every completed unit (pool backends call it as chunks
                are collected).
            cancel: Optional cancellation event (``is_set()`` protocol,
                e.g. :class:`threading.Event`); once set, the batch
                raises :class:`~repro.exec.backends.ExecutionCancelled`
                instead of completing.  Neither hook affects results.
            collect: With ``collect=False`` results flow only through
                ``on_result`` (still in submission order) and an empty
                list is returned — the coordinator holds no per-unit
                state, which is what keeps million-unit streaming
                batches on bounded memory.
        """
        units = [
            WorkUnit(index=i, fn=fn, args=tuple(args))
            for i, args in enumerate(args_list)
        ]
        chunk = self.chunk_size or default_chunk_size(
            len(units), self.n_workers
        )
        n_chunks = math.ceil(len(units) / chunk) if units else 0
        _LOG.debug(
            "dispatching %d units in %d chunks on %s (%d workers)",
            len(units), n_chunks, self.backend.name, self.n_workers,
        )
        telemetry = _current_telemetry()
        with trace("exec.map"):
            metric_inc("exec.dispatches")
            metric_inc("exec.units", len(units))
            metric_inc("exec.chunks", n_chunks)
            metric_gauge("exec.n_workers", self.n_workers)
            return self.backend.run(
                units,
                self.n_workers,
                chunk,
                on_result=on_result,
                cancel=cancel,
                collect=collect,
                telemetry=telemetry,
                retry=self.retry,
                fault_plan=self.fault_plan,
            )

    def run_replications(
        self,
        fn: Callable[..., Any],
        replications: int,
        seed: SeedLike = None,
        common_args: Tuple[Any, ...] = (),
        on_result: Optional[Callable[[int, Any], None]] = None,
        cancel: Optional[Any] = None,
        collect: bool = True,
    ) -> List[Any]:
        """Run ``replications`` independent calls of ``fn``.

        ``fn`` is invoked as ``fn(*common_args, rng)`` where ``rng`` is
        a fresh :class:`~numpy.random.Generator` seeded from the
        ``i``-th spawned child of ``seed`` — see the class docstring for
        the invariance guarantees.

        Args:
            fn: Replication body; receives the generator as its last
                positional argument.
            replications: Number of independent replications.
            seed: Root seed (``None``, int, ``SeedSequence``, or a
                ``Generator`` to derive the root from).
            common_args: Leading arguments passed to every call (must be
                picklable for the ``process`` backend).
            on_result / cancel / collect: Progress, cancellation and
                streaming knobs — see :meth:`map`.

        Raises:
            TypeError: If ``replications`` is not an integer.
            ValueError: If ``replications < 1``.
        """
        return replicate(
            fn,
            replications,
            seed,
            self,
            common_args=common_args,
            on_result=on_result,
            cancel=cancel,
            collect=collect,
        )

    def run_batched_replications(
        self,
        fn: Callable[..., Any],
        replications: int,
        batch_size: int,
        seed: SeedLike = None,
        common_args: Tuple[Any, ...] = (),
        on_result: Optional[Callable[[int, Any], None]] = None,
        cancel: Optional[Any] = None,
        collect: bool = True,
    ) -> List[Any]:
        """Run ``replications`` lanes as batch work units of ``batch_size``.

        The replication count is split into ``ceil(R / batch_size)``
        units — full batches plus a ragged tail — and each unit receives
        its own centrally-spawned seed, exactly like
        :meth:`run_replications` does per replication.  ``fn`` is
        invoked as ``fn(*common_args, size, rng)`` and should advance
        ``size`` lanes on the unit's generator, returning their results
        as a sequence.  Batch units compose with every backend and with
        the ``on_result``/``cancel``/``collect=False`` streaming knobs
        (hooks observe one *unit* — i.e. one batch — per call).

        With ``batch_size=1`` the spawned seed per unit is identical to
        :meth:`run_replications`'s seed per replication, which is what
        lets single-lane batch engines pin bit-exactness against the
        scalar path.

        Raises:
            TypeError: If ``replications`` or ``batch_size`` is not an
                integer.
            ValueError: If either is ``< 1``.
        """
        return replicate(
            fn,
            replications,
            seed,
            self,
            common_args=common_args,
            batch_size=batch_size,
            on_result=on_result,
            cancel=cancel,
            collect=collect,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExperimentRunner(backend={self.backend.name!r}, "
            f"n_workers={self.n_workers}, chunk_size={self.chunk_size})"
        )
