"""Execution-plan records.

The executor separates *numerics* from *timing*: while it runs the exact
arithmetic of an optimized execution, it records — per sequence, per layer —
the structural decisions the optimizations made (breakpoints, tissue
composition, rows skipped). The :mod:`repro.core.trace_builder` later turns
these records into the GPU kernel trace that the timing simulator consumes.
This mirrors the paper's own methodology (Fig. 13): PyTorch produces the
breakpoints and trivial-row counts, DeepBench replays them on the board.

Two cache layers sit on top of these records: the :class:`PlanCache` here
memoizes layer 0's *structural* pipeline (relevance arrays and layer plans,
content-addressed by weights + token ids), and the :class:`~repro.core.
program.ProgramCache` memoizes the *executable* lowering of a layer at one
shape. Plans are run-time inputs to those programs: a
:class:`CachedLayerPlan` carries its tissue schedule as index vectors, so
one combined-mode program walks any mix of plans.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import itertools
import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError, PlanError

if TYPE_CHECKING:
    from repro.core.tissue import Tissue
    from repro.nn.lstm_cell import LSTMCellWeights


def warp_skip_fractions(masks: np.ndarray, warp_size: int = 32) -> np.ndarray:
    """Fraction of *rows* living in all-trivial warps, per mask.

    A software-only DRS skips a warp only when every row in it is trivial
    (the whole warp exits at the branch). Each warp is weighted by its real
    lane count, so when ``H`` is not a multiple of the warp size the
    trailing partial warp contributes only its actual rows (a 16-lane tail
    warp of a 48-row layer is 16/48 of the rows, not 1/2 of the warps).
    This keeps the warp-level fraction <= the row-level skip fraction — the
    invariant the software-DRS divergence model in :mod:`repro.gpu.cta`
    relies on.

    Args:
        masks: Boolean array ``(..., H)``, ``True`` = trivial row.
        warp_size: Rows per warp (row-per-thread mapping).
    Returns:
        Array of shape ``masks.shape[:-1]``.
    """
    hidden = masks.shape[-1]
    n_warps = -(-hidden // warp_size)
    padded = np.ones(masks.shape[:-1] + (n_warps * warp_size,), dtype=bool)
    padded[..., :hidden] = masks
    whole = padded.reshape(masks.shape[:-1] + (n_warps, warp_size)).all(axis=-1)
    lanes = np.full(n_warps, warp_size, dtype=float)
    lanes[-1] = hidden - (n_warps - 1) * warp_size
    return (whole * lanes).sum(axis=-1) / hidden


@dataclass(eq=False, slots=True)
class LayerPlanRecord:
    """Structural record of one layer's execution for one sequence: the
    tissue schedule it ran plus what DRS measured per tissue.

    Everything else is read off those: the stepwise modes run the shared
    :func:`single_cell_plan` (one cell per tissue, no relevance), INTER and
    COMBINED their planned schedule. The two statistics are float64 views
    into one per-layer array (read-only; a run's records share it), so a
    record holds no per-cell Python objects and pickles as it is.

    Attributes:
        plan: The executed tissue schedule.
        skip: Per-tissue fraction of ``U_{f,i,c}`` rows skipped by the
            tissue's shared load (the intersection mask; 0 when DRS is off).
        warp: Per-tissue fraction of rows in *entirely* trivial warps —
            what a software-only DRS can skip without divergence
            (:func:`warp_skip_fractions`).
    """

    layer_index: int
    hidden_size: int
    input_size: int
    plan: CachedLayerPlan
    skip: np.ndarray
    warp: np.ndarray

    @property
    def seq_length(self) -> int:
        """Cells in the layer (the schedule covers each exactly once)."""
        return self.plan.ts.size

    @property
    def breakpoints(self) -> list[int]:
        """Timestamps where the layer divides (empty: one sub-layer)."""
        return list(self.plan.breakpoints)

    @property
    def sublayer_lengths(self) -> list[int]:
        """Every sub-layer's cell count, in order."""
        return self.plan.sublayer_lengths()

    @property
    def relevance(self) -> np.ndarray | None:
        """Per-timestep relevance (``None`` in the stepwise modes)."""
        return self.plan.relevance

    @property
    def num_sublayers(self) -> int:
        """Number of independent sub-layers after division."""
        return self.plan.num_sublayers

    @property
    def num_tissues(self) -> int:
        """Number of tissues (equals cell count when the inter level is off)."""
        return self.plan.num_tissues

    @property
    def tissue_sizes(self) -> np.ndarray:
        """Cells fused per tissue, in schedule order."""
        return np.diff(self.plan.offsets)

    def tissue_cells(self) -> list[list[tuple[int, int]]]:
        """Per-tissue ``(sub-layer, timestamp)`` lists."""
        return self.plan.tissue_cells()

    # The means add Python floats left to right in schedule order: numpy's
    # pairwise sum would round differently, and dispatches slower than
    # ~100 additions.

    @property
    def mean_tissue_size(self) -> float:
        """Average number of cells fused per tissue."""
        return self.seq_length / self.num_tissues if self.num_tissues else 0.0

    @property
    def mean_skip_fraction(self) -> float:
        """Cell-weighted average skipped-row fraction."""
        if not self.num_tissues:
            return 0.0
        return sum((self.skip * self.tissue_sizes).tolist()) / self.seq_length

    @property
    def mean_warp_skip_fraction(self) -> float:
        """Plain average warp-skip fraction across tissues."""
        if not self.num_tissues:
            return 0.0
        return sum(self.warp.tolist()) / self.num_tissues

    def validate(self) -> None:
        """Internal consistency checks (used by tests)."""
        plan, seq_len = self.plan, self.seq_length
        if not np.array_equal(np.sort(plan.ts), np.arange(seq_len)):
            raise PlanError(
                f"layer {self.layer_index}: tissues do not cover each of "
                f"the {seq_len} cells once"
            )
        lengths = np.diff((0, *plan.breakpoints, seq_len))
        own_sub = np.searchsorted(plan.breakpoints, plan.ts, side="right")
        if (lengths < 1).any() or not np.array_equal(plan.subs, own_sub):
            raise PlanError(f"layer {self.layer_index}: cells disagree with the breakpoints")
        sizes = self.tissue_sizes
        if plan.offsets[0] != 0 or plan.offsets[-1] != seq_len or (sizes < 1).any():
            raise PlanError(f"layer {self.layer_index}: tissue extents are inconsistent")
        if self.skip.shape != sizes.shape or self.warp.shape != sizes.shape:
            raise PlanError(f"layer {self.layer_index}: need one statistic per tissue")


@dataclass(frozen=True, slots=True)
class CachedLayerPlan:
    """One layer's structural plan for one sequence, as cached/reused.

    This is the *input-side* half of a :class:`LayerPlanRecord`: the
    record adds the skip statistics measured while it executed; the plan
    holds only what can be decided *before* execution —
    relevance, breakpoints, sub-layers, and the aligned tissue schedule —
    which is exactly the part that is identical across repeated runs of the
    same sequence under the same configuration.

    The tissue schedule is held as three index vectors, the form the
    combined-mode programs walk: they are built once with the plan, and a
    cached plan keeps no per-cell or per-sub-layer Python objects alive
    (the division is the breakpoints; its lengths are derived on demand).
    A fresh-token server adds plans that never hit, so what an entry
    weighs is what a busy server's cache weighs.

    Attributes:
        relevance: Per-timestep relevance ``S`` of shape ``(T,)``. Marked
            read-only when served from a :class:`PlanCache` because many
            plans/records may share it; ``None`` in :func:`single_cell_plan`.
        breakpoints: Sorted timestamps where the layer divides (none ->
            one sub-layer).
        subs: Sub-layer index of every cell, flattened in schedule order.
        ts: Timestamp of every cell, same order.
        offsets: Tissue extents into ``subs`` / ``ts``
            (``num_tissues + 1`` entries).
    """

    relevance: np.ndarray | None
    breakpoints: tuple[int, ...]
    subs: np.ndarray
    ts: np.ndarray
    offsets: np.ndarray

    @classmethod
    def from_schedule(
        cls,
        relevance: np.ndarray | None,
        breakpoints: Sequence[int],
        tissues: Sequence["Tissue"],
    ) -> "CachedLayerPlan":
        """Freeze one planned (MTS-aligned) tissue schedule."""
        cells = [cell for tissue in tissues for cell in tissue.cells]
        subs, ts = np.asarray(cells, dtype=np.int64).reshape(-1, 2).T
        offsets = np.zeros(len(tissues) + 1, dtype=np.int64)
        np.cumsum([len(tissue.cells) for tissue in tissues], out=offsets[1:])
        return cls(
            relevance=relevance,
            breakpoints=tuple(breakpoints),
            subs=np.ascontiguousarray(subs),
            ts=np.ascontiguousarray(ts),
            offsets=offsets,
        )

    @classmethod
    def from_relevance(
        cls, relevance: np.ndarray, seq_len: int, alpha_inter: float, mts: int
    ) -> "CachedLayerPlan":
        """Plan one sequence from its relevance in arrays: the breakpoints
        (``S < alpha_inter``), each timestep's sub-layer and each cell's
        tissue — its place in its sub-layer while the sub-layers fit one
        tissue, else longest remaining sub-layer first, ties by index. Byte
        for byte :meth:`from_schedule` of ``align_tissues(divide_layer())``."""
        cuts = np.flatnonzero(relevance[1:] < alpha_inter) + 1 if alpha_inter > 0 else np.arange(0)
        edges = np.concatenate(([0], cuts, [seq_len]))
        lengths = np.diff(edges)
        chain = np.repeat(np.arange(lengths.size), lengths)
        if lengths.size <= mts:
            step = np.arange(seq_len) - edges[chain]
        else:
            heap = [(-n, c) for c, n in enumerate(lengths.tolist())]
            heapq.heapify(heap)
            runs: list[list[int]] = [[] for _ in heap]
            for tissue in itertools.count():
                for neg, c in [heapq.heappop(heap) for _ in range(min(mts, len(heap)))]:
                    runs[c].append(tissue)
                    if neg < -1:
                        heapq.heappush(heap, (neg + 1, c))
                if not heap:
                    break
            step = np.fromiter(itertools.chain.from_iterable(runs), np.int64, seq_len)
        ts = np.argsort(step, kind="stable")
        offsets = np.zeros(int(step.max()) + 2, dtype=np.int64)
        np.cumsum(np.bincount(step), out=offsets[1:])
        return cls(relevance, tuple(cuts.tolist()), chain[ts], ts, offsets)

    @property
    def num_tissues(self) -> int:
        """Number of tissues in the schedule."""
        return len(self.offsets) - 1

    @property
    def num_sublayers(self) -> int:
        """Number of sub-layers the breakpoints divide the layer into."""
        return len(self.breakpoints) + 1

    def sublayer_lengths(self) -> list[int]:
        """Every sub-layer's cell count, in order."""
        return np.diff((0, *self.breakpoints, self.ts.size)).tolist()

    def tissue_cells(self) -> list[list[tuple[int, int]]]:
        """The schedule as fresh per-tissue ``(sub-layer, timestamp)`` lists."""
        cells = list(zip(self.subs.tolist(), self.ts.tolist()))
        extents = self.offsets.tolist()
        return [cells[lo:hi] for lo, hi in zip(extents, extents[1:])]


@functools.lru_cache(maxsize=64)
def single_cell_plan(seq_len: int) -> CachedLayerPlan:
    """The stepwise modes' schedule at length ``seq_len``: one undivided
    sub-layer, one cell per tissue in time order, no relevance. One
    read-only instance per length serves every record."""
    plan = CachedLayerPlan(
        relevance=None,
        breakpoints=(),
        subs=np.zeros(seq_len, dtype=np.int64),
        ts=np.arange(seq_len, dtype=np.int64),
        offsets=np.arange(seq_len + 1, dtype=np.int64),
    )
    for array in (plan.subs, plan.ts, plan.offsets):
        array.setflags(write=False)
    return plan


def wave_schedule(plans: Sequence[CachedLayerPlan], seq_len: int):
    """Lay a batch's tissue schedules out wave by wave.

    Wave ``w`` holds the ``w``-th tissue of every plan that has one:
    tissues of different sequences are independent and a sequence's own
    tissues run in schedule order, so one wave's tissues can execute
    together. Inside a wave the tissues keep sequence order and each
    tissue's cells are one contiguous run of rows. This is the order
    combined-mode programs walk (the *walk order*).

    Rows address flat arrays: cell ``(s, t)`` of sequence ``b`` reads its
    projection and writes its output at row ``b * T + t``, and keeps its
    recurrent state at row ``chains[b] + s`` — the batch's sub-layers
    (*chains*) numbered consecutively, sequence by sequence.

    Returns ``(waves, rank, chains, num_chains)``. ``rank[j]`` is the walk
    position of tissue ``j`` in sequence-major schedule order (sequence
    0's tissues, then sequence 1's, …); ``chains[b]`` is the state row of
    sequence ``b``'s first sub-layer (the one that starts from zeros, not
    from the predicted link). Each wave is a tuple

    ``(out_rows, state_rows, tissues, starts, tissue_of_row, link_rows)``

    of its rows' output and state row indices, its tissues' walk
    positions as a ``slice``, each tissue's first wave-local row, each
    row's tissue as a walk position, and the wave-local rows that start a
    sub-layer from the predicted link (a chain's first cell, except each
    sequence's first chain).
    """
    base = (np.arange(len(plans)) * seq_len).tolist()
    chain_counts = [plan.num_sublayers for plan in plans]
    chain_ends = np.cumsum(chain_counts)
    chains = chain_ends - chain_counts
    # One entry per tissue, sequence-major. Every plan covers its T cells
    # exactly once, so sequence b's cells sit at [b * T, (b + 1) * T) of
    # the concatenated per-cell vectors.
    first = np.concatenate([b + plan.offsets[:-1] for b, plan in zip(base, plans)])
    sizes = np.concatenate([np.diff(plan.offsets) for plan in plans])
    wave = np.concatenate([np.arange(plan.num_tissues) for plan in plans])
    order = np.argsort(wave, kind="stable")  # ties stay in sequence order
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    first, sizes, wave = first[order], sizes[order], wave[order]
    row_end = np.cumsum(sizes)
    row_start = row_end - sizes
    # The concatenated ranges first[j] .. first[j] + sizes[j], in walk order.
    cells = np.repeat(first - row_start, sizes) + np.arange(row_end[-1])
    out_rows = np.concatenate([b + plan.ts for b, plan in zip(base, plans)])[cells]
    state_rows = np.concatenate([c + plan.subs for c, plan in zip(chains, plans)])[cells]
    tissue_of_row = np.repeat(np.arange(order.size), sizes)
    # A chain's cells are walked in time order, so its first row in walk
    # order is its first cell; np.unique lists chains 0, 1, … in order.
    first_cell = np.unique(state_rows, return_index=True)[1]
    first_cell[chains] = -1
    link_rows = np.sort(first_cell[first_cell >= 0])

    wave_starts = np.flatnonzero(np.diff(wave)) + 1
    bounds = [0, *wave_starts.tolist(), order.size]
    first_rows, end_rows = row_start.tolist(), row_end.tolist()
    link_cuts = np.searchsorted(link_rows, first_rows + [int(row_end[-1])]).tolist()
    waves = []
    for lo, hi in zip(bounds, bounds[1:]):
        r0, r1 = first_rows[lo], end_rows[hi - 1]
        waves.append(
            (
                out_rows[r0:r1],
                state_rows[r0:r1],
                slice(lo, hi),
                row_start[lo:hi] - r0,
                tissue_of_row[r0:r1],
                link_rows[link_cuts[lo] : link_cuts[hi]] - r0,
            )
        )
    return waves, rank, chains, int(chain_ends[-1])


@dataclass
class PlanCacheStats:
    """Hit/miss counters of one :class:`PlanCache`."""

    relevance_hits: int = 0
    relevance_misses: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    evictions: int = 0

    @property
    def relevance_requests(self) -> int:
        """Total relevance lookups."""
        return self.relevance_hits + self.relevance_misses

    @property
    def plan_requests(self) -> int:
        """Total plan lookups."""
        return self.plan_hits + self.plan_misses

    @property
    def relevance_hit_rate(self) -> float:
        """Fraction of relevance lookups served from cache."""
        total = self.relevance_requests
        return self.relevance_hits / total if total else 0.0

    @property
    def plan_hit_rate(self) -> float:
        """Fraction of plan lookups served from cache."""
        total = self.plan_requests
        return self.plan_hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        """Flat dict form (for JSON export and the bench reports)."""
        return {
            "relevance_hits": self.relevance_hits,
            "relevance_misses": self.relevance_misses,
            "relevance_hit_rate": self.relevance_hit_rate,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "plan_hit_rate": self.plan_hit_rate,
            "evictions": self.evictions,
        }


def fingerprint_array(array: np.ndarray) -> str:
    """Content fingerprint of one ndarray (dtype + shape + bytes).

    The digest reads the array's own buffer; only a non-contiguous view
    is staged into a contiguous copy first.
    """
    arr = np.ascontiguousarray(array)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(arr.dtype).encode())
    digest.update(str(arr.shape).encode())
    digest.update(arr)
    return digest.hexdigest()


def fingerprint_weights(weights: "LSTMCellWeights") -> str:
    """Content fingerprint of one layer's cell weights, memoized.

    The digest covers every gate's ``W``, ``U``, and ``b`` — anything that
    can change a relevance value or a gate pre-activation. It is memoized on
    the weights object (weights are immutable at inference time), so the
    hashing cost is paid once per layer per process, not once per run.
    """
    cached = getattr(weights, "_plan_fingerprint", None)
    if cached is not None:
        return cached
    from repro.nn.lstm_cell import GATE_ORDER

    digest = hashlib.blake2b(digest_size=16)
    for gate in GATE_ORDER:
        for mat in (weights.gate_w(gate), weights.gate_u(gate), weights.gate_b(gate)):
            # Row slices of the row-major blocks: hashed where they lie.
            digest.update(np.ascontiguousarray(mat))
    fingerprint = digest.hexdigest()
    weights._plan_fingerprint = fingerprint
    return fingerprint


def fingerprint_input_weights(weights: "LSTMCellWeights") -> str:
    """Content fingerprint of one layer's input-projection block ``W``
    alone (:func:`fingerprint_array` of it), memoized on the weights object
    like :func:`fingerprint_weights` and dropped with it. Layer 0's
    projected token rows depend on the embedding and ``W`` only, so the
    token memo keys on this: ZERO_PRUNE, which prunes ``U`` but keeps
    ``W``, shares the dense modes' rows."""
    cached = getattr(weights, "_w_fingerprint", None)
    if cached is None:
        cached = weights._w_fingerprint = fingerprint_array(weights.w)
    return cached


def fingerprint_embedding(network) -> str:
    """Content fingerprint of a network's embedding table, memoized on the
    network like the per-layer digests (and dropped with them by
    :func:`invalidate_weight_fingerprints`)."""
    cached = getattr(network, "_embedding_fingerprint", None)
    if cached is None:
        cached = network._embedding_fingerprint = fingerprint_array(network.embedding)
    return cached


def invalidate_weight_fingerprints(network) -> None:
    """Drop the memoized digests after a weight mutation.

    :func:`fingerprint_weights`, :func:`fingerprint_input_weights` and
    :func:`fingerprint_embedding` memoize
    on the objects they hash under the inference-time immutability
    assumption. An in-place weight edit breaks it: it rewrites the arrays
    under the memo (a ``deepcopy`` of the network clones the memo too) and
    would leave :func:`fingerprint_network` reporting the stale digest.
    Every mutating path must call this before re-fingerprinting; it is
    also what tells :class:`~repro.core.pipeline.OptimizedLSTM` that its
    kept executors and the layer-0 token memo are out of date.
    """
    if hasattr(network, "_embedding_fingerprint"):
        del network._embedding_fingerprint
    for layer in network.layers:
        for memo in ("_plan_fingerprint", "_w_fingerprint"):
            if hasattr(layer.weights, memo):
                delattr(layer.weights, memo)


def fingerprint_network(network) -> str:
    """Content fingerprint of a whole :class:`~repro.nn.network.LSTMNetwork`.

    Combines the embedding table, every layer's cell-weight fingerprint
    (:func:`fingerprint_weights`), and the head parameters — anything that
    can change a logit bit. The zoo keys its executors on this digest, so
    tenants over networks of equal content share one executor and tenants
    over different ones never collide.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(fingerprint_array(network.embedding).encode())
    for layer in network.layers:
        digest.update(fingerprint_weights(layer.weights).encode())
    digest.update(fingerprint_array(network.head_weight).encode())
    digest.update(fingerprint_array(network.head_bias).encode())
    return digest.hexdigest()


class TokenRowMemo:
    """Layer-0 projections of the last call's distinct tokens, one call deep.

    The exact input projection lifts every token to its own GEMV, so a
    token's projected row is a function of the token id, the embedding and
    ``W`` alone. A call therefore projects each *distinct* id once, and a
    sweep that runs the same tokens under several modes projects them in
    the first mode only; every later mode gathers. The memo holds exactly
    one entry — the rows of one call's distinct ids, ``distinct x 4H``
    doubles — keyed on the embedding and ``W`` content: ZERO_PRUNE, which
    shares ``W``, hits; a quantized ``W``, another network or a weight
    update replaces the entry. A call whose ids are all present leaves the
    entry alone; otherwise the call's own rows (carried over or freshly
    projected) replace it, so the bound never grows past one call. Per-row
    scores (layer 0's relevance) ride with their rows, one array per score
    key, so no id is scored twice under a key.

    Entries are immutable once stored, so concurrent callers only race
    for which entry survives, never for its contents.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entry: tuple | None = None  # key, ids, slots, rows, {score key: (values, known)}
        #: Token rows projected so far (each is four gate GEMVs).
        self.projected = 0

    def clear(self) -> None:
        """Drop the entry (the counter is kept)."""
        with self._lock:
            self._entry = None

    @property
    def nbytes(self) -> int:
        """Bytes of the entry: one call's distinct ids, their slots, their
        ``(4, distinct, H)`` projected rows and their scores."""
        with self._lock:
            entry = self._entry
        arrays = [] if entry is None else [*entry[1:4], *sum(entry[4].values(), ())]
        return sum(array.nbytes for array in arrays)

    def lookup(
        self,
        key: Hashable,
        tokens: np.ndarray,
        hidden: int,
        project: Callable[[np.ndarray, np.ndarray], None],
        score: tuple[Hashable, Callable[[np.ndarray], np.ndarray]] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Projected rows for a ``(B, T)`` token batch.

        Returns ``(rows, index, values)``: ``rows`` is ``(4, n, H)`` in gate
        order and ``rows[g][index]`` is gate ``g``'s ``(B, T, H)`` projection.
        ``project(ids, out)`` fills ``out`` — ``(4, 1, m, H)`` — with the
        projections of the ``m`` ids the previous call did not leave behind.
        With ``score = (score_key, fn)``, ``values[index]`` holds the scores
        (else ``None``); ``fn`` maps ``(4, m, H)`` rows to ``(m,)``, row by row.
        """
        ids, inverse = np.unique(tokens, return_inverse=True)
        inverse = inverse.reshape(tokens.shape)
        if ids.size == 0:  # an empty batch projects nothing and displaces nothing
            return np.empty((4, 0, hidden)), inverse, None
        with self._lock:
            entry = self._entry
        hit = np.zeros(ids.size, dtype=bool)
        if entry is not None and entry[0] == key:
            pos = np.minimum(np.searchsorted(entry[1], ids), entry[1].size - 1)
            hit = entry[1][pos] == ids
        if hit.all():
            index = entry[2][pos][inverse]
        else:
            # This call's rows: the ids carried over first, then the new
            # ones, which project straight into their (contiguous) slab.
            carried = int(np.count_nonzero(hit))
            slots = np.empty(ids.size, dtype=np.intp)
            slots[hit] = np.arange(carried)
            slots[~hit] = np.arange(carried, ids.size)
            rows = np.empty((4, ids.size, hidden))
            scores = {}
            if carried:
                source = entry[2][pos[hit]]
                for old_gate, gate in zip(entry[3], rows):
                    np.take(old_gate, source, axis=0, out=gate[:carried], mode="clip")
                for score_key, (values, known) in entry[4].items():
                    scores[score_key] = tuple(
                        np.pad(old[source], (0, ids.size - carried)) for old in (values, known)
                    )
            project(ids[~hit], rows[:, None, carried:])
            entry, index = (key, ids, slots, rows, scores), slots[inverse]
            with self._lock:
                self.projected += ids.size - carried
                self._entry = entry
        if score is None:
            return entry[3], index, None
        score_key, fn = score
        unscored = np.zeros(entry[1].size)
        values, known = entry[4].get(score_key, (unscored, unscored.astype(bool)))
        if not known.all():
            # From the first unscored row (rescoring is byte-equal), 64 cache-resident rows a pass.
            values = values.copy()
            for lo in range(int(np.argmin(known)), known.size, 64):
                values[lo : lo + 64] = fn(entry[3][:, lo : lo + 64])
            entry = entry[:4] + ({**entry[4], score_key: (values, np.ones_like(known))},)
            with self._lock:
                self._entry = entry
        return entry[3], index, values


#: A conservative weight of one sequence's cached layer-0 plan at serving
#: geometry (BABI, ``T = 86``; ~5 KB measured): 2.4 KB of arrays — the
#: relevance array and the plan's three index vectors, what
#: :attr:`PlanCache.nbytes` counts — plus the two keys and the containers
#: around them.
_PLAN_ENTRY_BYTES = 6 * 1024

#: Default bound of each :class:`PlanCache` store: what 24 MiB hold. A
#: fresh-token request adds ``B`` entries (layer 0's; deeper layers are
#: not cached) that never hit again, so the bound is what a long-lived
#: server's cache weighs; a threshold sweep's reuse distance (every
#: sequence of an application, times its eleven threshold sets) stays well
#: inside it.
_DEFAULT_MAX_ENTRIES = (24 << 20) // _PLAN_ENTRY_BYTES


class PlanCache:
    """Memoizes layer 0's per-sequence structural planning across executions.

    Planning a sequence costs a relevance pass (Algorithm 2) plus a
    breakpoint search and an LPT tissue alignment — and the benchmark
    harness re-executes the *same* token batches under dozens of
    (mode, threshold) configurations. Only layer 0, whose input is a
    function of the token ids, is cached: a deeper layer's key would be a
    digest of its input, costing about the pass it saves in traffic that
    never repeats. The cache splits the work at its reuse boundaries:

    * **relevance** is keyed on ``(weights fingerprint, (embedding
      fingerprint, token ids), exact-variant flag)`` — it does not depend
      on any threshold, so one entry serves every threshold set of a sweep;
    * **plans** (breakpoints + sub-layers + aligned tissues) are keyed on
      the relevance key extended with ``(alpha_inter, MTS)`` — the full
      configuration that determines the structural schedule.

    Both stores are LRU maps bounded at ``max_entries`` each; hit/miss
    counters are kept in :attr:`stats` and rendered by
    :func:`repro.bench.reporting.format_cache_stats`, the bytes the entries
    keep alive are counted by :attr:`nbytes`. A shared instance is carried by
    :class:`repro.core.pipeline.OptimizedLSTM` and (session-wide) by
    :class:`repro.bench.harness.ExperimentContext`.

    Thread-safe with *single-flight* builds: the in-process dispatcher
    (:mod:`repro.core.parallel`) runs equal-plan shards concurrently, and
    a relevance pass is exactly the kind of work that must not duplicate.
    On a cold key, one thread becomes the build leader and computes
    outside the lock; peers requesting the same key park on an event and
    are served the stored value as hits. Miss counters therefore count
    *distinct builds* — the property ``bench_parallel``'s cold-start gate
    asserts.
    """

    def __init__(self, max_entries: int = _DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ConfigurationError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._relevance: OrderedDict[Hashable, np.ndarray] = OrderedDict()
        self._plans: OrderedDict[Hashable, CachedLayerPlan] = OrderedDict()
        self._lock = threading.Lock()
        self._pending: dict[Hashable, threading.Event] = {}
        self.stats = PlanCacheStats()
        #: Layer-0 projected token rows, shared by every executor wired to
        #: this cache (not counted by ``len``: it is one entry, not a store).
        self.token_rows = TokenRowMemo()

    def __len__(self) -> int:
        with self._lock:
            return len(self._relevance) + len(self._plans)

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the two stores keep alive — every relevance
        array, every plan's index vectors — an array a plan shares with
        the relevance store counted once. The token-row memo reports its
        own. Walks both stores: a ledger read, not a hot-path one."""
        with self._lock:
            relevance, plans = list(self._relevance.values()), list(self._plans.values())
        arrays = {id(array): array.nbytes for array in relevance}
        for plan in plans:
            for array in (plan.relevance, plan.subs, plan.ts, plan.offsets):
                arrays[id(array)] = array.nbytes
        return sum(arrays.values())

    def clear(self) -> None:
        """Drop every entry (counters are kept; see :meth:`reset_stats`)."""
        with self._lock:
            self._relevance.clear()
            self._plans.clear()
        self.token_rows.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss counters."""
        self.stats = PlanCacheStats()

    def relevance(
        self, key: Hashable, compute: Callable[[], np.ndarray]
    ) -> np.ndarray:
        """Cached relevance lookup; ``compute`` runs only on a miss."""

        def build() -> np.ndarray:
            value = np.asarray(compute())
            value.setflags(write=False)  # shared across plans and records
            return value

        return self._single_flight(
            self._relevance, key, build, "relevance_hits", "relevance_misses"
        )

    def layer_plan(
        self,
        plan_key: Hashable,
        relevance_key: Hashable,
        compute_relevance: Callable[[], np.ndarray],
        build_plan: Callable[[np.ndarray], CachedLayerPlan],
    ) -> CachedLayerPlan:
        """Cached plan lookup with relevance-level fallthrough.

        On a plan miss, the relevance store is consulted (and filled) before
        ``build_plan`` runs — so sweeping thresholds over the same batch
        misses the plan store but still reuses every relevance array.
        """

        def build() -> CachedLayerPlan:
            # Leader-only: the nested relevance lookup runs outside the
            # cache lock, so it takes its own single-flight round.
            return build_plan(self.relevance(relevance_key, compute_relevance))

        return self._single_flight(
            self._plans, plan_key, build, "plan_hits", "plan_misses"
        )

    def _single_flight(
        self,
        store: OrderedDict,
        key: Hashable,
        build: Callable[[], object],
        hit_attr: str,
        miss_attr: str,
    ):
        """Locked lookup; on a cold key one leader builds, peers wait.

        The build runs with the lock *released* (relevance passes are the
        expensive part), guarded by a per-key pending event. Waiters loop
        back after the event fires and take the stored value as a hit —
        or, if the leader's build raised, one of them becomes the next
        leader. Miss counters count distinct completed builds.
        """
        while True:
            with self._lock:
                hit = store.get(key)
                if hit is not None:
                    store.move_to_end(key)
                    setattr(self.stats, hit_attr, getattr(self.stats, hit_attr) + 1)
                    return hit
                event = self._pending.get(key)
                if event is None:
                    event = threading.Event()
                    self._pending[key] = event
                    break  # this thread leads the build
            event.wait()
        try:
            value = build()
        except BaseException:
            with self._lock:
                self._pending.pop(key, None)
            event.set()
            raise
        with self._lock:
            setattr(self.stats, miss_attr, getattr(self.stats, miss_attr) + 1)
            self._store(store, key, value)
            self._pending.pop(key, None)
        event.set()
        return value

    def _store(self, store: OrderedDict, key: Hashable, value) -> None:
        # Callers hold self._lock.
        store[key] = value
        store.move_to_end(key)
        while len(store) > self.max_entries:
            store.popitem(last=False)
            self.stats.evictions += 1


@dataclass
class SequencePlan:
    """Per-sequence execution plan: one record per layer."""

    layers: list[LayerPlanRecord]

    @property
    def total_breakpoints(self) -> int:
        """Breakpoints found across all layers."""
        return sum(len(rec.breakpoints) for rec in self.layers)

    @property
    def mean_tissue_size(self) -> float:
        """Layer-averaged mean tissue size."""
        if not self.layers:
            return 0.0
        return float(np.mean([rec.mean_tissue_size for rec in self.layers]))

    @property
    def mean_skip_fraction(self) -> float:
        """Layer-averaged mean skipped-row fraction."""
        if not self.layers:
            return 0.0
        return float(np.mean([rec.mean_skip_fraction for rec in self.layers]))
