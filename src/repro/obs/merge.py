"""Merging per-worker run records into one fleet record.

The serving runtime records each dispatched shard in the worker that
executed it; the parent stitches those shard records into a single
:class:`~repro.obs.record.RunRecord` that is schema-identical to a
single-process run over the whole batch — same ``repro.obs/run/v1``
stamp, one sequence observation per original batch position, additive
timing/simulated/cache totals. Downstream consumers (``trace
summarize``/``diff``, the schema validator) need not know a fleet ran.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.obs.record import RunRecord


def merge_run_records(
    records: list[RunRecord],
    label: str = "fleet",
    reindex: bool = False,
    allow_varying_seq_length: bool = False,
    allow_varying_config: bool = False,
    group_cache_by_label: bool = False,
) -> RunRecord:
    """Merge shard records into one run record.

    Args:
        records: One record per shard. ``mode``/``spec``/``config`` must
            agree across shards (they describe the same deployment); the
            merged record inherits them. ``seq_length`` must also agree
            unless ``allow_varying_seq_length`` is set.
        label: Label of the merged record.
        reindex: Renumber sequence observations (and their kernel events)
            consecutively in the given record order. Leave ``False`` when
            the producers already stamped original batch positions, as
            the runtime workers do.
        allow_varying_seq_length: Permit shards with differing
            ``seq_length`` — the streaming runtime's per-tick records
            carry each tick's chunk length there, and one serving window
            merges ticks of many chunk lengths. The merged record takes
            the maximum. Timing keys still sum key-wise, which is what
            gives the merged record its total ``queue_wait_s``
            attribution.
        allow_varying_config: Permit shards with differing ``config`` —
            multi-tenant windows merge ticks of many tenants (different
            alphas, precisions, models), and an SLO controller changes a
            tenant's configuration mid-window. The merged config keeps
            only the keys every record agrees on and lists the disputed
            key names under ``"varied"``. ``mode`` is allowed to differ
            too (the merged record takes the first); a zoo legitimately
            mixes BASELINE and INTRA tenants.
        group_cache_by_label: Namespace each record's cache counters by
            its label before summing — key ``plan_hits`` of a record
            labelled ``tenantA`` lands as ``tenantA/plan_hits``. This is
            what gives a merged multi-tenant record its per-tenant cache
            hit/miss attribution while staying inside the open
            ``str -> number`` cache mapping of ``repro.obs/run/v1``.

    Returns:
        The merged record, with sequences sorted by ``seq_index``.
    """
    if not records:
        raise ConfigurationError("cannot merge an empty list of run records")
    first = records[0]
    shared_attrs = ["spec"]
    if not allow_varying_config:
        shared_attrs.append("mode")
    if not allow_varying_seq_length:
        shared_attrs.append("seq_length")
    for other in records[1:]:
        for attr in shared_attrs:
            if getattr(other, attr) != getattr(first, attr):
                raise ConfigurationError(
                    f"cannot merge run records with differing {attr}: "
                    f"{getattr(first, attr)!r} vs {getattr(other, attr)!r}"
                )
        if not allow_varying_config and other.config != first.config:
            raise ConfigurationError("cannot merge run records with differing config")
    if allow_varying_config:
        merged_config: dict = {}
        varied: list[str] = []
        keys: list[str] = []
        for record in records:
            for key in record.config:
                if key not in keys:
                    keys.append(key)
        for key in keys:
            values = [record.config.get(key) for record in records]
            if all(value == values[0] for value in values[1:]):
                merged_config[key] = values[0]
            else:
                varied.append(key)
        if varied:
            merged_config["varied"] = varied
    else:
        merged_config = dict(first.config)

    sequences = []
    kernels = []
    timing: dict[str, float] = {}
    simulated: dict[str, float] = {}
    cache: dict[str, int] | None = None
    offset = 0
    for record in records:
        mapping: dict[int, int] = {}
        for seq in record.sequences:
            if reindex:
                mapping[seq.seq_index] = offset
                seq.seq_index = offset
                offset += 1
            sequences.append(seq)
        for event in record.kernels:
            if reindex and event.seq_index in mapping:
                event.seq_index = mapping[event.seq_index]
            kernels.append(event)
        for key, value in record.timing.items():
            timing[key] = timing.get(key, 0.0) + value
        for key, value in record.simulated.items():
            simulated[key] = simulated.get(key, 0.0) + value
        if record.cache is not None:
            if cache is None:
                cache = {}
            for key, value in record.cache.items():
                if group_cache_by_label:
                    key = f"{record.label or '(unlabelled)'}/{key}"
                cache[key] = cache.get(key, 0) + value
    sequences.sort(key=lambda seq: seq.seq_index)
    kernels.sort(key=lambda event: (event.seq_index, event.index))
    return RunRecord(
        label=label,
        mode=first.mode,
        spec=first.spec,
        batch=sum(record.batch for record in records),
        seq_length=(
            max(record.seq_length for record in records)
            if allow_varying_seq_length
            else first.seq_length
        ),
        config=merged_config,
        timing=timing,
        simulated=simulated,
        cache=cache,
        sequences=sequences,
        kernels=kernels,
    )
