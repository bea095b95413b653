"""Connected components over candidate-pair graphs — the step that
turns near-dup PAIRS into dedup DECISIONS (cluster ids / keep lists).

Algorithm: distributed min-label propagation (the standard iterative
BSP formulation, cf. the public large-star/small-star literature —
Kiveris et al., "Connected Components in MapReduce and Beyond",
SoCC'14).  Each node's label starts as its own id; every round each
node takes the min of its label and its neighbors' labels; at
convergence label(v) = min node id of v's component.

Scale shape: one round = two bucketed co-group shuffles (the same
union + ``state.exchange`` pattern as stages/dedup.py's signature
attach — no ``Dataset.join``), both exchanging only (int64, int64)
rows.  Rounds needed = graph diameter; near-dup graphs built with the
star-linked hot-bucket policy (dedup.py) have tiny diameters by
construction.  Labels are materialized once per round (block-level)
so the lineage doesn't re-execute; convergence is detected by the
label-sum aggregate (labels are non-increasing, so an unchanged sum
⇔ a fixed point), which moves ONE scalar to the driver per round.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from ..state.exchange import exchange, key_buckets
from ..state.sizing import row_count


def _sym_edges(batch: pa.Table) -> pa.Table:
    """(doc_a, doc_b) pairs → symmetric (node, nbr) rows."""
    a = batch.column("doc_a").to_numpy(zero_copy_only=False).astype(np.int64)
    b = batch.column("doc_b").to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table({
        "node": pa.array(np.concatenate([a, b]), pa.int64()),
        "nbr": pa.array(np.concatenate([b, a]), pa.int64()),
    })


def _label_rows(batch: pa.Table, *, num_buckets: int) -> pa.Table:
    """labels (doc_id, label) → co-group rows keyed by doc_id."""
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    n = len(batch)
    return pa.table({
        "bucket": pa.array(key_buckets(ids, num_buckets=num_buckets)),
        "key": batch.column("doc_id").cast(pa.int64()),
        "other": pa.nulls(n, pa.int64()),
        "src": pa.array(np.zeros(n, dtype=np.int8)),
        "val": batch.column("label").cast(pa.int64()),
    })


def _edge_rows(batch: pa.Table, *, num_buckets: int) -> pa.Table:
    """symmetric edges → co-group rows keyed by the NEIGHBOR (whose
    label each edge wants to read)."""
    nbr = batch.column("nbr").to_numpy(zero_copy_only=False)
    n = len(batch)
    return pa.table({
        "bucket": pa.array(key_buckets(nbr, num_buckets=num_buckets)),
        "key": batch.column("nbr").cast(pa.int64()),
        "other": batch.column("node").cast(pa.int64()),
        "src": pa.array(np.ones(n, dtype=np.int8)),
        "val": pa.nulls(n, pa.int64()),
    })


def _attach_nbr_label(group: pa.Table) -> pa.Table:
    """Co-group 1: label rows (src=0) + edge rows keyed by nbr (src=1)
    → message rows (node, candidate label) via index_in/take."""
    src = group.column("src")
    lab = group.filter(pa.compute.equal(src, 0))
    edge = group.filter(pa.compute.equal(src, 1))
    empty = pa.table({"node": pa.array([], pa.int64()),
                      "label": pa.array([], pa.int64())})
    if lab.num_rows == 0 or edge.num_rows == 0:
        return empty
    idx = pa.compute.index_in(edge.column("key"),
                              value_set=lab.column("key"))
    found = pa.compute.is_valid(idx)
    edge = edge.filter(found)
    if edge.num_rows == 0:
        return empty
    return pa.table({
        "node": edge.column("other"),
        "label": pa.compute.take(lab.column("val").combine_chunks(),
                                 idx.filter(found)),
    })


def _min_label_rows(batch: pa.Table, *, id_col: str, own: int,
                    num_buckets: int) -> pa.Table:
    """(id_col, label) → co-group 2 rows keyed by the node id: message
    rows (own=0) and the node's own label (own=1, the anchor)."""
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    return pa.table({
        "bucket": pa.array(key_buckets(ids, num_buckets=num_buckets)),
        "doc_id": batch.column(id_col).cast(pa.int64()),
        "label": batch.column("label").cast(pa.int64()),
        "own": pa.array(np.full(len(batch), own, dtype=np.int8)),
    })


def _min_label_group(group: pa.Table) -> pa.Table:
    """Co-group 2: per node, min over (own label ∪ neighbor labels) —
    vectorized Arrow group_by aggregate inside the bucket.  Only ids
    ANCHORED by an own-label row survive: edges can name ids that are
    not in nodes_ds, and emitting labels for them would make the
    cogroup plan's output diverge from the broadcast plan's (which
    filters unknown targets) — the node table defines the universe."""
    t = pa.table({"doc_id": group.column("doc_id"),
                  "label": group.column("label"),
                  "own": group.column("own")})
    out = t.group_by("doc_id").aggregate([("label", "min"),
                                          ("own", "max")])
    anchored = pa.compute.equal(out.column("own_max"), 1)
    out = out.filter(anchored)
    return pa.table({"doc_id": out.column("doc_id"),
                     "label": out.column("label_min")})


def _cc_broadcast(pairs_ds, nodes_ds, *, max_iters: int):
    """Broadcast-label plan for graphs whose NODE set fits in a
    broadcast (labels ≈ 16 B/node): edges stay distributed and
    unbounded; each round ships the label map once (``ray.put``), edge
    blocks emit per-block PARTIAL min-label candidates (combined
    in-block, so the exchange is bounded by nodes-per-block, not
    edges), and one native hash aggregate reduces them.  Per round:
    1 map + 1 aggregate instead of the co-group plan's two sort-based
    shuffles — ~2-3x faster at small/mid scale, identical output."""
    import ray
    import ray.data

    edges_ds = pairs_ds.map_batches(
        _sym_edges, batch_format="pyarrow").materialize()
    edges_refs = edges_ds.to_arrow_refs()
    # per-round reduction plan: partial_min already combines in-block,
    # so for modest edge counts the driver can merge the per-block
    # partials DIRECTLY — zero all-to-all per round (the groupby was
    # the only per-round shuffle, ~2-3 s fixed wall each at small
    # scale).  Worst case driver traffic per round = sum of per-block
    # unique nodes ≤ 2 x edges; above the cap (≈256 MB of partial
    # rows) keep the native hash aggregate so the driver pull stays
    # node-bounded.  edges_ds.count() is block metadata — free.
    direct_merge = edges_ds.count() <= 16_000_000
    # node ids as one numpy array (bounded by the plan gate ≈ 16 B/node;
    # a take_all() of row dicts would cost ~500 B/node in Python objects)
    parts = [ray.get(r) for r in nodes_ds.to_arrow_refs()]
    # np.unique sorts AND dedupes: duplicate doc_ids in nodes_ds would
    # otherwise keep a stale shadow row (searchsorted only ever
    # updates the leftmost occurrence) and emit contradictory
    # cluster assignments for the same doc
    keys = np.unique(np.concatenate(
        [t.column("doc_id").to_numpy(zero_copy_only=False)
         for t in parts if t.num_rows] or
        [np.array([], dtype=np.int64)]).astype(np.int64))
    vals = keys.copy()                      # label(v) starts as v

    def partial_min(batch: pa.Table, *, labels_ref) -> pa.Table:
        k, lab = ray.get(labels_ref)
        if len(k) == 0:                # no nodes: nothing to label
            return pa.table({"node": pa.array([], pa.int64()),
                             "label": pa.array([], pa.int64())})
        node = batch.column("node").to_numpy(zero_copy_only=False)
        nbr = batch.column("nbr").to_numpy(zero_copy_only=False)
        idx = np.searchsorted(k, nbr)
        idx = np.clip(idx, 0, len(k) - 1)
        valid = k[idx] == nbr
        v = node[valid]
        cand = lab[idx[valid]]
        uniq, inv = np.unique(v, return_inverse=True)
        mins = np.full(len(uniq), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(mins, inv, cand)
        return pa.table({
            "node": pa.array(uniq, pa.int64()),
            "label": pa.array(mins, pa.int64()),
        })

    for _ in range(max_iters):
        labels_ref = ray.put((keys, vals))
        partials = ray.data.from_arrow_refs(edges_refs).map_batches(
            functools.partial(partial_min, labels_ref=labels_ref),
            batch_format="pyarrow")
        if direct_merge:
            agg, min_col = partials, "label"
        else:
            agg, min_col = partials.groupby("node").min("label"), \
                "min(label)"
        changed = False
        for blk in agg.to_arrow_refs():
            t = ray.get(blk)
            if t.num_rows == 0:
                continue
            n = t.column("node").to_numpy(zero_copy_only=False)
            c = t.column(min_col).to_numpy(zero_copy_only=False)
            pos = np.clip(np.searchsorted(keys, n), 0, len(keys) - 1)
            known = keys[pos] == n          # edges may name unknown nodes
            pos, c = pos[known], c[known]
            better = c < vals[pos]
            if better.any():
                vals[pos[better]] = c[better]
                changed = True
        if changed:
            # driver-side pointer jumping (shortcutting, cf. the
            # SoCC'14 CC-in-MapReduce family): a label is a node id
            # whose OWN label may be smaller — composing label∘label
            # is pure vectorized driver work and collapses chains, so
            # the distributed rounds track ~log(diameter), not
            # diameter
            while True:
                nxt = vals[np.searchsorted(keys, vals)]
                if (nxt == vals).all():
                    break
                vals = nxt
        if not changed:
            out = pa.table({
                "doc_id": pa.array(keys, pa.int64()),
                "cluster_id": pa.array(vals, pa.int64()),
            })
            return ray.data.from_arrow(out)
    raise RuntimeError(
        f"connected_components did not converge in {max_iters} rounds")


def connected_components(pairs_ds, nodes_ds, *, num_partitions: int = 16,
                         max_iters: int = 50, plan: str = "auto",
                         broadcast_max_nodes: int = 4_000_000):
    """(doc_a, doc_b) pairs + (doc_id) nodes → (doc_id, cluster_id)
    where cluster_id = min doc_id of the connected component.

    ``plan``: cost-based like stages/dedup.py — ``"auto"`` picks
    ``"broadcast"`` (labels shipped once per round, edges distributed;
    1 map + 1 hash aggregate per round) when the NODE count is at most
    ``broadcast_max_nodes`` (≈64 MB of labels), else ``"cogroup"``
    (below), whose exchanges never materialize the label set anywhere
    central — the only shape that survives 10^12 nodes.

    Loop engineering (all measured, see tests): each round's labels
    are pinned as concrete Arrow block refs (``to_arrow_refs`` after a
    ``repartition(num_partitions)``) — the repartition is load-bearing
    TWICE over: (a) it severs the logical plan so round k+1 never
    re-executes round k's lineage, and (b) it coalesces the empty
    passthrough blocks that map operators skip-and-forward; without
    it the block count DOUBLES per round (3 → 7 → … → 2^k) and
    scheduling cost grows exponentially.  Convergence = unchanged
    label sum (labels only decrease), computed from per-block Arrow
    sums — one scalar per block to the driver, never the rows.

    ``max_iters`` bounds the rounds at graph diameter; raises if not
    converged (densify with star edges — stages/dedup.py's hot-bucket
    policy already does — or raise the cap)."""
    import ray
    import ray.data

    if plan == "auto":
        nodes_ds, n_nodes = row_count(nodes_ds, "connected_components")
        plan = ("broadcast" if n_nodes <= broadcast_max_nodes
                else "cogroup")
    if plan == "broadcast":
        return _cc_broadcast(pairs_ds, nodes_ds, max_iters=max_iters)

    edges_refs = pairs_ds.map_batches(
        _sym_edges, batch_format="pyarrow").to_arrow_refs()
    labels_refs = nodes_ds.map_batches(
        lambda t: pa.table({
            "doc_id": t.column("doc_id").cast(pa.int64()),
            "label": t.column("doc_id").cast(pa.int64()),
        }),
        batch_format="pyarrow").repartition(num_partitions).to_arrow_refs()

    @ray.remote
    def _block_sum(tbl: pa.Table) -> int:
        if tbl.num_rows == 0:
            return 0
        return int(pa.compute.sum(tbl.column("label")).as_py() or 0)

    def label_sum(refs) -> int:
        return sum(ray.get([_block_sum.remote(r) for r in refs]))

    prev_sum = label_sum(labels_refs)
    for _ in range(max_iters):
        labels = ray.data.from_arrow_refs(labels_refs)
        edges = ray.data.from_arrow_refs(edges_refs)
        lab_rows = labels.map_batches(
            functools.partial(_label_rows, num_buckets=num_partitions),
            batch_format="pyarrow")
        edge_rows = edges.map_batches(
            functools.partial(_edge_rows, num_buckets=num_partitions),
            batch_format="pyarrow")
        msgs = exchange(lab_rows.union(edge_rows), _attach_nbr_label,
                        num_partitions=num_partitions)
        all_rows = msgs.map_batches(
            functools.partial(_min_label_rows, id_col="node", own=0,
                              num_buckets=num_partitions),
            batch_format="pyarrow").union(
            ray.data.from_arrow_refs(labels_refs).map_batches(
                functools.partial(_min_label_rows, id_col="doc_id", own=1,
                                  num_buckets=num_partitions),
                batch_format="pyarrow"))
        labels_refs = exchange(all_rows, _min_label_group,
                               num_partitions=num_partitions) \
            .repartition(num_partitions).to_arrow_refs()
        cur = label_sum(labels_refs)
        if cur == prev_sum:
            return ray.data.from_arrow_refs(labels_refs).map_batches(
                lambda t: t.rename_columns(["doc_id", "cluster_id"]),
                batch_format="pyarrow")
        prev_sum = cur
    raise RuntimeError(
        f"connected_components did not converge in {max_iters} rounds")


def _star_group(group: pa.Table, *, id_col: str) -> pa.Table:
    ids = np.sort(group.column(id_col).to_numpy(zero_copy_only=False)
                  .astype(np.int64))
    if len(ids) < 2:
        return pa.table({"doc_a": pa.array([], pa.int64()),
                         "doc_b": pa.array([], pa.int64())})
    return pa.table({
        "doc_a": pa.array(np.full(len(ids) - 1, ids[0]), pa.int64()),
        "doc_b": pa.array(ids[1:], pa.int64()),
    })


def star_edges(ds, key_col: str, *, id_col: str = "doc_id",
               num_partitions: int | None = None):
    """Equivalence-class edges from a grouping key: each group with
    more than one member emits (min_id, member) star edges — linear in
    group size, same components as the quadratic clique."""
    import functools
    gb = (ds.groupby(key_col, num_partitions=num_partitions)
          if num_partitions else ds.groupby(key_col))
    return gb.map_groups(functools.partial(_star_group, id_col=id_col),
                         batch_format="pyarrow")


def cluster_keepers(clusters_ds):
    """(doc_id, cluster_id) → the dedup keep list: one row per cluster,
    keeper = min doc_id (== cluster_id by construction)."""
    return clusters_ds.filter(expr="doc_id == cluster_id")
