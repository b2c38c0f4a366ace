"""Token-budgeted domain-mixture selection — the data-mixing step a
pretraining
pipeline runs between curation and packing (public recipe shape:
DoReMi / The Pile / LLaMA report domain weights): given per-domain
TOKEN budgets, select documents per domain in a deterministic seeded
priority order until each budget fills.

(Sibling operator: ``ops/textstats.sample_mixture`` selects by
per-group DOC-COUNT quotas with the same hash-rank idea; this module
is the TOKEN-budget form — named ``sample_token_budget`` so the two
cannot be confused.)

Scale design: one vectorized ``map_batches`` pass computes
``(id, domain, n_tokens, priority)`` (ids + small ints only — document
text never shuffles), then ONE ``groupby(domain)`` resolves each
domain's selection with a vectorized sort + cumulative-sum cut.  The
selected-id table is selection-sized and streams; nothing corpus-sized
reaches the driver.  Domains are the natural partition unit; a single
mega-domain co-locates in one group, but the group rows are 24-byte
tuples, not documents (1 B docs of one domain ≈ 24 GB spread over the
group's task — split budgets by domain shard if a real corpus
concentrates harder than that).

Determinism contract (mirrors the engine's train/val split + minhash
dual-kernel pattern): ``hash_fn="splitmix"`` (default) uses the fast
64-bit mix for production; ``hash_fn="md5"`` is bit-reproducible in
DuckDB (``('0x' || substr(md5(seed || ':' || id), 1, 8))::BIGINT``),
so the registry query's oracle recomputes the ENTIRE selection —
priorities, per-domain cumulative sums and the budget cut — in SQL.

Selection rule: within a domain, order by ``(priority, id)`` and keep
a document iff the cumulative token count INCLUDING it stays within
the budget (``SUM(...) OVER (... ROWS UNBOUNDED PRECEDING) <=
budget`` — the SQL-window form).  Later documents that would still fit
are NOT back-filled: the rule is a deterministic prefix cut, not a
knapsack, which keeps both engines trivially identical and the
selection stable under corpus appends (new docs only ever displace
docs with worse priority).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data


def _priorities(ids: np.ndarray, seed: int, hash_fn: str) -> np.ndarray:
    if hash_fn == "md5":
        # DuckDB-reproducible: high-32 of md5("{seed}:{id}") — same
        # family as the doc_train_val_split oracle
        return np.fromiter(
            (
                int(hashlib.md5(f"{seed}:{int(i)}".encode()).hexdigest()[:8], 16)
                for i in ids
            ),
            dtype=np.int64,
            count=len(ids),
        )
    if hash_fn == "splitmix":
        k = ids.astype(np.uint64) ^ np.uint64(seed * 0x9E3779B97F4A7C15 % (1 << 64))
        k *= np.uint64(0xBF58476D1CE4E5B9)
        k ^= k >> np.uint64(27)
        k *= np.uint64(0x94D049BB133111EB)
        k ^= k >> np.uint64(31)
        return (k >> np.uint64(1)).astype(np.int64)  # non-negative
    raise ValueError(f"unknown hash_fn {hash_fn!r} (splitmix|md5)")


def sample_token_budget(
    ds: "ray.data.Dataset",
    token_budgets: dict,
    id_col: str = "doc_id",
    domain_col: str = "domain",
    text_col: str = "text",
    count_col: "str | None" = None,
    seed: int = 7,
    hash_fn: str = "splitmix",
) -> "ray.data.Dataset":
    """Select docs per domain up to each domain's token budget.

    ``token_budgets`` maps domain value → max total tokens; domains not
    in the mapping contribute NOTHING (an explicit empty budget — the
    common "drop this source entirely" mixing decision).  Token counts
    come from ``count_col`` when given (precomputed, e.g. learned-BPE
    pieces) else whitespace tokens of ``text_col`` (the
    ``doc_token_counts`` rule, so the md5 variant stays SQL-exact).

    Returns a Dataset of ``(id_col, domain_col, n_tokens)`` for the
    selected documents.
    """
    if not token_budgets:
        raise ValueError("token_budgets must name at least one domain")
    if hash_fn not in ("splitmix", "md5"):
        # validate at CALL time — inside the map task it would surface
        # as an opaque RayTaskError after the pipeline starts
        raise ValueError(f"unknown hash_fn {hash_fn!r} (splitmix|md5)")
    budgets = {k: int(v) for k, v in token_budgets.items()}
    # plan-time metadata: preserve the domain column's Arrow type end
    # to end (an int64 source_id domain must not be forced to string).
    # Ray's Schema wrapper exposes names/types, not pyarrow .field(),
    # and pandas-backed datasets report NUMPY dtypes / python types —
    # normalize to an Arrow DataType
    _schema = ds.schema()
    _raw = dict(zip(_schema.names, _schema.types))[domain_col]
    if isinstance(_raw, pa.DataType):
        dom_type = _raw
    else:
        try:
            dom_type = pa.from_numpy_dtype(np.dtype(_raw))
        except (TypeError, pa.ArrowNotImplementedError):
            dom_type = pa.string()
    budget_keys = list(budgets)

    def featurize(batch: pa.Table) -> pa.Table:
        # drop unbudgeted domains BEFORE the shuffle — the docstring's
        # "this source contributes nothing" case must not pay groupby
        # freight for rows the cut would discard anyway
        batch = batch.filter(
            pc.is_in(
                batch[domain_col],
                value_set=pa.array(budget_keys, type=dom_type),
            )
        )
        id_arr = batch[id_col]
        if not pa.types.is_integer(id_arr.type):
            raise ValueError(
                f"sample_token_budget requires integer ids; {id_col!r} is "
                f"{id_arr.type} (hash strings to int64 upstream)"
            )
        if id_arr.null_count:
            # a null id would degrade to_numpy to float64 and astype
            # would mint a garbage id that competes for budget — the
            # same silent-misroute class filter_by_keys guards against
            raise ValueError(f"null {id_col!r} values in mixture input")
        ids = id_arr.to_numpy(zero_copy_only=False).astype(np.int64)
        if count_col is not None:
            toks = pc.cast(batch[count_col], pa.int64())
            if toks.null_count:
                raise ValueError(
                    f"null {count_col!r} values in mixture input — fill or "
                    "drop them upstream (a null budget contribution is "
                    "ambiguous)"
                )
        else:
            toks = pc.cast(
                pc.list_value_length(
                    pc.split_pattern_regex(
                        # ASCII whitespace only (RE2 \s, as in the SQL
                        # oracle): U+00A0 and friends stay token text
                        pc.replace_substring_regex(
                            pc.fill_null(batch[text_col], ""), r"^\s+|\s+$", ""
                        ),
                        r"\s+",
                    )
                ),
                pa.int64(),
            )
        return pa.table(
            {
                id_col: pa.array(ids),
                domain_col: batch[domain_col],
                "n_tokens": toks,
                "__pri": pa.array(_priorities(ids, seed, hash_fn)),
            }
        )

    def cut_domain(group: pd.DataFrame) -> pa.Table:
        domain = group[domain_col].iloc[0]
        budget = budgets.get(domain)
        empty = pa.table(
            {
                id_col: pa.array([], type=pa.int64()),
                domain_col: pa.array([], type=dom_type),
                "n_tokens": pa.array([], type=pa.int64()),
            }
        )
        if budget is None or budget <= 0:
            return empty
        g = group.sort_values(["__pri", id_col], kind="mergesort")
        cum = g["n_tokens"].to_numpy(dtype=np.int64).cumsum()
        keep = g[cum <= budget]
        if keep.empty:
            return empty
        return pa.table(
            {
                id_col: pa.array(keep[id_col].to_numpy(dtype=np.int64)),
                domain_col: pa.array(keep[domain_col], type=dom_type, from_pandas=True),
                "n_tokens": pa.array(keep["n_tokens"].to_numpy(dtype=np.int64)),
            }
        )

    return (
        ds.map_batches(featurize, batch_format="pyarrow", batch_size=4096)
        .groupby(domain_col)
        .map_groups(cut_domain, batch_format="pandas")
    )


def mixture_report(selected: "ray.data.Dataset", domain_col: str = "domain") -> pd.DataFrame:
    """Per-domain achieved doc/token totals of a selection — the tiny
    summary an operator checks against the intended weights."""
    from ray.data.aggregate import Count, Sum

    return (
        selected.groupby(domain_col)
        .aggregate(Count(alias_name="n_docs"), Sum("n_tokens", alias_name="total_tokens"))
        .to_pandas()
        .sort_values(domain_col)
        .reset_index(drop=True)
    )
