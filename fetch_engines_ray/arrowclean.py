"""Arrow schema hygiene for Ray Data blocks.

Parquet files written through pandas (the driver's test tables, and any
checkpoint that round-tripped a pandas stage) carry a ``pandas`` JSON
blob in the Arrow schema metadata.  ``hash(pyarrow.Schema)`` raises
``unhashable type: 'dict'`` on any schema with metadata, which defeats
Ray Data's block-schema deduplication (``unify_schemas`` falls back to
per-block schema serialization) and spams every run log with
``Failed to hash the schemas (for deduplication)`` warnings from the
first map stage after each read (seen in BENCH_r03.json on
``MapBatches(to_exact)`` and ``_pack_batch``).

The fix is one zero-copy whole-block pass dropping the metadata at the
read: ``replace_schema_metadata(None)`` rebuilds only the schema object,
and ``batch_size=None`` hands each input block through untouched, so
the batcher never concatenates (and therefore never unify-hashes)
metadata-carrying blocks.
"""
from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data


def _strip_meta(block: pa.Table) -> pa.Table:
    return block.replace_schema_metadata(None)


def strip_schema_metadata(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Drop Arrow schema metadata from every block (zero-copy)."""
    return ds.map_batches(_strip_meta, batch_format="pyarrow", batch_size=None)


def parquet_files(path: str) -> "list[str] | None":
    """The parquet files a read of local ``path`` covers: the sorted
    ``*.parquet`` files under a directory (recursively), or ``path``
    itself when it is a file; None for a path not on the local file
    system (e.g. a remote URI)."""
    if os.path.isdir(path):
        return sorted(
            os.path.join(r, f) for r, _, fs in os.walk(path) for f in fs if f.endswith(".parquet")
        )
    return [path] if os.path.isfile(path) else None


def file_schema(path: str, files: "list[str] | None") -> "pa.Schema | None":
    """The metadata-free schema of the first of ``files``
    (:func:`parquet_files` of ``path``), from its footer alone, or of
    ``path`` itself when it is not local (pyarrow resolves a URI such
    as ``s3://…`` to its file); None when there is no file or its
    footer cannot be read."""
    if files == []:
        return None
    try:
        return pq.read_schema(files[0] if files else path).remove_metadata()
    except Exception:
        return None


def project(schema: "pa.Schema | None", columns) -> "pa.Schema | None":
    """``schema`` narrowed to ``columns`` (all of it for None); None
    when a column is missing from it, e.g. a hive partition column,
    which lives in the path."""
    if schema is None or columns is None:
        return schema
    if any(c not in schema.names for c in columns):
        return None
    return pa.schema([schema.field(c) for c in columns])


def _clean_read_schema(paths, columns):
    """A metadata-free, column-projected schema for ``read_parquet``'s
    ``schema=`` argument, derived from the first local parquet file —
    this kills the unhashable-metadata problem INSIDE the read operator
    (``ReadParquet->SplitBlocks`` unify-hashes block schemas before any
    downstream stage can strip them).  Returns None when it cannot be
    derived safely (remote paths, hive-partition columns not present in
    the file), in which case the strip stage still covers every stage
    after the read."""
    path = paths[0] if isinstance(paths, (list, tuple)) else paths
    return project(file_schema(path, parquet_files(path)), columns)


def read_parquet_clean(paths, **kwargs) -> "ray.data.Dataset":
    """``ray.data.read_parquet`` + schema-metadata hygiene — the
    engine's standard parquet entry point (see module docstring).  A
    ``schema`` the caller passes, None included, is used as it is."""
    if "schema" not in kwargs:
        schema = _clean_read_schema(paths, kwargs.get("columns"))
        if schema is not None:
            kwargs["schema"] = schema
    return strip_schema_metadata(ray.data.read_parquet(paths, **kwargs))
