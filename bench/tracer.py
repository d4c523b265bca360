"""Span tracing installed from outside the package, at runkey's layer boundaries.

Each wrapper replaces a name that a caller resolves at call time (a module
global or a class attribute), records a span (name, start, end, parent) and
the work counters derived from the call's arguments and result.  Spans stay in
memory; the caller writes them out when the traced run ends.  Nothing in the
package itself changes.

Layers are the package modules ``sources``, ``inference``, ``secrecy`` and
``cli``.  ``words`` and ``cipher`` are table lookups whose time falls into
their callers' self time.
"""

from __future__ import annotations

import functools
import time

import numpy as np


def _tell(fh):
    try:
        return fh.tell()
    except (AttributeError, OSError, ValueError):
        return None


def _bytes_written(fh, before):
    after = _tell(fh)
    return {"report_bytes": after - before} if before is not None and after is not None else {}


def _levels(n: int, length: int) -> int:
    return sum(n**j for j in range(1, length + 1))


def _stored_entries(chain) -> int:
    if chain.dense:
        return int(chain.A.size)
    return int(sum(a.nnz for a in chain.A))


def _forward_madds(chain, observations) -> int:
    """Multiply-adds the forward recursion computes.

    Dense: every step multiplies each row by all n symbol matrices,
    n * S**2 per row and step.  CSR: each row multiplies only its own
    symbol's matrix, nnz(A[v]) for observed symbol v.
    """
    obs = np.atleast_2d(np.asarray(observations, dtype=np.int64))
    if chain.dense:
        return int(chain.n * chain.size * chain.size * obs.size)
    nnz = np.array([a.nnz for a in chain.A], dtype=np.int64)
    return int(np.bincount(obs.ravel(), minlength=chain.n) @ nnz)


class Tracer:
    """Collects spans and counters from wrapped runkey functions."""

    def __init__(self):
        self.clock = time.monotonic  # system-wide on Linux, comparable across processes
        self.spans: list[list] = []  # [name, start, end, parent, counters]
        self._stack: list[int] = []

    def wrap(self, fn, name: str, count=None, before=None):
        """Return ``fn`` recording a span; ``count(args, kwargs, result, pre)`` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = before(args, kwargs) if before is not None else None
            index = len(self.spans)
            span = [name, self.clock(), None, self._stack[-1] if self._stack else -1, {}]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result, pre)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None, before=None) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, count, before))

    def install(self) -> None:
        """Wrap the layer boundaries the CLI subcommands cross."""
        import runkey.cli as cli
        import runkey.inference as inference
        import runkey.secrecy as secrecy
        import runkey.sources as sources

        # sources
        self.patch(sources.SourceModel, "__init__", "sources.construct",
                   lambda a, k, r, p: {"contexts": a[0].num_states})
        self.patch(cli, "train_markov", "sources.train")
        self.patch(cli, "save_model", "sources.save")
        self.patch(cli, "load_model", "sources.load")
        self.patch(sources.SourceModel, "block_entropy", "sources.block_entropy")
        self.patch(secrecy, "_walk_batch", "sources.walk",
                   lambda a, k, r, p: {"walk_steps": a[1].shape[0] * (a[1].shape[1] - 1)})
        # inference
        self.patch(secrecy, "hxz_bracket", "inference.bracket")
        self.patch(inference, "_entropies_for_chain", "inference.enum",
                   lambda a, k, r, p: {"enum_calls": 1,
                                       "enum_cells": a[0].size * _levels(a[0].n, a[1])})
        self.patch(inference._ProductChain, "__init__", "inference.chain_build",
                   lambda a, k, r, p: {"chain_states": a[0].size,
                                       "chain_entries": _stored_entries(a[0]),
                                       "chain_dense": int(a[0].dense)})
        self.patch(inference._ProductChain, "forward_log2", "inference.forward",
                   lambda a, k, r, p: {"forward_steps": int(np.size(a[1])),
                                       "forward_madds": _forward_madds(a[0], a[1])})
        self.patch(inference, "joint_log2_table", "inference.joint_table",
                   lambda a, k, r, p: {"joint_words": int(r.size)})
        self.patch(cli, "posterior", "inference.posterior")
        self.patch(secrecy, "posterior", "inference.posterior")
        # secrecy
        self.patch(cli, "concentration_experiment", "secrecy.concentration",
                   lambda a, k, r, p: {"samples": len(r.lengths) * a[4]})
        self.patch(cli, "build_typical_set", "secrecy.typical_set")
        self.patch(cli, "certify_bounds", "secrecy.certify")
        # cli report writers
        self.patch(cli, "_write_json", "cli.report",
                   lambda a, k, r, p: _bytes_written(a[0], p),
                   before=lambda a, k: _tell(a[0]))
        self.patch(cli, "_write_csv", "cli.report",
                   lambda a, k, r, p: _bytes_written(a[0], p),
                   before=lambda a, k: _tell(a[0]))
        self.patch(inference.PosteriorTable, "to_csv", "cli.report",
                   lambda a, k, r, p: _bytes_written(a[1], p),
                   before=lambda a, k: _tell(a[1]))


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
