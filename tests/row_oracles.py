"""Per-row compositions of ``ops.gather_blocks`` and ``ops.cosine_pull``.

Each records one chain of small ops per batch row.  The fused ops must
equal them bit for bit, in the value and in every gradient, so they serve
as the oracles for both (tests/test_ops.py) and for the pool pull loss in
the joint-backward reference (tests/test_objectives.py).
"""

import numpy as np

from dynaprompt.ndtensor import Tensor, ops


def rows_gather_blocks(values, indices, bias):
    """Per row: ``gather_rows``, a reshape to [n*L, D], an ``add`` of the
    bias and a reshape to [1, n*L, D]; the rows joined by one concat (no
    concat for one row)."""
    indices = np.asarray(indices)
    tokens = indices.shape[1] * values.shape[1]
    d = values.shape[2]
    blocks = []
    for row in indices:
        flat = ops.reshape(ops.gather_rows(values, row), (tokens, d))
        blocks.append(ops.reshape(ops.add(flat, bias), (1, tokens, d)))
    return blocks[0] if len(blocks) == 1 else ops.concat(blocks, axis=0)


def rows_cosine_pull(records, c):
    """Per row of each record: n - sum(cos) between the selected keys and
    the query row through slice, gather, matmul, mul, sum, sqrt, div and
    sub; a zero query row is the constant n.  The terms add up in order and
    the total is scaled by ``c``."""
    total = None
    for keys, queries, indices in records:
        d = keys.shape[1]
        for i, row in enumerate(np.asarray(indices)):
            n = len(row)
            if float(np.linalg.norm(queries.data[i])) == 0.0:
                term = Tensor(float(n))
            else:
                q = ops.reshape(ops.slice_axis(queries, 0, i, i + 1), (d,))
                keys_sel = ops.gather_rows(keys, row)
                dots = ops.reshape(ops.matmul(keys_sel,
                                              ops.reshape(q, (d, 1))), (n,))
                kn = ops.sqrt(ops.sum(ops.mul(keys_sel, keys_sel), axis=1))
                qn = ops.sqrt(ops.sum(ops.mul(q, q)))
                cos = ops.div(dots, ops.mul(kn, qn))
                term = ops.sub(Tensor(float(n)), ops.sum(cos))
            total = term if total is None else ops.add(total, term)
    return ops.scale(total, c)


def rows_surrogate_loss(selections, batch_size):
    """``pools.surrogate_loss`` through ``rows_cosine_pull``."""
    return rows_cosine_pull([(sel.pool.keys, sel.query, sel.indices)
                             for sel in selections], 1.0 / batch_size)
