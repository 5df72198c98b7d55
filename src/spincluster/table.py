"""The one CSV writer; every CSV output of the package goes through it."""

import numpy as np

_BLOCK = 4096  # records per % call; bounds the memory of one block


def csv_text(header: str, record: str, columns) -> str:
    """The header line, then the ``%`` template ``record`` once per record.

    The columns are broadcast and stacked along a last axis; record i takes
    every value of row i in order, so it may span several lines.  A block
    holding strings is an ``object`` array, so its floats keep the template.
    """
    columns = np.broadcast_arrays(*columns)
    mixed = any(column.dtype.kind in "OSU" for column in columns)
    chunks = [header + "\n"]
    for start in range(0, len(columns[0]), _BLOCK):
        block = np.stack([column[start:start + _BLOCK] for column in columns],
                         axis=-1, dtype=object if mixed else None)
        chunks.append((record * len(block)) % tuple(block.ravel().tolist()))
    return "".join(chunks)
