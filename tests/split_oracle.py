"""Reference protocol split for ecgid.bench.split_protocol.

This is the mask form of the split: it takes the stacked cohort, finds
each subject's rows of each condition with `np.flatnonzero` over the whole
stack, cuts a fraction protocol's one record with `_split_indices`, and
gathers all kept train rows, then all kept test rows, with one `take_rows`
each. The library splits one matrix per record and must give identical
rows, labels and dropped subjects.
"""

import numpy as np

from ecgid.bench import (
    MIN_TEST_ROWS,
    MIN_TRAIN_ROWS,
    SplitResult,
    _conditions,
    _split_indices,
)
from ecgid.errors import EmptyCohort
from ecgid.features import take_rows


def split_protocol(m, protocol):
    conds = _conditions(protocol)
    sid = np.array(m.subject_ids)
    cond = np.array(m.conditions)
    train_idx, test_idx, dropped = [], [], []
    for s in sorted(set(m.subject_ids)):
        rows = [np.flatnonzero((sid == s) & (cond == c)) for c in conds]
        if len(rows) == 2:  # one whole condition trains, the other tests
            tr, te = rows
        else:
            tr_local, te_local = _split_indices(rows[0].size, protocol)
            tr, te = rows[0][tr_local], rows[0][te_local]
        if tr.size < MIN_TRAIN_ROWS or te.size < MIN_TEST_ROWS:
            dropped.append(s)
            continue
        train_idx.append(tr)
        test_idx.append(te)
    if not train_idx:
        raise EmptyCohort("no subject kept %d train / %d test rows under %s"
                          % (MIN_TRAIN_ROWS, MIN_TEST_ROWS, protocol))
    train = take_rows(m, np.concatenate(train_idx))
    test = take_rows(m, np.concatenate(test_idx))
    return SplitResult(train, test, len(train_idx), tuple(dropped))
