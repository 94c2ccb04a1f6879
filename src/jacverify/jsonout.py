"""Indent-2 JSON for the CLI's reports, streamed to a writer in batches.

Only JSON output (``--format json`` and ``--dump``) loads this module, and
with it ``json.encoder``.  json runs its C encoder only when ``indent`` is
None, so ``json.dumps(obj, indent=2)`` would take the pure-Python encoder
and build the whole document before anything is written.  A batch ends
after the dict that brings it to BATCH chunks or to BOUND characters of
strings and tuple texts (64 KiB), so a report made of a few long strings,
such as the polynomials of ``gens``, is written in pieces too.  An
iterator is written as a list, item by item, so a report whose items are
made only as they are written is never whole in memory either.  Each value
goes through one ``emit`` path; only a repeated tuple of ints reuses a text.
"""

from collections.abc import Iterator
from itertools import chain
from json.encoder import encode_basestring_ascii as _string

BATCH = 1024  # pending chunks joined into one write, after the dict that reaches it,
BOUND = 1 << 16  # or pending characters of strings and tuple texts, whichever comes first
_KINDS = (str, int, dict, list, tuple)
_only_ints = {int}.issuperset  # over the item types: bools and other subclasses fail it
_only_tuples = {tuple}.issuperset
_flatten = chain.from_iterable


def write_json(obj, write) -> None:
    """Pass ``write`` the text of ``json.dumps(obj, indent=2)``, in a few large pieces.

    ``obj`` is built from str, int, bool, None, list, tuple and str-keyed dict
    values (a subclass is written as its base type) and iterators, each read
    once, as it is written, and written as the list of its items (``[]`` if
    none); anything else raises TypeError.  Chunks are appended to one list,
    which is joined and written after a closed dict once BATCH chunks or BOUND
    characters of strings and tuple texts are pending, so the whole document
    never sits in memory.  In a report only those make long chunks, so only
    they are counted, as they are appended.  Each depth builds its brackets
    and separator once, and each key its two ``"key": `` chunks (first item,
    later item), so indentation is shared, never rebuilt.  A dict value that
    is a tuple of exact ints or of exact-int tuples (the lam, nu, S, sigma or
    rho of a state, which repeat across thousands of states) is one chunk,
    its text at that depth, which the depth keeps and reuses; its item types
    are checked first, as ``(True, 1) == (1, 1)`` and ``(1.0, 2) == (1, 2)``.
    """
    chunks = []
    append = chunks.append
    pending = 0  # characters of the strings and tuple texts in chunks
    levels = []  # per depth: open [, open {, separator, close ], close }, key chunks, tuple texts

    def emit(o, depth):
        nonlocal pending
        kind = type(o)
        if kind not in _KINDS:
            if o is None or o is True or o is False:
                append("null" if o is None else "true" if o else "false")
                return
            kind = next((k for k in _KINDS if isinstance(o, k)),
                        Iterator if isinstance(o, Iterator) else None)
            if kind is None:
                raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        if kind is str:
            o = _string(o)
            append(o)
            pending += len(o)
        elif kind is int:
            append(int.__repr__(o))
        elif not o:
            append("{}" if kind is dict else "[]")
        else:
            while len(levels) < depth + 2:  # this depth and the next, for tuple texts
                pad, ind = "\n" + "  " * len(levels), "\n" + "  " * (len(levels) + 1)
                levels.append(("[" + ind, "{" + ind, "," + ind, pad + "]", pad + "}", {}, {}))
            open_list, open_dict, sep, close_list, close_dict, keys, _ = levels[depth]
            if kind is dict:
                lead = 0
                texts = levels[depth + 1][6]  # of the tuples among the values
                for k, v in o.items():
                    if k not in keys:  # encode_basestring_ascii rejects a non-str key
                        name = _string(k) + ": "
                        keys[k] = (open_dict + name, sep + name)
                    append(keys[k][lead])
                    lead = 1
                    if type(v) is tuple and (_only_ints(map(type, v)) or _only_tuples(map(type, v))
                                             and _only_ints(map(type, _flatten(v)))):
                        text = texts.get(v)
                        if text is None:  # written once through emit, which flushes no tuple
                            start = len(chunks)
                            emit(v, depth + 1)
                            text = texts[v] = "".join(chunks[start:])
                            del chunks[start:]
                        append(text)
                        pending += len(text)
                    else:
                        emit(v, depth + 1)
                append(close_dict)
                if len(chunks) >= BATCH or pending >= BOUND:
                    write("".join(chunks))
                    chunks.clear()
                    pending = 0
            else:
                lead = open_list
                for v in o:
                    append(lead)
                    lead = sep
                    emit(v, depth + 1)
                append(close_list if lead is sep else "[]")  # "[]": an iterator with no item

    emit(obj, 0)
    write("".join(chunks))
