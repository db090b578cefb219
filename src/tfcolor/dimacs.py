"""The one DIMACS-style grammar, whose errors name their line: the CNF reader, and the
graph reader for text its lean loop refuses. Only commands that read such text load it."""

from __future__ import annotations

from .graph import Graph, as_edge_subset


def _decimals(words):
    """The ints of words of ASCII digits with at most one leading '-'; int() also reads '+1', '٢' and '0_1'."""
    text = "".join(words)
    if text.isascii() and text.replace("-", "").isdigit():
        return [int(w) for w in words]  # int() refuses a '-' anywhere but first
    bad = next(w for w in words if not (w.isascii() and w.replace("-", "").isdigit()))
    raise ValueError(f"not a decimal integer: {bad!r}")


def dimacs_rows(text: str, fmt: str, kinds: tuple = ()):
    """Stream DIMACS-style text in one pass. Yields (N, M), both
    non-negative, from its one 'p <fmt> N M' header, then per data line
    (kind, a, b) for a 'kind a b' line with kind in kinds or, with no
    kinds, the line's integers. Blank and 'c' lines are skipped and a '%'
    line ends the input. Every error names its line, also one a caller
    throws in at the row it refuses."""
    header = None
    for ln, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts:
            continue
        head = parts[0]
        try:
            if head in kinds and len(parts) == 3 and header is not None:
                row = head, *_decimals(parts[1:])
            elif head[0] == "c":
                continue
            elif head[0] == "%":
                break
            elif head == "p":
                if header is not None:
                    raise ValueError("duplicate header")
                if len(parts) != 4 or parts[1] != fmt:
                    raise ValueError(f"expected 'p {fmt} N M'")
                row = header = tuple(_decimals(parts[2:]))
                if min(header) < 0:
                    raise ValueError("counts must be non-negative")
            elif header is None:
                raise ValueError(f"data before the 'p {fmt}' header")
            elif not kinds:
                row = _decimals(parts)
            else:
                raise ValueError(f"expected {' or '.join(repr(k + ' u v') for k in kinds)}")
        except ValueError as e:
            raise ValueError(f"line {ln}: bad line {raw.strip()!r}: {e}") from None
        try:
            yield row
        except ValueError as e:
            raise ValueError(f"line {ln}: {e}") from None
    if header is None:
        raise ValueError(f"missing 'p {fmt}' header")


def read_graph_rows(text: str, kinds: tuple):
    """(graph, polar edges) of graph text read through dimacs_rows, whose errors name their line."""
    rows = dimacs_rows(text, "edge", kinds)
    n, m = next(rows)
    edges, polar = [], []
    for kind, u, v in rows:
        (edges if kind == "e" else polar).append((u - 1, v - 1))
    if m != len(edges):
        raise ValueError(f"header claims {m} edges, found {len(edges)}")
    g = None
    try:
        g = Graph(n, edges)
        return g, as_edge_subset(g, polar)
    except ValueError:
        # name the refused pair's line and its 1-based labels
        rows = dimacs_rows(text, "edge", kinds)
        next(rows)
        seen = set()
        for kind, u, v in rows:
            a, b = sorted((u, v))
            if kind == "s":
                if g is not None and not (1 <= a and b <= n and g.has_edge(a - 1, b - 1)):
                    rows.throw(ValueError(f"polar edge ({u}, {v}) not present in graph"))
            elif a < 1 or b > n:
                rows.throw(ValueError(f"edge endpoint out of range: ({u}, {v}) with n={n}"))
            elif a == b:
                rows.throw(ValueError(f"self-loop on vertex {a}"))
            elif (a, b) in seen:
                rows.throw(ValueError(f"duplicate edge ({a}, {b})"))
            else:
                seen.add((a, b))
        raise
