"""The one DIMACS-style grammar, whose errors name their line: the CNF reader, and the
graph reader for text its lean loop refuses. Only commands that read such text load it."""

from .graph import Graph


def _decimals(words):
    """The ints of words of ASCII digits with at most one leading '-'; int() also reads '+1', '٢' and '0_1'."""
    text = "".join(words)
    if text.isascii() and text.replace("-", "").isdigit():
        return [int(w) for w in words]  # int() refuses a '-' anywhere but first
    bad = next(w for w in words if not (w.isascii() and w.replace("-", "").isdigit()))
    raise ValueError(f"not a decimal integer: {bad!r}")


def dimacs_rows(text: str, fmt: str, kinds: tuple = ()):
    """Stream DIMACS-style text in one pass. Yields (line number, row): first
    the row (N, M), both non-negative, of its one 'p <fmt> N M' header, then
    per data line (kind, a, b) for a 'kind a b' line with kind in kinds or,
    with no kinds, the line's integers. Blank and 'c' lines are skipped and a
    '%' line ends the input. Every error names its line."""
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
        yield ln, row
    if header is None:
        raise ValueError(f"missing 'p {fmt}' header")


def read_graph_rows(text: str, kinds: tuple):
    """(graph, polar edges) of graph text read through dimacs_rows, in one pass. It names the
    first fault, by its line where it has one: a malformed row, then the edge count, then an
    edge out of range, a self-loop or a repeat, then a polar edge not in the graph."""
    rows = dimacs_rows(text, "edge", kinds)
    n, m = next(rows)[1]
    edges, polar, faults, count = set(), [], [], 0
    for ln, (kind, u, v) in rows:
        a, b = (u, v) if u < v else (v, u)
        if kind == "s":
            polar.append((ln, u, v, a, b))
            continue
        count += 1
        if a < 1 or b > n:
            faults.append(f"line {ln}: edge endpoint out of range: ({u}, {v}) with n={n}")
        elif a == b:
            faults.append(f"line {ln}: self-loop on vertex {a}")
        elif (a, b) in edges:
            faults.append(f"line {ln}: duplicate edge ({a}, {b})")
        edges.add((a, b))
    if m != count:
        raise ValueError(f"header claims {m} edges, found {count}")
    for ln, u, v, a, b in polar:
        if (a, b) not in edges:
            faults.append(f"line {ln}: polar edge ({u}, {v}) not present in graph")
    if faults:
        raise ValueError(faults[0])
    return Graph(n, [(a - 1, b - 1) for a, b in edges]), frozenset((a - 1, b - 1) for _, _, _, a, b in polar)
