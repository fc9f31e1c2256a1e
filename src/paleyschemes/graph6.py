"""graph6 encoding and the design JSON export.

graph6 packs the upper triangle of an undirected adjacency matrix,
column by column, into 6-bit groups offset by 63 into printable ASCII.
Vertex counts up to 62 use a single size byte; larger graphs (up to
258047) use the '~' escape with three size bytes.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError


def _encode_size(n: int) -> str:
    if n < 0:
        raise ParameterError("vertex count must be non-negative")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(
            chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))
    raise ParameterError(f"vertex count {n} exceeds the 3-byte size form")


def _sextet(ch: str) -> int:
    """The 6 bits a graph6 byte carries; bytes run from '?' (0) to '~' (63)."""
    code = ord(ch) - 63
    if not 0 <= code < 64:
        raise ParameterError(f"byte {ch!r} outside the graph6 range")
    return code


def _decode_size(s: str) -> tuple[int, str]:
    if not s:
        raise ParameterError("empty graph6 string")
    if s[0] != "~":
        return _sextet(s[0]), s[1:]
    if len(s) < 4 or s[1] == "~":
        raise ParameterError("unsupported or truncated graph6 size field")
    n = 0
    for ch in s[1:4]:
        n = (n << 6) | _sextet(ch)
    return n, s[4:]


def encode_graph6(adj: np.ndarray) -> str:
    adj = np.asarray(adj)
    n = adj.shape[0]
    if adj.shape != (n, n):
        raise ParameterError("adjacency matrix must be square")
    if (adj != adj.T).any() or adj.trace() != 0:
        raise ParameterError("graph6 needs a symmetric loop-free graph")
    jj, ii = np.tril_indices(n, -1)  # (j, i) pairs: column-major upper triangle
    bits = adj[ii, jj].astype(np.uint8)
    if bits.size % 6:
        bits = np.concatenate([bits, np.zeros(6 - bits.size % 6, np.uint8)])
    groups = bits.reshape(-1, 6)
    weights = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
    codes = groups @ weights + 63
    return _encode_size(n) + "".join(chr(int(c)) for c in codes)


def decode_graph6(s: str) -> np.ndarray:
    n, body = _decode_size(s.strip())
    need = n * (n - 1) // 2
    bits = []
    for ch in body:
        code = _sextet(ch)
        bits.extend((code >> shift) & 1 for shift in (5, 4, 3, 2, 1, 0))
    if len(bits) < need or len(bits) >= need + 6:
        raise ParameterError("graph6 body length does not match vertex count")
    adj = np.zeros((n, n), dtype=np.uint8)
    pos = 0
    for col in range(1, n):
        for row in range(col):
            if bits[pos]:
                adj[row, col] = adj[col, row] = 1
            pos += 1
    if any(bits[need:]):
        raise ParameterError("nonzero padding bits in graph6 body")
    return adj


def design_to_json(points: int, incidence: np.ndarray,
                   params: tuple[int, ...]) -> dict:
    incidence = np.asarray(incidence)
    blocks = [sorted(int(p) for p in np.flatnonzero(incidence[:, b]))
              for b in range(incidence.shape[1])]
    return {"points": points, "params": list(params), "blocks": blocks}
