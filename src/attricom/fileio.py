"""Tab-separated file formats and the per-run manifest.

Edge file      one "u<TAB>v" pair per line; '#' lines are comments.
Attribute file one "u<TAB>k" pair per line meaning X[u, k] = 1; an optional
               first line "#N<TAB>K" pins the dimensions, otherwise they are
               inferred as max id + 1.
Community file one community per line, node ids tab-separated; lines ordered
               by descending size, ids ascending within a line.
Weights file   one line per attribute: id, per-community weights, bias,
               9 significant digits.
Manifest       flat "key<TAB>value" lines, one per entry.

Files are UTF-8; a byte-order mark at the start of an input file is skipped.
"""

from __future__ import annotations

import codecs
import hashlib
import warnings

import numpy as np

from .core import AttributedGraph, AttributeWeights, CommunityCover


class FileFormatError(ValueError):
    """A line in an input file could not be parsed."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def _parse_int(path, line_no, token):
    try:
        return int(token)
    except ValueError:
        raise FileFormatError(path, line_no, f"expected an integer, got {token!r}") from None


def _parse_header(line):
    """(N, K) from a '#N<TAB>K' line, else None."""
    fields = line[1:].split("\t")
    if len(fields) != 2:
        return None
    try:
        return int(fields[0]), int(fields[1])
    except ValueError:
        return None


def _read_pair_lines(path):
    """Pairs of a pair file as (a, b) tuples, and its '#N<TAB>K' first line
    as dims (None without one), parsed line by line."""
    pairs = []
    dims = None
    with open(path, encoding="utf-8-sig") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.rstrip("\r\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                if line_no == 1:
                    dims = _parse_header(line)
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise FileFormatError(path, line_no, "expected two tab-separated integers")
            a = _parse_int(path, line_no, fields[0])
            b = _parse_int(path, line_no, fields[1])
            pairs.append((a, b))
    return pairs, dims


def _load_pairs(path):
    """The pairs of a pair file as an (E, 2) int64 array, or None.

    np.loadtxt reads the data lines _read_pair_lines accepts to the same
    pairs and raises on the lines it rejects, except that it also cuts a
    line at a '#' anywhere in it, where the line reader only skips lines
    starting with '#'. So a file with a '#' elsewhere, or one that loadtxt
    rejects or reads as other than two columns, gets None and is left to
    the line reader, which reports the offending line.
    """
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    line_start_hashes = data.startswith(b"#") + data.count(b"\n#") + data.count(b"\r#")
    if data.count(b"#") != line_start_hashes:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            pairs = np.loadtxt(path, dtype=np.int64, delimiter="\t", comments="#",
                               ndmin=2, encoding="utf-8-sig")
    except (ValueError, OverflowError):
        return None
    if pairs.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    return pairs if pairs.shape[1] == 2 else None


def _read_pairs(path):
    """(pairs as an (E, 2) int64 array, '#N<TAB>K' dims or None)."""
    pairs = _load_pairs(path)
    if pairs is None:
        lines, dims = _read_pair_lines(path)
        return np.array(lines, dtype=np.int64).reshape(-1, 2), dims
    with open(path, encoding="utf-8-sig") as fh:
        first = fh.readline().rstrip("\r\n")
    return pairs, _parse_header(first) if first.startswith("#") else None


def read_edge_file(path) -> np.ndarray:
    """Edges as an (E, 2) int64 array."""
    return _read_pairs(path)[0]


def read_attr_file(path):
    """Returns (pairs, dims): an (E, 2) int64 array and the optional (N, K)
    header, or None."""
    return _read_pairs(path)


def write_edge_file(path, G: AttributedGraph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in G.edges:
            fh.write(f"{u}\t{v}\n")


def write_attr_file(path, G: AttributedGraph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#{G.num_nodes}\t{G.num_attrs}\n")
        for u, k in G.attr_pairs:
            fh.write(f"{u}\t{k}\n")


def write_community_file(path, cover: CommunityCover) -> None:
    ordered = sorted(cover.communities, key=lambda s: (-len(s), tuple(sorted(s))))
    with open(path, "w", encoding="utf-8") as fh:
        for members in ordered:
            fh.write("\t".join(str(m) for m in sorted(members)) + "\n")


def read_community_file(path) -> list[list[int]]:
    """Communities as id lists; build a CommunityCover with the caller's universe."""
    communities = []
    with open(path, encoding="utf-8-sig") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.rstrip("\r\n")
            if not line.strip() or line.startswith("#"):
                continue
            members = [_parse_int(path, line_no, tok) for tok in line.split("\t")]
            communities.append(members)
    return communities


def write_weights_file(path, W: AttributeWeights) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for k in range(W.num_attrs):
            row = "\t".join(f"{x:.9g}" for x in W.values[k])
            fh.write(f"{k}\t{row}\n")


def read_weights_file(path) -> AttributeWeights:
    rows = []
    width = None
    with open(path, encoding="utf-8-sig") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.rstrip("\r\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) < 3:
                raise FileFormatError(path, line_no,
                                      "expected id, community weights and bias")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise FileFormatError(path, line_no, "inconsistent column count")
            k = _parse_int(path, line_no, fields[0])
            if k != len(rows):
                raise FileFormatError(path, line_no,
                                      f"attribute ids must be consecutive, got {k}")
            try:
                rows.append([float(x) for x in fields[1:]])
            except ValueError:
                raise FileFormatError(path, line_no, "malformed weight value") from None
    if not rows:
        return AttributeWeights(np.zeros((0, 1)))
    return AttributeWeights(rows)


def write_manifest(path, entries: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in entries.items():
            fh.write(f"{key}\t{value}\n")


def read_manifest(path) -> dict[str, str]:
    entries = {}
    with open(path, encoding="utf-8-sig") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.rstrip("\r\n")
            if not line:
                continue
            if "\t" not in line:
                raise FileFormatError(path, line_no, "expected key<TAB>value")
            key, value = line.split("\t", 1)
            entries[key] = value
    return entries


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()
