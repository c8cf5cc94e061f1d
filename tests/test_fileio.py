import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from attricom import AttributeWeights, CommunityCover, build_graph
from attricom.fileio import (FileFormatError, _load_pairs, _parse_header,
                             _read_pair_lines, read_attr_file,
                             read_community_file, read_edge_file,
                             read_manifest, read_weights_file, sha256_file,
                             write_attr_file, write_community_file,
                             write_edge_file, write_manifest,
                             write_weights_file)
from attricom.synthetic import ForestFireParams, bernoulli_attributes, forest_fire

BOM = "\ufeff"


def _write_twins(tmp_path, text):
    """A file holding text, and its twin with a UTF-8 byte-order mark."""
    plain, marked = tmp_path / "plain.tsv", tmp_path / "bom.tsv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(BOM + text, encoding="utf-8")
    return plain, marked


class TestEdgeFile:
    def test_round_trip(self, tmp_path):
        g = forest_fire(ForestFireParams(n=40, seed=1))
        path = tmp_path / "edges.tsv"
        write_edge_file(path, g)
        g2 = build_graph(read_edge_file(path), [], 40, 0)
        assert np.array_equal(g.edges, g2.edges)

    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "edges.tsv"
        write_edge_file(path, build_graph([(3, 1), (0, 2), (1, 0), (4, 0)], [], 5, 0))
        assert path.read_bytes() == b"0\t1\n0\t2\n0\t4\n1\t3\n"
        write_edge_file(path, build_graph([], [], 4, 0))
        assert path.read_bytes() == b""

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# a comment\n0\t1\n\n2\t3\n")
        assert read_edge_file(path).tolist() == [[0, 1], [2, 3]]

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("0\t1\n0 1\n")
        with pytest.raises(FileFormatError) as exc:
            read_edge_file(path)
        assert exc.value.line_no == 2

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("0\tx\n")
        with pytest.raises(FileFormatError) as exc:
            read_edge_file(path)
        assert exc.value.line_no == 1

    @pytest.mark.parametrize("text", ["0\t1\n2\t3\n", "# c\r\n0\t1\r\n"])
    def test_byte_order_mark_skipped(self, tmp_path, text):
        plain, marked = _write_twins(tmp_path, text)
        assert read_edge_file(marked).tolist() == read_edge_file(plain).tolist()


class TestAttrFile:
    def test_round_trip_with_dims_header(self, tmp_path):
        g = forest_fire(ForestFireParams(n=30, seed=2))
        g = bernoulli_attributes(g, 6, 0.4, seed=3)
        path = tmp_path / "attrs.tsv"
        write_attr_file(path, g)
        pairs, dims = read_attr_file(path)
        assert dims == (30, 6)
        g2 = build_graph([tuple(e) for e in g.edges], pairs, *dims)
        assert np.array_equal(g.attr_pairs, g2.attr_pairs)

    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "attrs.tsv"
        write_attr_file(path, build_graph([(0, 1)], [(2, 1), (0, 0), (4, 2)], 5, 3))
        assert path.read_bytes() == b"#5\t3\n0\t0\n2\t1\n4\t2\n"
        write_attr_file(path, build_graph([], [], 4, 2))
        assert path.read_bytes() == b"#4\t2\n"

    def test_dims_inferred_without_header(self, tmp_path):
        path = tmp_path / "attrs.tsv"
        path.write_text("0\t2\n4\t0\n")
        pairs, dims = read_attr_file(path)
        assert dims is None
        assert pairs.tolist() == [[0, 2], [4, 0]]

    def test_byte_order_mark_before_header(self, tmp_path):
        plain, marked = _write_twins(tmp_path, "#9\t3\n0\t2\n4\t0\n")
        pairs, dims = read_attr_file(marked)
        assert dims == (9, 3) and pairs.tolist() == [[0, 2], [4, 0]]
        assert _load_pairs(marked, plain.read_bytes()).tolist() == pairs.tolist()
        assert _read_pair_lines(marked) == _read_pair_lines(plain)


_INT = st.builds(lambda pad, sign, x: pad + sign + str(x) + pad,
                 st.sampled_from(["", " "]), st.sampled_from(["", "-", "+"]),
                 st.integers(0, 10**6))
_DATA = st.builds(lambda a, b: f"{a}\t{b}", _INT, _INT)
_LINE = st.one_of(
    _DATA, _DATA,  # data lines twice as likely as each other kind
    st.sampled_from(["", " ", "\t", "# comment", "#", "#3\t4", "## twice"]),
    st.builds(lambda a, b: f"#{a}\t{b}", st.integers(0, 99), st.integers(0, 99)),
    st.builds(lambda a, b, t: f"{a}\t{b}{t}", _INT, _INT,         # inline '#', trailing tab
              st.sampled_from(["#c", " # c", "\t", "\t#"])),
    st.sampled_from([" #indented", "\t# indented", "1 2", "x\t1", "1", "1\t2\t3",
                     "1\t", "\t1", "1.0\t2", "1_0\t2"]),
)


def _outcome(read, path):
    """The pairs and dims a reader returns, or the line its error names."""
    try:
        pairs, dims = read(path)
    except FileFormatError as exc:
        return "error", exc.line_no
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2).tolist(), dims


def _line_reader(path):
    """The line reader's pairs, and the dims of the first line as text mode
    reads it."""
    with open(path, encoding="utf-8-sig") as fh:
        first = fh.readline().rstrip("\r\n")
    return _read_pair_lines(path), _parse_header(first) if first.startswith("#") else None


class TestPairFileFastPath:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(_LINE, max_size=8),
           endings=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=8, max_size=8),
           last_newline=st.booleans(), bom=st.sampled_from(["", BOM]))
    # A header ended by a lone '\r' and followed by more text: a header cut
    # at '\n' alone reads as no header here.
    @example(lines=["#9\t3", "0\t2", "4\t0"], endings=["\r"] + ["\n"] * 7,
             last_newline=True, bom="")
    def test_matches_line_reader(self, tmp_path, lines, endings, last_newline, bom):
        text = "".join(line + end for line, end in zip(lines, endings))
        if lines and not last_newline:
            text = text[:-len(endings[len(lines) - 1])]
        plain, path = tmp_path / "plain.tsv", tmp_path / "pairs.tsv"
        plain.write_bytes(text.encode("utf-8"))
        path.write_bytes((bom + text).encode("utf-8"))
        want = _outcome(_line_reader, plain)
        assert _outcome(_line_reader, path) == want
        assert _outcome(read_attr_file, path) == want
        fast = _load_pairs(path, plain.read_bytes())
        if fast is not None:
            assert want[0] != "error"
            assert fast.dtype == np.int64 and fast.tolist() == want[0]

    def test_clean_file_takes_fast_path(self, tmp_path):
        path = tmp_path / "attrs.tsv"
        path.write_bytes(b"#9\t3\r\n0\t2\r\n\r\n# note\n+4\t-0\n 5 \t1")
        assert _load_pairs(path, path.read_bytes()).tolist() == [[0, 2], [4, 0], [5, 1]]
        pairs, dims = read_attr_file(path)
        assert pairs.tolist() == [[0, 2], [4, 0], [5, 1]] and dims == (9, 3)
        path.write_bytes(b"#9\t3\r0\t2\r# c\r4\t0\r")  # CR-only line ends
        assert _load_pairs(path, path.read_bytes()).tolist() == [[0, 2], [4, 0]]
        pairs, dims = read_attr_file(path)
        assert pairs.tolist() == [[0, 2], [4, 0]] and dims == (9, 3)
        path.write_bytes(b"")
        assert _load_pairs(path, b"").shape == (0, 2)


class TestCommunityFile:
    def test_round_trip_and_ordering(self, tmp_path):
        cover = CommunityCover([{5, 1}, {9, 2, 0}, {3}], universe=10)
        path = tmp_path / "comms.tsv"
        write_community_file(path, cover)
        assert path.read_text() == "0\t2\t9\n1\t5\n3\n"
        rows = read_community_file(path)
        assert {frozenset(r) for r in rows} == {frozenset(c) for c in cover}

    def test_size_tie_broken_by_ids(self, tmp_path):
        cover = CommunityCover([{7, 8}, {0, 9}], universe=10)
        path = tmp_path / "comms.tsv"
        write_community_file(path, cover)
        assert path.read_text() == "0\t9\n7\t8\n"

    def test_byte_order_mark_skipped(self, tmp_path):
        plain, marked = _write_twins(tmp_path, "0\t2\t9\n1\t5\n")
        assert read_community_file(marked) == read_community_file(plain) == [[0, 2, 9], [1, 5]]


class TestWeightsFile:
    def test_round_trip_stable(self, tmp_path):
        rng = np.random.default_rng(4)
        W = AttributeWeights(rng.normal(size=(5, 4)) * 100)
        path = tmp_path / "w.tsv"
        write_weights_file(path, W)
        W2 = read_weights_file(path)
        # 9 significant digits survive a write/read/write cycle byte-for-byte
        path2 = tmp_path / "w2.tsv"
        write_weights_file(path2, W2)
        assert path.read_bytes() == path2.read_bytes()
        assert np.allclose(W.values, W2.values, rtol=1e-8)

    def test_non_consecutive_ids_rejected(self, tmp_path):
        path = tmp_path / "w.tsv"
        path.write_text("0\t1.0\t2.0\n2\t1.0\t2.0\n")
        with pytest.raises(FileFormatError) as exc:
            read_weights_file(path)
        assert exc.value.line_no == 2

    def test_byte_order_mark_skipped(self, tmp_path):
        plain, marked = _write_twins(tmp_path, "0\t1.5\t-2\n1\t0\t0.25\n")
        assert (read_weights_file(marked).values.tolist()
                == read_weights_file(plain).values.tolist() == [[1.5, -2.0], [0.0, 0.25]])


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.manifest.tsv"
        entries = {"command": "detect", "alpha": 0.5, "iterations": 12}
        write_manifest(path, entries)
        back = read_manifest(path)
        assert back == {"command": "detect", "alpha": "0.5", "iterations": "12"}

    def test_sha256(self, tmp_path):
        path = tmp_path / "x"
        path.write_bytes(b"abc")
        assert sha256_file(path) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
