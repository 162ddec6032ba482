"""Fuzzing: damaged corpus lines and checkpoint headers raise only ValueError.

The CLI turns ValueError from ``parse_corpus`` and ``load_checkpoint`` into
exit code 2, so every other exception a damaged input can raise is a crash.
Each example starts from a valid input and damages it, either in its JSON
value tree or in its text.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molvae.molgraph import (DEFAULT_TABLE, graph_to_obj, parse_corpus,
                             random_molecule)
from molvae.training import (Checkpoint, Hyperparams, init_model,
                             load_checkpoint, save_checkpoint)

SETTINGS = settings(max_examples=300)

JSON = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4)
    | st.integers(-2, 10) | st.integers(-10**30, 10**30)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["C", "N", "O", "H", 1.7, -1, 0, 10**6, 1e300]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)


@st.composite
def damaged_tree(draw, tree):
    """``tree`` with one node replaced, one key dropped or one list entry
    added or removed, somewhere along a random path."""
    tree = json.loads(json.dumps(tree))
    node = tree
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            break
        key = draw(st.sampled_from(keys))
        child = node[key]
        if not isinstance(child, (dict, list)) or draw(st.booleans()):
            break
        node = child
    if not keys:
        return draw(JSON)
    action = draw(st.sampled_from(["replace", "drop", "grow"]))
    if action == "replace":
        node[key] = draw(JSON)
    elif action == "drop":
        del node[key]
    elif isinstance(node, list):
        node.append(draw(JSON))
    else:
        node[draw(st.text(max_size=6))] = draw(JSON)
    return tree


@st.composite
def damaged_text(draw, text):
    """``text`` truncated, or with a span replaced by random characters."""
    start = draw(st.integers(0, len(text)))
    if draw(st.booleans()):
        return text[:start]
    end = draw(st.integers(start, min(len(text), start + 8)))
    filler = draw(st.text(alphabet='[]{}",:0123456789.eE-+ aCtnul', max_size=8))
    return text[:start] + filler + text[end:]


def _accepts_or_value_error(load):
    try:
        load()
    except ValueError:
        pass


def _molecule_obj(seed):
    return graph_to_obj(random_molecule(np.random.default_rng(seed), 5,
                                        DEFAULT_TABLE))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@SETTINGS
@given(data=st.data(), seed=st.integers(0, 20), as_text=st.booleans())
def test_damaged_corpus_line(fuzz_dir, data, seed, as_text):
    obj = _molecule_obj(seed)
    if as_text:
        line = data.draw(damaged_text(json.dumps(obj)))
    else:
        line = json.dumps(data.draw(damaged_tree(obj)))
    path = fuzz_dir / "corpus.jsonl"
    path.write_text(json.dumps(_molecule_obj(99)) + "\n" + line + "\n")
    _accepts_or_value_error(lambda: parse_corpus(path))


@pytest.mark.parametrize("line", [
    '{"atoms": ["C", "C"], "bonds": [[0, 1e400, 1]]}',
    "[" * 100_000,
    '{"atoms": "CC", "bonds": []}',
    '{"atoms": ["C", "C"], "bonds": [[0, 1.7, 1]]}',
    '{"atoms": ["C", "C"], "bonds": [[0, 1, 1, 5]]}',
    '{"atoms": [], "bonds": []}',
])
def test_malformed_corpus_lines_name_the_line(tmp_path, line):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"atoms": ["C"], "bonds": []}\n' + line + "\n")
    with pytest.raises(ValueError, match="corpus line 2") as exc:
        parse_corpus(path)
    assert str(path) in str(exc.value)


def test_non_utf8_corpus_names_the_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b'{"atoms": ["C"], "bonds": []}\n\xff\xfe\n')
    with pytest.raises(ValueError, match="not UTF-8") as exc:
        parse_corpus(path)
    assert str(path) in str(exc.value)


@pytest.fixture(scope="module")
def checkpoint_parts(tmp_path_factory):
    """Header object and tensor bytes of a small valid checkpoint."""
    hyper = Hyperparams(D=4, K=2, L=3, iterations=1)
    model = init_model(np.random.default_rng(5), hyper, lambda_n=4.0)
    path = tmp_path_factory.mktemp("ckpt") / "model.bin"
    save_checkpoint(path, Checkpoint(model, hyper, 1))
    header_line, _, blob = path.read_bytes().partition(b"\n")
    return json.loads(header_line), blob


def _write_checkpoint(path, header_text, blob):
    path.write_bytes(header_text.encode() + b"\n" + blob)
    return path


@SETTINGS
@given(data=st.data(), as_text=st.booleans())
def test_damaged_checkpoint_header(fuzz_dir, checkpoint_parts, data, as_text):
    header, blob = checkpoint_parts
    if as_text:
        text = data.draw(damaged_text(json.dumps(header)))
    else:
        text = json.dumps(data.draw(damaged_tree(header)))
    path = _write_checkpoint(fuzz_dir / "model.bin", text, blob)
    _accepts_or_value_error(lambda: load_checkpoint(path))


@pytest.mark.parametrize("edit,field", [
    (lambda h: h["alphabet"][0].__setitem__(1, "1e400"), "alphabet"),
    (lambda h: h["hyper"].__setitem__("D", 1_000_000), "D=1000000"),
    (lambda h: h["hyper"].__setitem__("K", 10**9), "K=1000000000"),
    (lambda h: h.__setitem__("lambda_n", "NaN"), "lambda_n"),
    (lambda h: h.__setitem__("lambda_n", -1), "lambda_n"),
    (lambda h: h["hyper"].__setitem__("lr", "NaN"), "lr"),
    (lambda h: h["hyper"].__setitem__("D", 4.5), "D must be an integer"),
    (lambda h: h.__setitem__("iteration", "1e400"), "iteration"),
    # True == 1: as an offset it would read every float one byte off
    (lambda h: h["tensors"][0].__setitem__("offset", True), "offset"),
    (lambda h: h.__setitem__("version", True), "version"),
    # a second entry for one tensor, pointing at the next tensor's bytes
    (lambda h: h["tensors"].append(dict(h["tensors"][0], offset=h["tensors"][1]["offset"])),
     "'tensors' lists tensor 'enc.hop1' twice"),
    (lambda h: h["alphabet"].append(["C", 3]), "'alphabet' lists symbol 'C' twice"),
    # two tensors reading the same bytes
    (lambda h: h["tensors"][1].__setitem__("offset", 0), "'enc.hop2' has offset 0"),
    (lambda h: h["tensors"][0].__setitem__("size", "bogus"), "has size 'bogus'"),
    # the returned bytes are appended after the last tensor
    (lambda h: b"\0" * 8, "8 bytes after the last tensor"),
])
def test_malformed_checkpoint_headers_name_the_field(tmp_path, checkpoint_parts,
                                                     edit, field):
    header, blob = checkpoint_parts
    header = json.loads(json.dumps(header))
    extra = edit(header) or b""
    # the string placeholders become bare JSON numbers that Python's json
    # module reads as inf or NaN
    text = json.dumps(header).replace('"1e400"', "1e400").replace('"NaN"', "NaN")
    path = _write_checkpoint(tmp_path / "model.bin", text, blob + extra)
    with pytest.raises(ValueError, match=field) as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value)
