"""Property-based checks of the distance kernel, the prototype update, the
command-line parser, the two text decoders, labels.txt and the config file,
and the three binary decoders, PGM, IDX and the model file (needs the
optional hypothesis)."""

import contextlib
import io
import math
import shutil
import struct
import zlib

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from grasslvq import (  # noqa: E402
    ModelState,
    Prototype,
    Subspace,
    apply_prototype_update,
    find_winners,
    principal_angles_to_stack,
    principal_decomposition,
    prototype_gradient,
    subspace_from_set,
)
from grasslvq import dataio  # noqa: E402
from grasslvq.cli import build_parser, main  # noqa: E402
from grasslvq.errors import ConfigError, RankDeficient, TruncatedFile  # noqa: E402


def _orthonormal(rng, D, k):
    q, _ = np.linalg.qr(rng.standard_normal((D, k)))
    return q


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_block_equals_single_calls(data):
    D = data.draw(st.integers(1, 24), label="D")
    k = data.draw(st.integers(1, D), label="k")
    d = data.draw(st.integers(1, D), label="d")
    P = data.draw(st.integers(1, 5), label="P")
    B = data.draw(st.integers(1, 6), label="B")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    stack = np.stack([_orthonormal(rng, D, d) for _ in range(P)], axis=1)
    samples = np.stack([_orthonormal(rng, D, k) for _ in range(B)], axis=1)
    if k <= d and data.draw(st.booleans(), label="in span"):
        # a sample inside a prototype's span takes the small-angle paths
        p = data.draw(st.integers(0, P - 1), label="prototype")
        samples[:, 0] = stack[:, p] @ _orthonormal(rng, d, k)

    block = principal_angles_to_stack(samples, stack)
    assert block.shape == (B, P, min(k, d))
    for i in range(B):
        single = principal_angles_to_stack(samples[:, i:i + 1], stack)
        assert single.shape == (1, P, min(k, d))
        assert np.max(np.abs(block[i] ** 2 - single[0] ** 2)) < 1e-12


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_update_rescale_matches_svd_orthonormalization(data):
    D = data.draw(st.integers(2, 30), label="D")
    d = data.draw(st.integers(1, D // 2), label="d")
    eta = data.draw(st.floats(0.0, 0.5), label="eta")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    stack = [_orthonormal(rng, D, d) for _ in range(2)]
    model = ModelState([Prototype(Subspace(b), label) for b, label in zip(stack, (1, 2))],
                       np.full(d, 1.0 / d), "grlgq", d, D)
    sample = _orthonormal(rng, D, d)
    if data.draw(st.booleans(), label="shares a direction with the other winner"):
        sample = np.linalg.qr(np.hstack([stack[1][:, :1], sample[:, 1:]]))[0]
    out = find_winners(model, Subspace(sample), 1)
    svd_bases = {}
    for which, idx, pd in (("plus", 0, out.pd_plus), ("minus", 1, out.pd_minus)):
        updated = pd.principal_right - eta * prototype_gradient(out, model.relevance, which)
        try:
            svd_bases[idx] = subspace_from_set(updated, d)
        except RankDeficient:
            with pytest.raises(RankDeficient):
                apply_prototype_update(model, out, eta)
            return
    apply_prototype_update(model, out, eta)
    for idx, svd_basis in svd_bases.items():
        basis = model.stack[idx]
        assert np.max(np.abs(basis.T @ basis - np.eye(d))) < 1e-12
        pd = principal_decomposition(Subspace(basis), svd_basis)
        assert np.sum(pd.angles ** 2) < 1e-20


# ---------------------------------------------------------------- command line

def _commands_and_flags():
    """(every subcommand name, every option string of every subcommand but
    -h and --help)."""
    (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
    flags = {flag for sub in commands.choices.values() for a in sub._actions
             for flag in a.option_strings}
    return sorted(commands.choices), sorted(flags - {"-h", "--help"})


COMMANDS, FLAGS = _commands_and_flags()
ARGV_VALUES = ["1", "0", "x", "-1", "nan", "idx", "sets", "pca", "glgq",
               "yaleb", "m.bin", "", "--"]


@settings(max_examples=200, deadline=None)
@given(argv=st.tuples(
    st.lists(st.sampled_from(COMMANDS), max_size=1),
    st.lists(st.sampled_from([*COMMANDS, *FLAGS, *ARGV_VALUES]), max_size=10)))
def test_argv_parses_or_raises_config_error(argv):
    # argparse's failures raise ConfigError, which main prints as one line;
    # no argv but -h/--help leaves through SystemExit
    argv = [*argv[0], *argv[1]]
    try:
        args = build_parser().parse_args(argv)
    except ConfigError:
        return
    assert args.command in COMMANDS


# ---------------------------------------------------------------- text decoders

CLASSES = ("class_01", "class_02", "class_03")
# Lines are drawn as (bytes, effect): effect None for a line the decoder
# skips, False for one it must reject, else the class or key the line sets.
SKIPPED = st.one_of(
    st.text(st.characters(codec="utf-8", exclude_characters="\r\n"), max_size=12)
    .map(lambda text: f"  # {text}".encode()),
    st.sampled_from([b"", b" \t"]),
).map(lambda line: (line, None))
# bytes that are not UTF-8 wherever they stand: no lead byte takes "(" as a
# continuation, and 0xfe and 0xff never occur
RAW = st.tuples(st.binary(max_size=6),
                st.sampled_from([b"\xff", b"\xfe", b"\xc3(", b"\xed\xa0\x80"]),
                st.binary(max_size=6)).map(lambda parts: (b"".join(parts), False))
MANIFEST_ENTRY = st.tuples(st.sampled_from(CLASSES), st.integers(-3, 9)).map(
    lambda entry: (f"{entry[0]} {entry[1]}".encode(), entry[0]))
MANIFEST_BAD = st.sampled_from([b"class_zz 4", b"set_001 1", b"class_01", b"class_01 one",
                                b"class_02 1.5", b"class_03 1 2"]).map(
    lambda line: (line, False))
CONFIG_VALUES = {
    "mode": ["grlgq", "glgq"], "task": ["sets", "idx"], "d": ["2"],
    "eta": ["0.05", "0.01", "nan", "1e200"], "gamma": ["0", "1e-4", "-1"],
    "epochs": ["1", "3", "abc"], "seed": ["0", "7", "-1"],
    "init": ["example", "random", "pca"], "prototypes-per-class": ["1", "2"],
    "prototypes_per_class": ["1"], "m": ["4", "0"], "sets-per-class": ["2"],
}
CONFIG_SETTING = st.sampled_from(sorted(CONFIG_VALUES)).flatmap(
    lambda key: st.tuples(st.sampled_from(CONFIG_VALUES[key]),
                          st.sampled_from(["", "  # note"])).map(
        lambda value: (f"{key} = {value[0]}{value[1]}".encode(), key.replace("-", "_"))))
CONFIG_BAD = st.sampled_from([b"colour = red", b"epoch = 2", b"epochs", b"= 3"]).map(
    lambda line: (line, False))


@st.composite
def text_file(draw, base, extra):
    """(content, effects) of a file of ``base`` lines in drawn order, maybe
    one short, with up to three ``extra`` lines inserted anywhere."""
    lines = draw(st.permutations(base))
    if lines and draw(st.booleans()):
        lines.pop()
    for line in draw(st.lists(extra, max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    newline = draw(st.sampled_from([b"\n", b"\r\n"]))
    return b"".join(line + newline for line, _ in lines), [e for _, e in lines]


@st.composite
def manifests(draw):
    entries = [(f"{name} {draw(st.integers(-3, 9))}".encode(), name) for name in CLASSES]
    return draw(text_file(entries, st.one_of(SKIPPED, RAW, MANIFEST_BAD, MANIFEST_ENTRY)))


@st.composite
def config_files(draw):
    settings_ = draw(st.lists(CONFIG_SETTING, max_size=4))
    return draw(text_file(settings_, st.one_of(SKIPPED, RAW, CONFIG_BAD, CONFIG_SETTING)))


@pytest.fixture(scope="module")
def cli_tree(tmp_path_factory):
    """A three-class synthetic tree and a model trained on it."""
    root = tmp_path_factory.mktemp("decoders")
    data = root / "data"
    assert main(["synth", "--out", str(data), "--classes", "3", "--ambient", "12",
                 "--dim", "2", "--train-sets", "2", "--test-sets", "1",
                 "--frames", "4", "--seed", "3"]) == 0
    model = root / "model.bin"
    assert main(["train", "--data", str(data / "train"), "--d", "2", "--epochs", "2",
                 "--model-out", str(model)]) == 0
    shutil.copytree(data / "test", root / "manifest_tree")
    return root, data, model


def run_cli(argv):
    """(status, stderr lines) of main(argv); an exception fails the caller."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, err.getvalue().splitlines()


def assert_one_error_line(status, lines):
    assert status == 1 and len(lines) == 1, (status, lines)
    category = lines[0].split(": ", 2)
    assert category[0] == "error" and category[1].isidentifier(), lines[0]


@settings(max_examples=40, deadline=None)
@given(manifest=manifests())
def test_labels_manifest_loads_or_fails_with_one_line(cli_tree, manifest):
    # eval succeeds exactly when every class directory is listed once and no
    # line is malformed, unknown or not UTF-8; else one ConfigError line
    root, _, model = cli_tree
    content, effects = manifest
    tree = root / "manifest_tree"
    (tree / "labels.txt").write_bytes(content)
    status, lines = run_cli(["eval", "--model", str(model), "--data", str(tree)])
    if False not in effects and sorted(filter(None, effects)) == sorted(CLASSES):
        assert status == 0, lines
    else:
        assert_one_error_line(status, lines)
        assert lines[0].startswith("error: ConfigError: "), lines[0]


@settings(max_examples=40, deadline=None)
@given(config=config_files())
def test_config_file_loads_or_fails_with_one_line(cli_tree, config):
    # a repeated key, an unknown key, a line without "=" or a line that is not
    # UTF-8 fails as one ConfigError line; other files train or fail with one
    # error line (a value its check rejects, or an eta that collapses a step)
    root, data, _ = cli_tree
    content, effects = config
    path = root / "run.conf"
    path.write_bytes(content)
    status, lines = run_cli([
        "train", "--data", str(data / "train"), "--config", str(path),
        "--epochs", "1", "--d", "2", "--prototypes-per-class", "1",
        "--model-out", str(root / "config.bin")])
    keys = [e for e in effects if e is not None]
    if False in keys or len(set(keys)) < len(keys):
        assert_one_error_line(status, lines)
        assert lines[0].startswith("error: ConfigError: "), lines[0]
    elif status:
        assert_one_error_line(status, lines)


# ---------------------------------------------------------------- binary decoders

# Header tokens and fields, as they are written: some decode, some do not.
PGM_SIZES = [b"12", b"1", b"2", b"6", b"0", b"012", b"-1", b"x", b"+6", b"1e1",
             b"99999999999999999999"]
PGM_MAXVALS = [b"255", b"0255", b"65535", b"256", b"0", b"-255", b"ff"]
PGM_SEPARATORS = [b" ", b"\n", b"\t", b"\r\n", b"\n# note\n", b" #\n"]
IDX_FIELDS = [-28, -1, 0, 1, 2, 3, 4, 6, 12, 2 ** 31 - 1]


@st.composite
def pgm_frames(draw):
    """(file bytes, decode error or None, (height, width)) of a P5 file
    written from drawn header tokens and separators, maybe cut short, with
    a nonzero payload one byte short of, equal to or one byte over the
    declared pixel count."""
    magic = draw(st.sampled_from([b"P5", b"P5", b"P2", b"P6", b"p5"]))
    width, height = draw(st.sampled_from(PGM_SIZES)), draw(st.sampled_from(PGM_SIZES))
    maxval = draw(st.sampled_from(PGM_MAXVALS))
    seps = [draw(st.sampled_from(PGM_SEPARATORS)) for _ in range(3)]
    header = (magic + seps[0] + width + seps[1] + height + seps[2] + maxval
              + draw(st.sampled_from([b"\n", b" ", b"\t"])))
    if draw(st.booleans()) and draw(st.booleans()):
        # one file in four ends inside the header
        cut = draw(st.integers(0, len(header) - 1))
        error = "UnsupportedFormat" if magic != b"P5" or cut < 2 else "TruncatedFile"
        return header[:cut], error, None
    if magic != b"P5":
        return header + bytes(12), "UnsupportedFormat", None
    if not (width.isdigit() and height.isdigit() and maxval.isdigit()) or int(maxval) != 255:
        return header + bytes(12), "UnsupportedFormat", None
    shape = int(height), int(width)
    pixels = math.prod(shape)
    length = max(0, min(pixels, 64) + draw(st.sampled_from([-1, 0, 1])))
    content = header + bytes(i % 255 + 1 for i in range(length))
    if pixels == 0:
        return content, "UnsupportedFormat", shape
    return content, "TruncatedFile" if length < pixels else None, shape


@settings(max_examples=60, deadline=None)
@given(frame=pgm_frames())
def test_pgm_frame_loads_or_fails_with_one_line(cli_tree, frame):
    # the frame goes through predict --image, then replaces the first frame
    # of a 1 x 12 set for eval --data; each fails with the decoder's error,
    # or a size that the model (D = 12) or the set's other frames do not share
    root, data, model = cli_tree
    content, error, shape = frame
    tree = root / "pgm_tree"
    if not tree.exists():
        shutil.copytree(data / "test", tree)
    path = tree / "class_01" / "set_001" / "frame_001.pgm"
    path.write_bytes(content)
    predict = error or ("InconsistentDims" if math.prod(shape) != 12 else None)
    evaluate = error or ("InconsistentDims" if shape != (1, 12) else None)
    for argv, want in ((["predict", "--model", str(model), "--image", str(path)], predict),
                       (["eval", "--model", str(model), "--data", str(tree)], evaluate)):
        status, lines = run_cli(argv)
        if want is None:
            assert status == 0, (argv[0], lines)
        else:
            assert_one_error_line(status, lines)
            assert lines[0].startswith(f"error: {want}: "), (argv[0], lines[0])


@st.composite
def pgm_sets(draw):
    """Bytes of 1-6 frames of 2 x 3 pixels, each frame's header spelled with
    its own drawn separators and zero-padded tokens, one frame in eight one
    pixel short."""
    frames = []
    for _ in range(draw(st.integers(1, 6))):
        seps = [draw(st.sampled_from(PGM_SEPARATORS)) for _ in range(3)]
        header = (b"P5" + seps[0] + draw(st.sampled_from([b"3", b"03", b"0003"]))
                  + seps[1] + draw(st.sampled_from([b"2", b"002"])) + seps[2]
                  + draw(st.sampled_from([b"255", b"0255"]))
                  + draw(st.sampled_from([b"\n", b" ", b"\t"])))
        pixels = draw(st.binary(min_size=6, max_size=6))
        frames.append(header + pixels[:5 if draw(st.integers(0, 7)) == 0 else 6])
    return frames


@settings(max_examples=80, deadline=None)
@given(frames=pgm_sets())
def test_set_frames_read_as_read_pgm_reads_them(tmp_path_factory, frames):
    # read_set sizes each frame's read by the frame before it; whatever the
    # spellings, it returns the per-frame read_pgm pixel bytes, or raises
    # read_pgm's error for the first short frame
    set_dir = tmp_path_factory.mktemp("set")
    rows, error = [], None
    for i, content in enumerate(frames):
        path = set_dir / f"frame_{i}.pgm"
        path.write_bytes(content)
        try:
            rows.append(dataio.read_pgm(path).reshape(1, -1))
        except TruncatedFile as exc:
            error = error or exc
    if error is None:
        X, dims = dataio.read_set(set_dir)
        assert dims == (2, 3) and X.dtype == np.uint8
        assert X.T.tobytes() == np.concatenate(rows).tobytes()
    else:
        with pytest.raises(TruncatedFile) as info:
            dataio.read_set(set_dir)
        assert str(info.value) == str(error)


@st.composite
def idx_files(draw, magic, ndim, count=None):
    """(file bytes, decode error or None, size fields) of an IDX file with a
    drawn magic and size fields (the first ``count`` when given, most
    often) and a nonzero payload one byte short of, equal to or one byte
    over the declared size."""
    # mostly the right magic, else the other IDX magic or a near miss
    found = draw(st.sampled_from([magic, magic, magic, 0x00000801 + 0x00000803 - magic,
                                  magic | 0x100]))
    sizes = [draw(st.sampled_from(IDX_FIELDS)) for _ in range(ndim)]
    if count is not None and draw(st.integers(0, 3)):
        sizes[0] = count
    size = math.prod(sizes)
    length = max(0, min(size, 200) + draw(st.sampled_from([-1, 0, 1])))
    content = (struct.pack(f">{1 + ndim}i", found, *sizes)
               + bytes(i % 3 + 1 for i in range(length)))
    if found != magic:
        return content, "BadMagic", sizes
    if min(sizes) < 0:
        return content, "UnsupportedFormat", sizes
    if length < size:
        return content, "TruncatedFile", sizes
    if ndim == 3 and sizes[0] == 0:
        return content, "EmptySet", sizes
    return content, "UnsupportedFormat" if ndim == 3 and 0 in sizes[1:] else None, sizes


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_idx_files_load_or_fail_with_one_line(cli_tree, data):
    # eval --images/--labels fails with the first error of: the image file's
    # decode, the label file's, differing counts, a pixel count other than
    # the model's D = 12; else it returns 0
    root, _, model = cli_tree
    images, image_error, (count, rows, cols) = data.draw(
        idx_files(0x00000803, 3), label="images")
    labels, label_error, (label_count,) = data.draw(
        idx_files(0x00000801, 1, count), label="labels")
    paths = root / "images.idx", root / "labels.idx"
    paths[0].write_bytes(images)
    paths[1].write_bytes(labels)
    want = (image_error or label_error
            or ("CountMismatch" if count != label_count else None)
            or ("InconsistentDims" if rows * cols != 12 else None))
    status, lines = run_cli(["eval", "--model", str(model), "--images", str(paths[0]),
                             "--labels", str(paths[1])])
    if want is None:
        assert status == 0, lines
    else:
        assert_one_error_line(status, lines)
        assert lines[0].startswith(f"error: {want}: "), lines[0]


# Header field values, as they are written: some decode, some do not. A label
# must fit int64; "+5" decodes as 5.
MODEL_MODES = ["grlgq", "grlgq", "glgq", "GLGQ", ""]
# Mostly 1 <= d <= D, so that most files reach the payload checks.
MODEL_AMBIENT = [-1, 0, 2, 12, 12, 13]
MODEL_DIMS = [-1, 0, 1, 2, 2, 3, 13]
MODEL_LABELS = ["1", "2", "3", "-4", "+5", "x", "", "1.5", str(2 ** 63 - 1),
                str(2 ** 63), str(-2 ** 63 - 1)]
# Payload edits that leave the length and the CRC consistent but the model
# invalid: a non-finite or non-orthonormal basis, or relevance weights off
# their mode's set (negative, or off the simplex / the all-ones vector).
MODEL_EDITS = ["none", "none", "none", "nan-basis", "scaled-basis",
               "negative-relevance", "doubled-relevance"]


def _int64(token):
    try:
        return -2 ** 63 <= int(token) < 2 ** 63
    except ValueError:
        return False


@st.composite
def model_files(draw):
    """(file bytes, valid) of a model file written from drawn header fields
    (mode, D, d, labels; one field may be dropped, one may be repeated, and
    their order is drawn), with a payload of the length the header implies or
    one value off, sealed with its own length prefix and CRC. ``valid`` says whether
    ``load_model`` must accept it."""
    mode = draw(st.sampled_from(MODEL_MODES))
    D, d = draw(st.sampled_from(MODEL_AMBIENT)), draw(st.sampled_from(MODEL_DIMS))
    labels = draw(st.lists(st.sampled_from(MODEL_LABELS), min_size=1, max_size=3))
    fields = [f"mode={mode}", f"D={D}", f"d={d}", "labels=" + ",".join(labels)]
    fields = draw(st.permutations(fields))
    dropped = draw(st.integers(0, 11))
    if dropped < len(fields):
        del fields[dropped]
    repeated = draw(st.integers(0, 11))
    if repeated < len(fields):
        fields.insert(draw(st.integers(0, len(fields))), fields[repeated])
    offset = draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    edit = draw(st.sampled_from(MODEL_EDITS))
    P = len(labels)
    count = max(0, P * max(D, 0) * max(d, 0) + max(d, 0) + offset)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if 1 <= d <= D:
        stack = np.array([_orthonormal(rng, D, d) for _ in range(P)])
        relevance = np.ones(d) if mode == "glgq" else np.full(d, 1.0 / d)
        if edit == "nan-basis":
            stack[-1, 0, 0] = np.nan
        elif edit == "scaled-basis":
            stack[0] *= 1.5
        elif edit == "negative-relevance":
            relevance[0] = -relevance[0]
        elif edit == "doubled-relevance":
            relevance *= 2.0
        values = np.concatenate([stack.ravel(), relevance])
        values = np.concatenate([values, values])[:count]
    else:
        values = rng.uniform(0.0, 1.0, count)
    valid = (len(set(fields)) == len(fields) == 4 and mode in ("glgq", "grlgq")
             and 1 <= d <= D and all(_int64(t) for t in labels) and offset == 0
             and edit == "none")
    return _sealed(fields, values), valid


def _sealed(fields, values):
    """Model-file bytes of the header ``fields`` and the float64 ``values``,
    sealed with their own length prefix and CRC."""
    payload = np.asarray(values, dtype="<f8").tobytes()
    header = " ".join(["GRASSLVQ", "v1", *fields]).encode() + b"\n"
    return (header + struct.pack("<Q", len(payload) // 8) + payload
            + struct.pack("<I", zlib.crc32(payload)))


@settings(max_examples=150, deadline=None)
@given(model=model_files(), command=st.sampled_from(["eval", "predict"]))
# a valid glgq model but for a second labels= field, which swaps the labels
@example(model=(_sealed(["mode=glgq", "D=12", "d=1", "labels=1,2", "labels=2,1"],
                        [*np.eye(12)[0], *np.eye(12)[1], 1.0]), False), command="eval")
def test_model_file_loads_or_fails_with_one_line(cli_tree, model, command):
    # inspect --relevance-out succeeds exactly on a valid model and fails as
    # one CorruptModel line on any other; eval --data and predict --set of
    # the D = 12 tree (sets of 4 frames) return 0 or one error line
    root, data, _ = cli_tree
    content, valid = model
    path = root / "mutated.bin"
    path.write_bytes(content)
    status, lines = run_cli(["inspect", "--model", str(path),
                             "--relevance-out", str(root / "relevance.csv")])
    if valid:
        assert status == 0, lines
    else:
        assert_one_error_line(status, lines)
        assert lines[0].startswith("error: CorruptModel: "), lines[0]
    inputs = (["--data", str(data / "test")] if command == "eval"
              else ["--set", str(data / "test" / "class_01" / "set_001")])
    status, lines = run_cli([command, "--model", str(path), *inputs])
    if status or not valid:
        assert_one_error_line(status, lines)
