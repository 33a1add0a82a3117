"""The error contract: one root class, one config check per fact, and
binary readers and JSON artifacts that either parse or raise it."""

import ast
import copy
import importlib
import inspect
import json
import math
import pkgutil
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import icl
from conftest import micro_config
from icl import audio, checkpoint, cli, features, pipeline, wavio
from icl.audio import AudioError, SplitError
from icl.config import ConfigError, resolve_config, validate_config
from icl.errors import IclError, write_json
from icl.features import FeatureError
from icl.model import ModelError
from icl.training import TrainingError


def test_every_icl_exception_subclasses_the_root():
    defined = []
    for info in pkgutil.iter_modules(icl.__path__):
        module = importlib.import_module(f"icl.{info.name}")
        defined += [obj for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__]
    assert len(defined) >= 19
    assert [c.__qualname__ for c in defined if not issubclass(c, IclError)] == []


def test_cli_catches_exactly_the_root_and_oserror():
    handlers = [node for node in ast.walk(ast.parse(inspect.getsource(cli)))
                if isinstance(node, ast.ExceptHandler)]
    assert len(handlers) == 1
    assert [n.id for n in handlers[0].type.elts] == ["IclError", "OSError"]


@pytest.mark.parametrize("override, field, source", [
    ("training.mode=wavelet", "training.mode", TrainingError),
    ("training.alpha=-1", "training.alpha", TrainingError),
    ("training.epochs=0", "training.epochs", TrainingError),
    ("training.batch_size=1", "training.batch_size", TrainingError),
    ("training.lr=0", "training.lr", TrainingError),
    ("training.weight_decay=-1", "training.weight_decay", TrainingError),
    ("encoder.blocks_per_stage=[1]", "encoder.blocks_per_stage", ModelError),
    ("encoder.embedding_dim=16", "encoder.embedding_dim", ModelError),
    ("features.frame_shift_ms=60", "features.frame_shift_ms", FeatureError),
    ("split.ratios=[1,0,0]", "split.ratios", SplitError),
    ("split.ratios=[0.5,0.3,0.3]", "split.ratios", SplitError),
    ("segmentation.overlap=1.5", "segmentation.overlap", AudioError),
    ("training.alpha=abc", "training.alpha", TrainingError),
])
def test_config_errors_come_from_the_typed_settings(override, field, source):
    with pytest.raises(ConfigError) as exc:
        micro_config(override)
    assert str(exc.value).startswith(field)
    assert isinstance(exc.value.__cause__, source)


@pytest.mark.parametrize("override, message", [
    ("training.alhpa=2", "training.alhpa: unknown config key"),
    ("encoder.embeding_dim=32", "encoder.embeding_dim: unknown config key"),
    ("features.cqt_frame={}", "features.cqt_frame: unknown config key"),
    ("training.symmetric_icl=true", "training.symmetric_icl: unknown config key"),
    ("dataset.synthesis.seed=3", "dataset.synthesis.seed: unknown config key"),
    ("features.mel.n_filters=abc", "features.mel.n_filters: must be an integer, got 'abc'"),
    ("dataset.manifest=7", "dataset.manifest: must be a path or null, got 7"),
    # Integer settings refuse other numbers and booleans.
    ("seed=null", "seed: must be an integer >= 0, got None"),
    ("seed=1.5", "seed: must be an integer >= 0, got 1.5"),
    ("training.epochs=2.5", "training.epochs must be an integer, got 2.5"),
    ("training.epochs=true", "training.epochs must be an integer, got True"),
    ("training.batch_size=8.5", "training.batch_size must be an integer, got 8.5"),
    ("encoder.stem_channels=4.5", "encoder.stem_channels must be integers >= 1, got 4.5"),
    ('encoder.blocks_per_stage=["a","a"]', "encoder.blocks_per_stage must be integers >= 1"),
    ("encoder.blocks_per_stage=[1.5,1]", "encoder.blocks_per_stage must be integers >= 1"),
    ("encoder.channel_widths=[4,8.0]", "encoder.channel_widths must be integers >= 1"),
    ("features.fft_size=64.5", "features.fft_size must be an integer or null, got 64.5"),
    ("features.mel.n_filters=12.5", "features.mel.n_filters: must be an integer, got 12.5"),
    # Real settings refuse non-numbers, booleans and non-finite values.
    ("training.alpha=NaN", "training.alpha must be a finite number, got nan"),
    ("training.alpha=Infinity", "training.alpha must be a finite number, got inf"),
    ("training.alpha=true", "training.alpha must be a finite number, got True"),
    ("training.lr=abc", "training.lr must be a finite number, got 'abc'"),
    ("training.lr=null", "training.lr must be a finite number, got None"),
    ("training.weight_decay=NaN", "training.weight_decay must be a finite number, got nan"),
    ("training.weight_decay=[0]", "training.weight_decay must be a finite number, got [0]"),
    ("features.cqt.f_min=abc", "features.cqt.f_min: must be a finite number, got 'abc'"),
    ("features.cqt.f_min=NaN", "features.cqt.f_min: must be a finite number, got nan"),
    ("features.cqt.f_min=null", "features.cqt.f_min: must be a finite number, got None"),
    ("features.cqt.f_max=abc", "features.cqt.f_max: must be a finite number or null, got 'abc'"),
    ("features.cqt.f_max=-Infinity",
     "features.cqt.f_max: must be a finite number or null, got -inf"),
    ("features.cqt.f_max=false", "features.cqt.f_max: must be a finite number or null, got False"),
    ("features.frame_len_ms=Infinity", "features.frame_len_ms must be a finite number, got inf"),
    ("segmentation.segment_len=Infinity",
     "segmentation.segment_len must be a finite number, got inf"),
    ("split.ratios=[NaN,0.5,0.5]",
     "split.ratios must be three positive finite numbers, got (nan, 0.5, 0.5)"),
    # The synthesis block checks its own types.
    ("dataset.synthesis.n_classes=x", "dataset.synthesis.n_classes must be an integer, got 'x'"),
    ("dataset.synthesis.n_classes=1.5", "dataset.synthesis.n_classes must be an integer, got 1.5"),
    ("dataset.synthesis.snr_db=loud",
     "dataset.synthesis.snr_db must be a finite number, got 'loud'"),
    ("dataset.synthesis.snr_db=-7000",
     "dataset.synthesis.snr_db must be >= -200 or +inf, got -7000.0"),
    ("dataset.synthesis.line_gain=NaN",
     "dataset.synthesis.line_gain must be a finite number, got nan"),
    ("dataset.synthesis.track_duration=Infinity",
     "dataset.synthesis.track_duration must be a finite number, got inf"),
])
def test_config_document_errors_end_in_one_error_line(tmp_path, capsys, override, message):
    argv = ["synth", "--out", str(tmp_path / "out"), "--preset", "desk", "--set", override]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and len(err.strip().splitlines()) == 1, err
    assert not (tmp_path / "out").exists()


def _integer_leaves(doc, path=()):
    """(key path, value) of every integer leaf and integer list entry of doc."""
    for key, value in doc.items():
        where = path + (key,)
        if isinstance(value, dict):
            yield from _integer_leaves(value, where)
        elif isinstance(value, list):
            yield from ((where + (i,), v) for i, v in enumerate(value) if type(v) is int)
        elif type(value) is int:
            yield where, value


@pytest.mark.parametrize("preset", [None, "desk"])
def test_every_integer_setting_refuses_other_numbers_and_booleans(preset):
    base = resolve_config(preset=preset, overrides=["dataset.manifest=m.json"], env={})
    leaves = [(where, value) for where, value in _integer_leaves(base)
              if where[:2] != ("dataset", "synthesis")]
    assert {where[:2] for where, _ in leaves} >= {("seed",), ("features", "mel"),
                                                  ("encoder", "blocks_per_stage"),
                                                  ("training", "epochs")}
    for where, value in leaves:
        for bad in (value + 0.5, True):
            cfg = copy.deepcopy(base)
            _get(cfg, where[:-1])[where[-1]] = bad
            with pytest.raises(ConfigError) as exc:
                validate_config(cfg)
            name = [k for k in where if isinstance(k, str)][-1]
            assert name in str(exc.value), (where, bad, exc.value)


def test_every_real_setting_and_synthesis_field_refuses_non_finite_values_and_non_numbers():
    base = resolve_config(preset="desk", env={})
    reals = [where for where in _paths(base) if type(_get(base, where)) is float]
    fields = [("dataset", "synthesis", key) for key in base["dataset"]["synthesis"]]
    assert {where[:2] for where in reals} >= {("segmentation", "segment_len"), ("split", "ratios"),
                                              ("features", "frame_len_ms"), ("training", "lr"),
                                              ("features", "cqt"), ("dataset", "synthesis")}
    for where in reals + fields:
        for bad in (math.nan, math.inf, -math.inf, "x", True):
            cfg = copy.deepcopy(base)
            _get(cfg, where[:-1])[where[-1]] = bad
            if where[-1] == "snr_db" and bad == math.inf:
                validate_config(cfg)  # noise-free synthesis
                continue
            with pytest.raises(ConfigError) as exc:
                validate_config(cfg)
            name = [k for k in where if isinstance(k, str)][-1]
            assert name in str(exc.value), (where, bad, exc.value)


# -- binary readers: any byte string parses or raises an IclError ---------------


def _written(write) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "blob"
        write(path)
        return path.read_bytes()


VALID_WAV = _written(lambda p: wavio.write_wav(p, np.linspace(-0.5, 0.5, 40).reshape(20, 2), 1000))
VALID_ICLF = _written(lambda p: features.write_feature_cache(
    p, np.arange(12.0).reshape(3, 4), "mel", 2))
VALID_ICLC = _written(lambda p: checkpoint.save_checkpoint(
    p, {"enc/w": np.ones((2, 3)), "enc/b": np.zeros(2), "scalar": np.float64(1.5)}))


def _edited(valid: bytes, edits) -> bytes:
    buf = bytearray(valid)
    for pos, value in edits:
        buf[pos] = value
    return bytes(buf)


def mutations(valid: bytes):
    """Random bytes, truncations, byte edits and trailing junk of a valid file."""
    n = len(valid)
    return st.one_of(
        st.binary(max_size=64),
        st.integers(0, n - 1).map(lambda cut: valid[:cut]),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 255)), min_size=1,
                 max_size=4).map(lambda edits: _edited(valid, edits)),
        st.binary(min_size=1, max_size=16).map(lambda tail: valid + tail),
    )


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _parses_or_raises_icl_error(read, path: Path, blob: bytes) -> None:
    path.write_bytes(blob)
    try:
        read(path)
    except IclError:
        pass


@settings(max_examples=300, deadline=None)
@given(blob=mutations(VALID_WAV))
def test_wav_reader_fuzz(fuzz_dir, blob):
    _parses_or_raises_icl_error(audio.load_wav, fuzz_dir / "f.wav", blob)


@settings(max_examples=300, deadline=None)
@given(blob=mutations(VALID_ICLF))
def test_feature_cache_reader_fuzz(fuzz_dir, blob):
    _parses_or_raises_icl_error(features.read_feature_cache, fuzz_dir / "f.iclf", blob)


@settings(max_examples=300, deadline=None)
@given(blob=mutations(VALID_ICLC))
@example(blob=b"ICLC\x01")
def test_checkpoint_reader_fuzz(fuzz_dir, blob):
    _parses_or_raises_icl_error(checkpoint.load_checkpoint, fuzz_dir / "f.iclc", blob)


# -- JSON artifacts: a dropped key or a value of another type parses or raises -----

DROP = object()
JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
                        st.lists(st.integers(), max_size=2),
                        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


def _paths(doc, prefix=()):
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.fixture(scope="module")
def json_fuzz_run(micro_run, tmp_path_factory):
    out = tmp_path_factory.mktemp("json_fuzz") / "out"
    shutil.copytree(micro_run[0], out)
    pipeline.cmd_eval(out, micro_run[1])
    return out, micro_run[1], micro_run[2]


@pytest.mark.parametrize("victim", ["features/index.json", "runs/{run}/eval.json",
                                    "runs/{run}/stats.json", "runs/{run}/resolved_config.json"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_json_artifact_fuzz(json_fuzz_run, victim, data):
    out, run_name, cfg = json_fuzz_run
    path = out / victim.format(run=run_name)
    original = path.read_text()
    doc = json.loads(original)
    paths = list(_paths(doc))
    where = data.draw(st.one_of(st.sampled_from([p for p in paths if len(p) == 1]),
                                st.sampled_from(paths)))
    new = data.draw(st.one_of(st.just(DROP), JSON_VALUES.filter(
        lambda v: type(v) is not type(_get(doc, where)))))
    edited = copy.deepcopy(doc)
    parent = _get(edited, where[:-1])
    if new is DROP:
        del parent[where[-1]]
    else:
        parent[where[-1]] = new
    path.write_text(json.dumps(edited))
    readers = {"index.json": [lambda: pipeline.load_dataset(cfg, out, ("mel", "cqt"))],
               "eval.json": [lambda: pipeline.cmd_report(out)],
               "stats.json": [lambda: pipeline.cmd_eval(out, run_name)],
               "resolved_config.json": [lambda: pipeline.cmd_report(out),
                                        lambda: pipeline.cmd_eval(out, run_name)]}
    try:
        for read in readers[path.name]:
            try:
                read()
            except IclError:
                pass
    finally:
        path.write_text(original)


# -- JSON writer: one format, written atomically ------------------------------------


def test_every_json_artifact_is_in_the_one_format_with_no_temp_file_left(micro_run, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(micro_run[0], out)
    pipeline.cmd_eval(out, micro_run[1])
    pipeline.cmd_report(out)
    docs = sorted(out.rglob("*.json"))
    assert {p.name for p in docs} == {"manifest.json", "resolved_config.json", "index.json",
                                      "stats.json", "run.json", "eval.json", "results.json"}
    for path in docs:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path
    assert [p for p in out.rglob("*") if p.name.startswith(".") or p.suffix == ".tmp"] == []


def test_write_json_of_an_unserializable_doc_leaves_the_old_file(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"b": [1.5, None], "a": math.inf})
    before = path.read_bytes()
    assert before == b'{\n  "a": Infinity,\n  "b": [\n    1.5,\n    null\n  ]\n}\n'
    with pytest.raises(TypeError):
        write_json(path, {"a": object()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_json_is_written_only_through_the_one_writer():
    """json.dumps appears once in errors.write_json and once in the metrics.jsonl
    line writer of training.train, and nowhere else in the package."""
    sources = {p.name: p.read_text() for p in Path(icl.__file__).parent.glob("*.py")}
    assert {name: text.count("json.dumps") for name, text in sources.items()
            if "json.dumps" in text} == {"errors.py": 1, "training.py": 1}
    assert "log_file.write(json.dumps(" in sources["training.py"]
