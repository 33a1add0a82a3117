"""The error contract: one root class, one config check per fact, and
binary readers that either parse or raise it."""

import ast
import importlib
import inspect
import pkgutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import icl
from conftest import micro_config
from icl import audio, checkpoint, cli, features, wavio
from icl.audio import AudioError, SplitError
from icl.config import ConfigError
from icl.errors import IclError
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
    ('features.cqt_frame={"frame_shift_ms":0}', "features.cqt_frame.frame_shift_ms",
     FeatureError),
    ("split.ratios=[1,0,0]", "split.ratios", SplitError),
    ("split.ratios=[0.5,0.3,0.3]", "split.ratios", SplitError),
    ("segmentation.overlap=1.5", "segmentation.overlap", AudioError),
    ("training.alpha=abc", "training", TypeError),
])
def test_config_errors_come_from_the_typed_settings(override, field, source):
    with pytest.raises(ConfigError) as exc:
        micro_config(override)
    assert str(exc.value).startswith(field)
    assert isinstance(exc.value.__cause__, source)


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
