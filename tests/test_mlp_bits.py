"""MLP training held to fixed bits.

The sha1s below were computed before the training step moved onto one flat
parameter vector with reused buffers, so a change to how a step gathers its
rows, lays out its parameters or applies Adam must leave every weight, bias,
logged loss, prediction and model-file byte as it was. Each case hashes its
weights, its biases, its `training_log` (as sorted-key JSON, whose floats
round-trip) and `mlp.predict` on the held-out test rows.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lumenrem import dataset as dt
from lumenrem import mlp


def _splits(n: int, seed: int, validation: bool = True) -> dt.SplitSets:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 3.0, (n, 3))
    y = np.sin(2.0 * x[:, 0]) * x[:, 1] - x[:, 2] ** 2 - 40.0 + 0.1 * rng.normal(size=n)
    splits = dt.split(dt.Dataset(feature_names=("x", "y", "z"), features=x, rss_dbm=y),
                      seed=seed)
    if validation:
        return splits
    empty = splits.validation.take(np.arange(0))
    return dt.SplitSets(train=splits.train, validation=empty, test=splits.test)


def _digests(model: mlp.MlpModel, splits: dt.SplitSets) -> dict:
    def sha1(data: bytes) -> str:
        return hashlib.sha1(data).hexdigest()

    return {
        "weights": sha1(b"".join(w.tobytes() for w in model.weights)),
        "biases": sha1(b"".join(b.tobytes() for b in model.biases)),
        "log": sha1(json.dumps(model.training_log, sort_keys=True).encode()),
        "predict": sha1(mlp.predict(model, splits.test.features).tobytes()),
    }


# name: (rows, split seed, validation rows?, hidden, batch size, epochs, train seed)
_CONFIGS = {
    # 360 training rows: batches of 128, 128 and a short 104
    "mlp32x128 batch 128": (600, 1, True, (32, 128), 128, 4, 3),
    # 240 training rows: seven batches of 32 and a short 16
    "mlp32x128 batch 32": (400, 2, True, (32, 128), 32, 3, 4),
    # 90 training rows: twelve batches of 7 and a short 6
    "64x256 batch 7": (150, 3, True, (64, 256), 7, 2, 5),
    "mlp32x128 no validation rows": (300, 4, False, (32, 128), 32, 3, 6),
}

_SHA1 = {
    "mlp32x128 batch 128": {
        "weights": "a47be796f1f9a8ecf3ad9632e6654f8d10ccf8c3",
        "biases": "26fc673f1439873ea13226454ef1872f1d601ec7",
        "log": "62df4ebf1fc56cc5558a38265d7691f6f8f69b93",
        "predict": "9d6aa77e142db1e8279ec50c7b2578a05db52dec",
    },
    "mlp32x128 batch 32": {
        "weights": "fa3df885e045183a96d83ffcac715d17b8054e2e",
        "biases": "8bbc927a392a74b97a3a4a9ad6537ddff0d7b985",
        "log": "d2bf04e53181c501b2fe31e04a5f9d9b6d0a76c2",
        "predict": "5ee15828863a12b3f68b06caaf3d4f4748660a23",
    },
    "64x256 batch 7": {
        "weights": "788de621e925a70901d6cfb7fb4dbdc46ebbf257",
        "biases": "7c13971e0053d5b834042370483f7a66961467da",
        "log": "523bec73b7278e4371812ea46d5625e74fded3aa",
        "predict": "f7a86e2b9859da518882366b10073ad6867861a4",
    },
    "mlp32x128 no validation rows": {
        "weights": "db512f32fc21794adfb111afc1743309630601d6",
        "biases": "f8c49b4959c1acbc98a7c36d689d645d723d44aa",
        "log": "6181d77fa052575db3fe4940f9ba0e762d5d2841",
        "predict": "14be56e865e3685b29576605482544ffef9f0c72",
    },
}

# the bytes of `save_model` on the "mlp32x128 batch 128" model
_FILE_SHA1 = "c7d917641be21e1aeb6ac5189ead37035b1f1d67"


def _train(name: str):
    n, split_seed, validation, hidden, batch, epochs, seed = _CONFIGS[name]
    splits = _splits(n, split_seed, validation)
    cfg = mlp.MlpConfig(input_dim=3, hidden=hidden, batch_size=batch, epochs=epochs, seed=seed)
    return mlp.train(cfg, splits), splits


@pytest.mark.parametrize("name", list(_CONFIGS))
def test_training_keeps_its_bits(name):
    model, splits = _train(name)
    assert _digests(model, splits) == _SHA1[name]


def test_a_trained_model_file_keeps_its_bytes(tmp_path):
    model, _ = _train("mlp32x128 batch 128")
    path = tmp_path / "m.json"
    mlp.save_model(model, path)
    assert hashlib.sha1(path.read_bytes()).hexdigest() == _FILE_SHA1


_TRAIN_AND_HASH = """
import json
import test_mlp_bits as t
print(json.dumps({name: t._digests(*t._train(name)) for name in t._CONFIGS}, sort_keys=True))
"""


def test_training_does_not_depend_on_the_thread_count():
    """Every case above, trained in a process with one BLAS thread and in one
    with two, hashes the same."""
    src = str(Path(mlp.__file__).resolve().parents[1])
    here = str(Path(__file__).resolve().parent)
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, here, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", _TRAIN_AND_HASH], env=env, check=True,
                             capture_output=True, text=True, timeout=300).stdout
        runs.append(json.loads(out))
    assert sorted(runs[0]) == sorted(_CONFIGS)
    assert runs[0] == runs[1]
