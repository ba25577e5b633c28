"""Committed digests of model, operator, optimizer and checkpoint state.

ROADMAP item 7's digest file, state slice. Every input is drawn from a
seeded RNG or computed elementwise — same-seed untrained models, and
optimizers stepped on integer-lattice gradients, where sums of squares are
exact — so a digest is a function of the code and NumPy's RNG streams, not
of the BLAS build. A digest covers contents, not files: each entry's name,
dtype, shape and bytes in order, plus a checkpoint manifest's fields other
than ``sha256`` (which would tie it to the zlib build).

What is pinned, one ``tests/golden/state_digests.json`` entry each:

- ``model``: :func:`repro.models.serialization.state_dict` of a tiny DLRM;
- ``zoo/<kind>``: the ``state_dict()`` of every operator in
  ``tests.helpers.OPERATORS``, built by its own constructor;
- ``optim/<name>`` and ``optim/<name>/params``: each optimizer's
  ``state_dict()`` after two steps on dense and sparse lattice gradients,
  and the parameters those steps left;
- ``checkpoint/save``: one :meth:`CheckpointManager.save`.

Regenerate with ``python tests/test_state_digests.py`` (writes the file
from the tree on ``PYTHONPATH``) — only for a *declared* state change.
"""

import functools
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.models import DLRMConfig, TTConfig, build_ttrec
from repro.models.serialization import state_dict
from repro.ops.optim import SGD, Adagrad, RowWiseAdagrad, SparseSGD
from repro.reliability import CheckpointManager

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))  # regenerate
from tests.helpers import OPERATORS  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "state_digests.json"

CFG = DLRMConfig(table_sizes=(400, 60, 300, 200), num_dense=5, emb_dim=8,
                 bottom_mlp=(8,), top_mlp=(16,))
# Plain Gaussian cores: Algorithm 3's tail rescale goes through a port of
# Cephes' ndtr, whose exp() is the C library's, not NumPy's.
TT = TTConfig(rank=4, initializer="gaussian")
CACHED = TT.with_(use_cache=True, warmup_steps=5, refresh_interval=25,
                  cache_fraction=0.1)
OPTIMIZERS = {
    "sgd": lambda ps: SGD(ps, lr=0.25, momentum=0.5, weight_decay=0.125),
    "sparse_sgd": lambda ps: SparseSGD(ps, lr=0.25),
    "adagrad": lambda ps: Adagrad(ps, lr=0.25),
    "rowwise_adagrad": lambda ps: RowWiseAdagrad(ps, lr=0.25),
}


def digest(entries: dict) -> str:
    """sha256 over ``(name, dtype, shape, bytes)`` per array and the JSON
    of every other value, in ``entries``' order."""
    h = hashlib.sha256()
    for key, value in entries.items():
        h.update(key.encode() + b"\0")
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(json.dumps(value, sort_keys=True).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def tiny_model(cache: bool = False):
    return build_ttrec(CFG, num_tt_tables=2, tt=CACHED if cache else TT,
                       min_rows=150, rng=0)


def lattice_grads(model, seed: int) -> None:
    """Integer gradients on every dense parameter and on a seeded half of
    every sparse parameter's rows."""
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.zero_grad()
        if p.sparse:
            rows = np.sort(rng.choice(p.shape[0], size=max(1, p.shape[0] // 2),
                                      replace=False))
            p.accumulate(rows, rng.integers(-3, 4, size=(rows.size, *p.shape[1:]))
                         .astype(p.data.dtype))
        else:
            p.grad[...] = rng.integers(-3, 4, size=p.shape)


def stepped(make, cache: bool = False):
    model = tiny_model(cache)
    opt = make(model.parameters())
    for seed in (1, 2):
        lattice_grads(model, seed)
        opt.step()
    return model, opt


def checkpoint_files(manager: CheckpointManager, step: int) -> dict:
    """A written checkpoint as digestible entries: the payload's arrays in
    file order, then the manifest without its checksum."""
    with np.load(manager.payload_path(step)) as archive:
        entries = {name: archive[name] for name in archive.files}
    manifest = json.loads(Path(manager.manifest_path(step)).read_text())
    manifest.pop("sha256")
    entries["manifest"] = manifest
    return entries


@functools.cache
def digests() -> dict[str, str]:
    out = {"model": digest(state_dict(tiny_model()))}
    for kind in sorted(OPERATORS):
        out[f"zoo/{kind}"] = digest(OPERATORS[kind](300, 8, "sum", 0).state_dict())
    for name, make in OPTIMIZERS.items():
        model, opt = stepped(make)
        out[f"optim/{name}"] = digest(opt.state_dict())
        out[f"optim/{name}/params"] = digest(state_dict(model))
    model, opt = stepped(OPTIMIZERS["rowwise_adagrad"], cache=True)
    with tempfile.TemporaryDirectory() as tmp:
        manager = CheckpointManager(tmp)
        manager.save(7, model, optimizer=opt, rng=np.random.default_rng(5),
                     losses=[0.5, 0.25])
        out["checkpoint/save"] = digest(checkpoint_files(manager, 7))
    return out


def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_every_digest_is_committed():
    assert list(digests()) == list(golden())


@pytest.mark.parametrize("name", list(golden()))
def test_state_digest(name):
    assert digests()[name] == golden()[name]


if __name__ == "__main__":  # regenerate the digests (see the module docstring)
    GOLDEN.write_text(json.dumps(digests(), indent=1) + "\n")
    print(f"wrote {GOLDEN.name}: {len(digests())} digests")
