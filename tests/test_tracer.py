"""perfbench/tracer.py's patch points against the package it patches.

The tracer wraps module attributes by name and times each layer through
them. A renamed function, or a call that stops going through the patched
binding, would leave a layer's time silently at zero; this runs each traced
entry point once at a tiny size and checks that every patched name was
called and is restored afterwards.
"""

import importlib.util
from pathlib import Path

import numpy as np

# install reads these submodules as attributes of the package
import groundsent.autodiff
import groundsent.checkpoint
import groundsent.data
import groundsent.evaluation
import groundsent.training
import groundsent as gs

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
tracer_module = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer_module)


def test_every_patch_point_is_entered_and_restored(tmp_path):
    tracer = tracer_module.Tracer()
    points, hits = set(), set()

    def patch(owner, attr, span_name):  # the tracer's patch, plus a hit counter per point
        tracer_module.Tracer.patch(tracer, owner, attr, span_name)
        wrapper = getattr(owner, attr)

        def hit(*args, **kwargs):
            hits.add((owner, attr))
            return wrapper(*args, **kwargs)

        setattr(owner, attr, hit)
        points.add((owner, attr))

    tracer.patch = patch
    try:
        tracer.install(gs)  # inside the try: a missing name leaves nothing patched
        patched = list(tracer._undo)
        tr, d = gs.training, gs.data
        config = tr.TrainConfig(d_cell=4, d_a=3, n_a=2, d_e=4, d_img=5, batch_size=4, seed=0)
        corpus = d.gen_synthetic(8, 8, config.d_img, seed=0)
        vocab = d.build_vocab(corpus)
        samples = d.numericalize(corpus, vocab)
        params = tr.init_params(config, vocab.size)
        adam = tr.AdamState.for_params(params)
        batch = d.make_batches(samples, config.batch_size, config.seed)[0]
        tr.train_step(batch, params, adam, config, rng=np.random.default_rng(0))
        gs.evaluation.retrieval_eval(params, samples)
        gs.evaluation.salience(params, vocab, corpus.records[0].src)
        path = tmp_path / "checkpoint.bin"
        gs.checkpoint.save(path, params, adam, config, vocab, 1)
        gs.checkpoint.load(path)
    finally:
        tracer.uninstall()

    assert points - hits == set()
    assert sum(tracer.entries.values()) > 0  # the wrapped autodiff.record saw the step's ops
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
