"""The README's library examples run as documented."""

import numpy as np
import readme_examples

from mixsep.cacg import check_posterior


def test_library_examples_run_in_order():
    assert len(readme_examples.python_blocks()) == 2
    ns = readme_examples.run()
    # the first example, with the default VAD settings, keeps its one
    # segment and counts both speakers
    (segment,) = ns["report"]["segments"]
    assert segment["error"] is None and segment["speaker_count"] == 2
    assert ns["diarization"].speakers == ["spk00", "spk01"] and len(ns["speaker_audio"]) == 2
    # the second: the initial and the fitted posteriors are plain arrays
    x, init, model, gamma = ns["x"], ns["init"], ns["model"], ns["gamma"]
    assert init.shape == (5, x.num_frames, x.num_bins)
    assert gamma.shape == (model.num_components, x.num_frames, x.num_bins)
    check_posterior(gamma)
    # the model's parts alone fuse nothing, and the cACGMM's EM is monotone
    for _, part_gamma, events, _ in (ns["spatial"], ns["spectral"]):
        assert part_gamma.shape == init.shape and events == []
    trace = ns["spatial"][3]
    assert np.all(np.diff(trace) >= -1e-6 * np.abs(trace[:-1]))
