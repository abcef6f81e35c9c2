"""The seeded generator behind markov-mc and markov-spectral."""

import numpy as np

from perfbench import generate


def test_same_seed_gives_identical_configs():
    for make in (generate.markov_mc, generate.markov_spectral):
        first = [(n, generate.dump(c), cmds) for n, c, cmds in make(7)]
        again = [(n, generate.dump(c), cmds) for n, c, cmds in make(7)]
        assert first == again
        other = [(n, generate.dump(c), cmds) for n, c, cmds in make(8)]
        assert first != other


def test_mc_systems_are_primitive_and_share_the_base_work():
    for seed in (1, 2, 3):
        for _, cfg, _ in generate.markov_mc(seed):
            inc = np.array(cfg["system"]["incidence"])
            assert generate.is_primitive(inc)
            assert not inc.all()  # non-full
            base = generate.MC_BASE[len(inc)]
            assert generate.word_counts(inc) == generate.word_counts(base)


def test_spectral_system_shape():
    (_, cfg, cmds), = generate.markov_spectral(5)
    inc = np.array(cfg["system"]["incidence"])
    assert inc.shape == (generate.SPECTRAL_SYMBOLS,) * 2
    assert generate.is_primitive(inc) and not inc.all()
    assert cfg["driving"]["kind"] == "periodic" and len(cfg["driving"]["states"]) >= 3
    assert cmds == ("dimension", "spectrum")
